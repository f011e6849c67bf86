#include "core/features.h"

#include <algorithm>
#include <stdexcept>

#include "util/sim_time.h"

namespace otac {

const std::vector<std::string>& FeatureExtractor::feature_names() {
  static const std::vector<std::string> names = {
      "active_friends", "avg_owner_views", "photo_type",
      "photo_size_kb",  "photo_age_10min", "recency_10min",
      "terminal",       "recent_requests", "access_hour"};
  return names;
}

FeatureExtractor::FeatureExtractor(const PhotoCatalog& catalog,
                                   std::span<std::int64_t> shared_last_access)
    : shared_last_access_(shared_last_access),
      owner_stats_(catalog.owner_count()) {
  if (shared_last_access.empty()) {
    own_last_access_.assign(catalog.photo_count(), kNeverAccessed);
  } else if (shared_last_access.size() < catalog.photo_count()) {
    throw std::invalid_argument(
        "FeatureExtractor: shared last-access array smaller than catalog");
  }
  // avg_views starts at 0 / max(1, photos) == 0 for every owner; the
  // divisor and active_friends are fixed catalog properties materialized
  // once so the hot path never touches the catalog's owner table.
  for (std::size_t owner = 0; owner < catalog.owner_count(); ++owner) {
    const OwnerMeta& meta = catalog.owner(static_cast<UserId>(owner));
    owner_stats_[owner].denom =
        std::max<double>(1.0, static_cast<double>(meta.photo_count));
    owner_stats_[owner].active_friends =
        static_cast<float>(meta.active_friends);
  }
}

void FeatureExtractor::advance_window_to(std::int64_t second) noexcept {
  if (window_now_ == kNeverAccessed) {
    window_now_ = second;
    return;
  }
  if (second <= window_now_) return;  // same second (or clock skew): keep
  const std::int64_t gap = second - window_now_;
  if (gap >= static_cast<std::int64_t>(kWindowSeconds)) {
    window_counts_.fill(0);
    window_total_ = 0;
  } else {
    for (std::int64_t s = 1; s <= gap; ++s) {
      auto& slot = window_counts_[static_cast<std::size_t>(
          (window_now_ + s) % static_cast<std::int64_t>(kWindowSeconds))];
      window_total_ -= slot;
      slot = 0;
    }
  }
  window_now_ = second;
}

void FeatureExtractor::extract(const Request& request, const PhotoMeta& photo,
                               std::span<float> out) const {
  const OwnerStats& owner = owner_stats_[photo.owner];
  const std::int64_t now = request.time.seconds;

  out[kActiveFriends] = owner.active_friends;
  out[kAvgOwnerViews] = owner.avg_views;
  out[kPhotoType] = static_cast<float>(type_code(photo.type));
  out[kPhotoSize] = static_cast<float>(photo.size_bytes) / 1024.0F;
  out[kPhotoAge] = static_cast<float>(
      ten_minute_buckets(std::max<std::int64_t>(0, now - photo.upload_time.seconds)));
  // Recency: since last access, or since upload when never accessed (§3.2.1).
  const std::int64_t last = last_access(request.photo);
  const std::int64_t reference =
      last == kNeverAccessed ? photo.upload_time.seconds : last;
  out[kRecency] = static_cast<float>(
      ten_minute_buckets(std::max<std::int64_t>(0, now - reference)));
  out[kTerminal] =
      request.terminal == TerminalType::mobile ? 1.0F : 0.0F;
  out[kRecentRequests] = static_cast<float>(window_total_);
  out[kAccessHour] = static_cast<float>(hour_of_day(request.time));
}

void FeatureExtractor::observe(const Request& request, const PhotoMeta& photo) {
  last_access(request.photo) = request.time.seconds;
  // Maintain the avg-views feature incrementally: same double-precision
  // quotient the old per-extract recompute produced, done once per observe
  // instead of once per extract.
  OwnerStats& owner = owner_stats_[photo.owner];
  owner.views += 1;
  owner.avg_views =
      static_cast<float>(static_cast<double>(owner.views) / owner.denom);
  advance_window_to(request.time.seconds);
  auto& slot = window_counts_[static_cast<std::size_t>(
      request.time.seconds % static_cast<std::int64_t>(kWindowSeconds))];
  slot += 1;
  window_total_ += 1;
}

void FeatureExtractor::extract_and_observe(const Request& request,
                                           const PhotoMeta& photo,
                                           std::span<float> out) {
  OwnerStats& owner = owner_stats_[photo.owner];
  std::int64_t& last_slot = last_access(request.photo);
  const std::int64_t now = request.time.seconds;

  // -- extract: identical expressions to extract(), reading the
  //    pre-observe values of the state this function updates below.
  out[kActiveFriends] = owner.active_friends;
  out[kAvgOwnerViews] = owner.avg_views;
  out[kPhotoType] = static_cast<float>(type_code(photo.type));
  out[kPhotoSize] = static_cast<float>(photo.size_bytes) / 1024.0F;
  out[kPhotoAge] = static_cast<float>(ten_minute_buckets(
      std::max<std::int64_t>(0, now - photo.upload_time.seconds)));
  const std::int64_t last = last_slot;
  const std::int64_t reference =
      last == kNeverAccessed ? photo.upload_time.seconds : last;
  out[kRecency] = static_cast<float>(
      ten_minute_buckets(std::max<std::int64_t>(0, now - reference)));
  out[kTerminal] = request.terminal == TerminalType::mobile ? 1.0F : 0.0F;
  out[kRecentRequests] = static_cast<float>(window_total_);
  out[kAccessHour] = static_cast<float>(hour_of_day(request.time));

  // -- observe: identical updates to observe(), reusing the references
  //    already in hand instead of re-resolving the random-access slots.
  last_slot = now;
  owner.views += 1;
  owner.avg_views =
      static_cast<float>(static_cast<double>(owner.views) / owner.denom);
  advance_window_to(now);
  auto& slot =
      window_counts_[static_cast<std::size_t>(
          now % static_cast<std::int64_t>(kWindowSeconds))];
  slot += 1;
  window_total_ += 1;
}

}  // namespace otac
