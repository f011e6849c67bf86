// Online extraction of the nine classifier features (§3.2.1), with the
// §3.2.3 discretizations: photo types mapped to 1..12, terminals to 0/1,
// age/recency in 10-minute buckets, access time as hour-of-day.
//
// The extractor is strictly causal: extract() for request i must be called
// before observe() of request i, and sees only state produced by requests
// < i. That is what makes the prediction "non-history-oriented" for
// first-seen photos — their recency collapses to (now - upload) and their
// owner statistics come from *other* photos of the same owner.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "trace/photo_catalog.h"
#include "trace/types.h"

namespace otac {

class FeatureExtractor {
 public:
  static constexpr std::size_t kFeatureCount = 9;

  enum Feature : std::size_t {
    kActiveFriends = 0,
    kAvgOwnerViews = 1,
    kPhotoType = 2,
    kPhotoSize = 3,
    kPhotoAge = 4,
    kRecency = 5,
    kTerminal = 6,
    kRecentRequests = 7,
    kAccessHour = 8,
  };

  [[nodiscard]] static const std::vector<std::string>& feature_names();

  /// Last-access time of a photo that has not been requested yet.
  static constexpr std::int64_t kNeverAccessed =
      std::numeric_limits<std::int64_t>::min();

  /// With an empty `shared_last_access` the extractor owns its per-photo
  /// last-access array. Otherwise it reads and writes the caller's array,
  /// which must hold catalog.photo_count() slots starting at
  /// kNeverAccessed and outlive this extractor (and its copies, which
  /// share it). Extractors that observe disjoint photo sets — the shards
  /// of one sharded replay — can share one array: each touches only its
  /// own photos' slots, so they never race and see exactly what private
  /// arrays would hold.
  explicit FeatureExtractor(const PhotoCatalog& catalog,
                            std::span<std::int64_t> shared_last_access = {});

  /// Features for this request given the state *before* it. Writes exactly
  /// kFeatureCount floats.
  void extract(const Request& request, const PhotoMeta& photo,
               std::span<float> out) const;

  [[nodiscard]] std::array<float, kFeatureCount> extract(
      const Request& request, const PhotoMeta& photo) const {
    std::array<float, kFeatureCount> row{};
    extract(request, photo, row);
    return row;
  }

  /// Advance the online state by one (time-ordered) request.
  void observe(const Request& request, const PhotoMeta& photo);

  /// Fused extract()+observe() for the batched admission path: one pass
  /// over the per-photo/per-owner state (the random loads are shared
  /// instead of issued twice), with the features computed strictly from
  /// the pre-observe state — bit-identical to extract() then observe().
  void extract_and_observe(const Request& request, const PhotoMeta& photo,
                           std::span<float> out);

  /// Hint the caches toward the per-photo/per-owner state extract() and
  /// observe() will touch for this request. Pure optimization: the batched
  /// admission path issues these for a whole micro-batch up front so the
  /// dependent loads overlap instead of serializing (the extractor state
  /// arrays are large and accessed in photo/owner order, i.e. randomly).
  void prefetch(const Request& request, const PhotoMeta& photo) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&last_access(request.photo));
    __builtin_prefetch(&owner_stats_[photo.owner]);
#else
    (void)request;
    (void)photo;
#endif
  }

  /// Requests observed in the 60 s window ending at the last observe().
  [[nodiscard]] std::uint64_t recent_request_count() const noexcept {
    return window_total_;
  }

 private:
  void advance_window_to(std::int64_t second) noexcept;

  // Per-photo time of last access (seconds; kNeverAccessed = not accessed
  // yet): this extractor's own vector, or the caller's array when
  // shared_last_access_ is non-empty. Copies of an owning extractor get
  // their own vector; copies of a sharing one share the caller's array.
  [[nodiscard]] std::int64_t& last_access(PhotoId photo) noexcept {
    return shared_last_access_.empty() ? own_last_access_[photo]
                                       : shared_last_access_[photo];
  }
  [[nodiscard]] const std::int64_t& last_access(
      PhotoId photo) const noexcept {
    return shared_last_access_.empty() ? own_last_access_[photo]
                                       : shared_last_access_[photo];
  }
  std::vector<std::int64_t> own_last_access_;
  std::span<std::int64_t> shared_last_access_;

  // Per-owner state, folded into ONE struct so each request touches a
  // single cache line per owner: the cumulative view count, the
  // precomputed divisor max(1, photo_count) (saves the random catalog
  // lookup observe() used to do), and the two derived feature values
  // extract() reads. avg_views is the *incrementally maintained* quotient
  // views / max(1, photo_count): observe() recomputes it once per request
  // (O(1)), so extract() is a single cached load instead of a divide +
  // catalog lookup per call. The cached float is the exact value the
  // recompute-per-extract code produced (same double arithmetic, same
  // rounding), which keeps every golden bit-identical.
  struct OwnerStats {
    std::uint64_t views = 0;
    double denom = 1.0;  // max(1.0, double(photo_count)), fixed per owner
    float active_friends = 0.0F;
    float avg_views = 0.0F;
  };
  std::vector<OwnerStats> owner_stats_;

  // Sliding 60-second request-count window (per-second ring buffer).
  static constexpr std::size_t kWindowSeconds = 60;
  std::array<std::uint32_t, kWindowSeconds> window_counts_{};
  std::int64_t window_now_ = kNeverAccessed;  // no second seen yet
  std::uint64_t window_total_ = 0;
};

}  // namespace otac
