#include "core/features.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "trace/trace_generator.h"

namespace otac {
namespace {

PhotoCatalog tiny_catalog() {
  std::vector<OwnerMeta> owners(2);
  owners[0].active_friends = 10;
  owners[0].photo_count = 2;
  owners[1].active_friends = 99;
  owners[1].photo_count = 1;

  std::vector<PhotoMeta> photos(3);
  photos[0] = PhotoMeta{0, PhotoType{Resolution::l, PhotoFormat::jpg},
                        64 * 1024, SimTime{0}};
  photos[1] = PhotoMeta{0, PhotoType{Resolution::a, PhotoFormat::png},
                        4 * 1024, SimTime{600}};
  photos[2] = PhotoMeta{1, PhotoType{Resolution::m, PhotoFormat::jpg},
                        32 * 1024, SimTime{-kSecondsPerDay}};
  return PhotoCatalog{std::move(photos), std::move(owners)};
}

Request make_request(PhotoId photo, std::int64_t t,
                     TerminalType terminal = TerminalType::mobile) {
  Request r;
  r.photo = photo;
  r.time = SimTime{t};
  r.terminal = terminal;
  return r;
}

TEST(Features, NamesMatchCount) {
  EXPECT_EQ(FeatureExtractor::feature_names().size(),
            FeatureExtractor::kFeatureCount);
}

TEST(Features, StaticFeatures) {
  const PhotoCatalog catalog = tiny_catalog();
  FeatureExtractor fx{catalog};
  const Request r = make_request(0, 2 * 3600 + 100);  // 02:00ish
  const auto row = fx.extract(r, catalog.photo(0));

  EXPECT_FLOAT_EQ(row[FeatureExtractor::kActiveFriends], 10.0F);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::kPhotoType],
                  static_cast<float>(type_code(catalog.photo(0).type)));
  EXPECT_FLOAT_EQ(row[FeatureExtractor::kPhotoSize], 64.0F);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::kTerminal], 1.0F);
  EXPECT_FLOAT_EQ(row[FeatureExtractor::kAccessHour], 2.0F);
  // Age: 7300 s since upload -> 12 ten-minute buckets.
  EXPECT_FLOAT_EQ(row[FeatureExtractor::kPhotoAge], 12.0F);
}

TEST(Features, RecencyFallsBackToUploadTime) {
  const PhotoCatalog catalog = tiny_catalog();
  FeatureExtractor fx{catalog};
  const Request r = make_request(0, 1200);  // never accessed before
  const auto row = fx.extract(r, catalog.photo(0));
  EXPECT_FLOAT_EQ(row[FeatureExtractor::kRecency], 2.0F);  // 1200s = 2 buckets

  fx.observe(r, catalog.photo(0));
  const Request r2 = make_request(0, 1200 + 3000);
  const auto row2 = fx.extract(r2, catalog.photo(0));
  EXPECT_FLOAT_EQ(row2[FeatureExtractor::kRecency], 5.0F);  // 3000s / 600
}

TEST(Features, AvgOwnerViewsGrowsWithObservations) {
  const PhotoCatalog catalog = tiny_catalog();
  FeatureExtractor fx{catalog};
  const Request r0 = make_request(0, 10);
  EXPECT_FLOAT_EQ(fx.extract(r0, catalog.photo(0))[FeatureExtractor::kAvgOwnerViews],
                  0.0F);
  fx.observe(r0, catalog.photo(0));
  fx.observe(make_request(1, 20), catalog.photo(1));
  fx.observe(make_request(1, 30), catalog.photo(1));
  // Owner 0 has 3 views over 2 photos.
  const auto row = fx.extract(make_request(0, 40), catalog.photo(0));
  EXPECT_FLOAT_EQ(row[FeatureExtractor::kAvgOwnerViews], 1.5F);
  // Owner 1 untouched.
  const auto row2 = fx.extract(make_request(2, 40), catalog.photo(2));
  EXPECT_FLOAT_EQ(row2[FeatureExtractor::kAvgOwnerViews], 0.0F);
}

TEST(Features, RecentRequestsSlidingWindow) {
  const PhotoCatalog catalog = tiny_catalog();
  FeatureExtractor fx{catalog};
  for (int i = 0; i < 5; ++i) {
    fx.observe(make_request(0, 100 + i), catalog.photo(0));
  }
  EXPECT_EQ(fx.recent_request_count(), 5u);
  // 30 s later: all five still inside the 60 s window.
  fx.observe(make_request(0, 134), catalog.photo(0));
  EXPECT_EQ(fx.recent_request_count(), 6u);
  // 70 s after the first burst: burst has expired.
  fx.observe(make_request(0, 175), catalog.photo(0));
  EXPECT_EQ(fx.recent_request_count(), 2u);  // the 134s and 175s ones
  // A very long gap clears everything but the new request.
  fx.observe(make_request(0, 10'000), catalog.photo(0));
  EXPECT_EQ(fx.recent_request_count(), 1u);
}

TEST(Features, ExtractIsCausal) {
  // extract() must not be affected by the request itself.
  const PhotoCatalog catalog = tiny_catalog();
  FeatureExtractor fx{catalog};
  const Request r = make_request(0, 500);
  const auto before = fx.extract(r, catalog.photo(0));
  const auto again = fx.extract(r, catalog.photo(0));
  for (std::size_t f = 0; f < FeatureExtractor::kFeatureCount; ++f) {
    EXPECT_FLOAT_EQ(before[f], again[f]);
  }
  EXPECT_FLOAT_EQ(before[FeatureExtractor::kRecentRequests], 0.0F);
}

TEST(Features, BacklogPhotoHasLargeAge) {
  const PhotoCatalog catalog = tiny_catalog();
  FeatureExtractor fx{catalog};
  const auto row = fx.extract(make_request(2, 0), catalog.photo(2));
  EXPECT_FLOAT_EQ(row[FeatureExtractor::kPhotoAge], 144.0F);  // 1 day
}

TEST(Features, SharedLastAccessArrayMatchesPrivateArrays) {
  // Two extractors over disjoint photo sets (even and odd ids) sharing one
  // last-access array must produce exactly the rows of two extractors
  // with private arrays — the sharded replay's shards rely on it.
  WorkloadConfig config;
  config.num_owners = 200;
  config.num_photos = 3'000;
  const Trace trace = TraceGenerator{config}.generate();
  const PhotoCatalog& catalog = trace.catalog;
  std::vector<std::int64_t> shared(catalog.photo_count(),
                                   FeatureExtractor::kNeverAccessed);
  std::vector<FeatureExtractor> own{FeatureExtractor{catalog},
                                    FeatureExtractor{catalog}};
  std::vector<FeatureExtractor> borrowed{FeatureExtractor{catalog, shared},
                                         FeatureExtractor{catalog, shared}};
  std::array<float, FeatureExtractor::kFeatureCount> a{};
  std::array<float, FeatureExtractor::kFeatureCount> b{};
  for (const Request& request : trace.requests) {
    const PhotoMeta& photo = catalog.photo(request.photo);
    const std::size_t set = request.photo % 2;
    own[set].extract_and_observe(request, photo, a);
    borrowed[set].extract_and_observe(request, photo, b);
    ASSERT_EQ(a, b) << "photo " << request.photo;
  }
  EXPECT_GT(trace.requests.size(), 1'000u);
  EXPECT_EQ(shared[trace.requests.back().photo],
            trace.requests.back().time.seconds);
}

TEST(Features, CopiesOwnTheirStateUnlessTheArrayIsShared) {
  const PhotoCatalog catalog = tiny_catalog();
  const auto recency = [&](const FeatureExtractor& fx, std::int64_t now) {
    return fx.extract(make_request(0, now),
                      catalog.photo(0))[FeatureExtractor::kRecency];
  };

  // An owning extractor's copy is independent in both directions.
  FeatureExtractor original{catalog};
  original.observe(make_request(0, 600), catalog.photo(0));
  FeatureExtractor copy = original;
  copy.observe(make_request(0, 6'000), catalog.photo(0));
  EXPECT_FLOAT_EQ(recency(original, 6'600), 10.0F);  // last access 600
  EXPECT_FLOAT_EQ(recency(copy, 6'600), 1.0F);       // last access 6000
  // Assignment and moves keep the copy's own array, not the source's.
  FeatureExtractor assigned{catalog};
  assigned = copy;
  copy.observe(make_request(0, 6'500), catalog.photo(0));
  EXPECT_FLOAT_EQ(recency(assigned, 6'600), 1.0F);
  const FeatureExtractor moved = std::move(assigned);
  EXPECT_FLOAT_EQ(recency(moved, 6'600), 1.0F);

  // A shared-array extractor's copy writes the same array.
  std::vector<std::int64_t> shared(catalog.photo_count(),
                                   FeatureExtractor::kNeverAccessed);
  FeatureExtractor first{catalog, shared};
  FeatureExtractor second = first;
  second.observe(make_request(0, 6'000), catalog.photo(0));
  EXPECT_FLOAT_EQ(recency(first, 6'600), 1.0F);
  EXPECT_EQ(shared[0], 6'000);
}

TEST(Features, RejectsASharedArrayShorterThanTheCatalog) {
  const PhotoCatalog catalog = tiny_catalog();
  std::vector<std::int64_t> short_array(catalog.photo_count() - 1,
                                        FeatureExtractor::kNeverAccessed);
  EXPECT_THROW((FeatureExtractor{catalog, short_array}),
               std::invalid_argument);
}

}  // namespace
}  // namespace otac
