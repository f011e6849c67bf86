#include "core/ota_criteria.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "trace/trace_generator.h"

namespace otac {
namespace {

Trace make_manual_trace(const std::vector<PhotoId>& sequence,
                        std::uint32_t size) {
  Trace trace;
  PhotoId max_id = 0;
  for (const PhotoId id : sequence) max_id = std::max(max_id, id);
  std::vector<PhotoMeta> photos(max_id + 1);
  for (auto& p : photos) p.size_bytes = size;
  trace.catalog = PhotoCatalog{std::move(photos), {OwnerMeta{}}};
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    Request r;
    r.time = SimTime{static_cast<std::int64_t>(i)};
    r.photo = sequence[i];
    trace.requests.push_back(r);
  }
  return trace;
}

TEST(Criteria, OneTimeFractionByThreshold) {
  // Distances: photo 0 -> 2, photo 1 -> 2, then terminal accesses.
  const Trace trace = make_manual_trace({0, 1, 0, 1}, 100);
  const NextAccessInfo oracle = compute_next_access(trace);
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, 4, 1.0), 1.0);   // all > 1
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, 4, 2.0), 0.5);   // dist 2 kept
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, 4, 100.0), 0.5); // terminals stay
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, 0, 1.0), 0.0);
}

TEST(Criteria, FormulaMatchesEquation) {
  const Trace trace = make_manual_trace({0, 1, 0, 1}, 100);
  const NextAccessInfo oracle = compute_next_access(trace);
  // One iteration from p=0: M0 = C/(S(1-h)); with C=1000, S=100, h=0.5:
  // M0 = 20 -> p(20) = 0.5 -> final M = 20/(1-0.5) = 40.
  const CriteriaResult r =
      compute_criteria(trace, oracle, 1000, 0.5, /*iterations=*/3);
  EXPECT_DOUBLE_EQ(r.mean_size, 100.0);
  EXPECT_DOUBLE_EQ(r.p, 0.5);
  EXPECT_DOUBLE_EQ(r.m, 40.0);
  EXPECT_DOUBLE_EQ(r.h, 0.5);
}

TEST(Criteria, MGrowsWithCapacity) {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 10'000;
  const Trace trace = TraceGenerator{config}.generate();
  const NextAccessInfo oracle = compute_next_access(trace);
  const CriteriaResult small = compute_criteria(trace, oracle, 1'000'000, 0.3);
  const CriteriaResult large = compute_criteria(trace, oracle, 10'000'000, 0.3);
  EXPECT_GT(large.m, small.m);
  EXPECT_LE(large.p, small.p);  // bigger M -> fewer accesses are one-time
}

TEST(Criteria, FixpointConverges) {
  WorkloadConfig config;
  config.num_owners = 500;
  config.num_photos = 10'000;
  const Trace trace = TraceGenerator{config}.generate();
  const NextAccessInfo oracle = compute_next_access(trace);
  const CriteriaResult three = compute_criteria(trace, oracle, 5'000'000, 0.4, 3);
  const CriteriaResult eight = compute_criteria(trace, oracle, 5'000'000, 0.4, 8);
  EXPECT_NEAR(three.m, eight.m, 0.05 * eight.m);  // paper: 3 rounds suffice
}

TEST(Criteria, RejectsDegenerateInput) {
  const Trace trace = make_manual_trace({0}, 100);
  const NextAccessInfo oracle = compute_next_access(trace);
  EXPECT_THROW((void)compute_criteria(trace, oracle, 0, 0.5),
               std::invalid_argument);
  Trace empty;
  empty.catalog = PhotoCatalog{{}, {}};
  const NextAccessInfo none = compute_next_access(empty);
  EXPECT_THROW((void)compute_criteria(empty, none, 100, 0.5),
               std::invalid_argument);
}

TEST(Criteria, HitRateClamped) {
  const Trace trace = make_manual_trace({0, 1, 0, 1}, 100);
  const NextAccessInfo oracle = compute_next_access(trace);
  const CriteriaResult r = compute_criteria(trace, oracle, 1000, 5.0);
  EXPECT_LE(r.h, 0.999);
  EXPECT_GT(r.m, 0.0);
}

// The expression one_time_fraction evaluated per request before its
// integer fast path; the fast path must agree with it for every m.
double reference_one_time_fraction(const NextAccessInfo& oracle,
                                   std::uint64_t num_requests, double m) {
  if (num_requests == 0) return 0.0;
  std::uint64_t one_time = 0;
  for (std::uint64_t i = 0; i < num_requests; ++i) {
    const std::uint64_t distance = oracle.reaccess_distance(i);
    if (distance == kNoNextAccess || static_cast<double>(distance) > m) {
      ++one_time;
    }
  }
  return static_cast<double>(one_time) / static_cast<double>(num_requests);
}

TEST(Criteria, OneTimeFractionMatchesFloatingCompareAtEveryThreshold) {
  // Distances on both sides of each integer threshold, up to and past
  // 2^53 where doubles stop being exact, plus never-reaccessed requests.
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  const std::vector<std::uint64_t> distances = {
      1,       2,       7,       8,       9,           100,
      k53 - 1, k53,     k53 + 1, k53 + 3, std::uint64_t{1} << 60,
      kNoNextAccess, kNoNextAccess};
  NextAccessInfo oracle;
  for (std::uint64_t i = 0; i < distances.size(); ++i) {
    oracle.next.push_back(distances[i] == kNoNextAccess ? kNoNextAccess
                                                        : i + distances[i]);
  }
  const std::uint64_t n = oracle.next.size();
  const double thresholds[] = {-1.0,
                               0.0,
                               0.5,
                               7.999,
                               8.0,
                               static_cast<double>(k53 - 1),
                               static_cast<double>(k53),
                               0x1p60,
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()};
  for (const double m : thresholds) {
    EXPECT_EQ(one_time_fraction(oracle, n, m),
              reference_one_time_fraction(oracle, n, m))
        << "m=" << m;
  }
  // Spot values: everything is one-time below 0 and at NaN (a NaN
  // compare is false, so only the two never-reaccessed requests count),
  // distances 1..8 survive m = 8.
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, n, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, n, std::nan("")), 2.0 / 13.0);
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, n, 8.0), 9.0 / 13.0);
  EXPECT_DOUBLE_EQ(one_time_fraction(oracle, n, 7.999), 10.0 / 13.0);
}

TEST(Criteria, OneTimeFractionMatchesFloatingCompareOnAGeneratedTrace) {
  WorkloadConfig config;
  config.num_owners = 300;
  config.num_photos = 5'000;
  const Trace trace = TraceGenerator{config}.generate();
  const NextAccessInfo oracle = compute_next_access(trace);
  const std::uint64_t n = trace.requests.size();
  for (const double m : {0.0, 1.0, 12.5, 99.99, 1'000.0, 31'337.7, 1e9}) {
    EXPECT_EQ(one_time_fraction(oracle, n, m),
              reference_one_time_fraction(oracle, n, m))
        << "m=" << m;
  }
}

TEST(Criteria, LirsAdjustmentShrinksM) {
  EXPECT_DOUBLE_EQ(lirs_criteria(100.0, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(lirs_criteria(40.0, 0.5), 20.0);
}

}  // namespace
}  // namespace otac
