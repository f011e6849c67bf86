// Equivalence pins for the sharded serving layer (core/sharded_cache.h):
//
//  - shards=1 must be *bit-identical* to IntelligentCache::run — same
//    stats (including the eviction-sequence fingerprint), same criteria,
//    same daily confusion matrices, same training count, same degradation
//    counters — for every admission mode and for both retrain schedules.
//    RunResult's defaulted operator== makes that a one-line assertion with
//    no tolerance to hide behind.
//  - shards=N original-mode aggregates must equal the sum of N completely
//    independent single-shard simulations over the partitioned sub-traces,
//    which proves the shards really share nothing on the request path.
#include "core/sharded_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "cachesim/admission.h"
#include "cachesim/simulator.h"
#include "tests/core/sharded_fixture.h"
#include "util/failpoint.h"
#include "util/sim_time.h"

namespace otac {
namespace {

using test::ShardedFixture;

TEST(ShardOfPhoto, IsDeterministicInRangeAndRoughlyBalanced) {
  constexpr std::size_t kShards = 8;
  std::vector<std::size_t> counts(kShards, 0);
  for (PhotoId photo = 0; photo < 80'000; ++photo) {
    const std::size_t s = shard_of_photo(photo, kShards);
    ASSERT_LT(s, kShards);
    ASSERT_EQ(s, shard_of_photo(photo, kShards));  // pure function
    ++counts[s];
  }
  // Sequential ids must spread: each shard within ±20% of the mean.
  for (const std::size_t count : counts) {
    EXPECT_GT(count, 8'000u);
    EXPECT_LT(count, 12'000u);
  }
}

TEST(RetrainTriggers, MatchDailyAndIntervalSchedules) {
  // Hand-built trace: requests at 04:00 and 06:00 of days 0, 1, 2.
  Trace trace;
  trace.catalog.add_photo(PhotoMeta{});
  for (std::int64_t day = 0; day < 3; ++day) {
    for (const std::int64_t hour : {4, 6}) {
      Request request;
      request.time = SimTime{day * kSecondsPerDay + hour * kSecondsPerHour};
      request.photo = 0;
      trace.requests.push_back(request);
    }
  }

  OtaConfig daily;  // retrain_hour = 5, interval = 0
  // Day 0 06:00 fires (day 0 > "never"), then each later 06:00.
  EXPECT_EQ(retrain_trigger_indices(trace, daily),
            (std::vector<std::uint64_t>{1, 3, 5}));

  OtaConfig interval;
  interval.retrain_interval_hours = 24.0;
  // First request always fires (trainer cold start), then every >= 24h.
  EXPECT_EQ(retrain_trigger_indices(trace, interval),
            (std::vector<std::uint64_t>{0, 2, 4}));
}

TEST_F(ShardedFixture, RejectsDegenerateConfigs) {
  const ShardedCache sharded{*system_};
  RunConfig config = config_for(PolicyKind::lru, AdmissionMode::original, 0);
  EXPECT_THROW((void)sharded.run(config), std::invalid_argument);
  config.shards = 1;
  config.capacity_bytes = 0;
  EXPECT_THROW((void)sharded.run(config), std::invalid_argument);
  // So many shards that each gets zero bytes.
  config.capacity_bytes = 16;
  config.shards = 32;
  EXPECT_THROW((void)sharded.run(config), std::invalid_argument);
}

TEST_F(ShardedFixture, SingleShardBitIdenticalAcrossModes) {
  const ShardedCache sharded{*system_};
  for (const AdmissionMode mode :
       {AdmissionMode::original, AdmissionMode::bypass, AdmissionMode::ideal,
        AdmissionMode::proposal}) {
    const RunConfig config = config_for(PolicyKind::lru, mode, 1);
    const RunResult reference = system_->run(config);
    const RunResult mine = sharded.run(config);
    EXPECT_TRUE(mine == reference)
        << "mode=" << admission_mode_name(mode)
        << " hits " << mine.stats.hits << " vs " << reference.stats.hits
        << ", insertions " << mine.stats.insertions << " vs "
        << reference.stats.insertions << ", eviction_hash "
        << mine.stats.eviction_hash << " vs " << reference.stats.eviction_hash
        << ", trainings " << mine.trainings << " vs " << reference.trainings;
    if (mode == AdmissionMode::proposal) {
      // The interesting machinery actually engaged.
      EXPECT_GT(mine.trainings, 0);
      EXPECT_FALSE(mine.daily.empty());
      EXPECT_GT(mine.stats.evictions, 0u);
    }
  }
}

TEST_F(ShardedFixture, SingleShardBitIdenticalForLirsProposal) {
  // LIRS exercises the criteria rescaling path (M shrinks by the LIR share).
  const ShardedCache sharded{*system_};
  const RunConfig config =
      config_for(PolicyKind::lirs, AdmissionMode::proposal, 1);
  EXPECT_TRUE(sharded.run(config) == system_->run(config));
}

TEST_F(ShardedFixture, SingleShardBitIdenticalForIntervalRetrain) {
  const ShardedCache sharded{*system_};
  RunConfig config = config_for(PolicyKind::lru, AdmissionMode::proposal, 1);
  config.ota.retrain_interval_hours = 6.0;
  const RunResult reference = system_->run(config);
  const RunResult mine = sharded.run(config);
  EXPECT_TRUE(mine == reference);
  EXPECT_GT(mine.trainings, 0);
}

TEST_F(ShardedFixture, ShardedOriginalEqualsSumOfIndependentShardRuns) {
  constexpr std::size_t kShards = 3;
  const ShardedCache sharded{*system_};
  const RunResult merged =
      sharded.run(config_for(PolicyKind::lru, AdmissionMode::original,
                             kShards));

  // N fully independent simulations over the partitioned sub-traces, each
  // with its slice of the capacity — no shared anything.
  CacheStats sum;
  bool first = true;
  for (std::size_t s = 0; s < kShards; ++s) {
    Trace sub;
    sub.catalog = trace_->catalog;
    for (const Request& request : trace_->requests) {
      if (shard_of_photo(request.photo, kShards) == s) {
        sub.requests.push_back(request);
      }
    }
    const auto policy = make_policy(PolicyKind::lru, capacity_ / kShards);
    AlwaysAdmit admission;
    const CacheStats stats = Simulator{sub}.run(*policy, admission);
    if (first) {
      sum = stats;
      first = false;
    } else {
      sum.merge(stats);
    }
  }
  EXPECT_TRUE(merged.stats == sum)
      << "hits " << merged.stats.hits << " vs " << sum.hits
      << ", evictions " << merged.stats.evictions << " vs " << sum.evictions;
  // Sanity: the partition actually split the load.
  EXPECT_EQ(merged.stats.requests, trace_->requests.size());
}

TEST_F(ShardedFixture, ShardedProposalAggregatesStayCoherent) {
  const ShardedCache sharded{*system_};
  const RunResult merged =
      sharded.run(config_for(PolicyKind::lru, AdmissionMode::proposal, 4));
  EXPECT_EQ(merged.stats.requests, trace_->requests.size());
  EXPECT_EQ(merged.stats.hits + merged.stats.insertions +
                merged.stats.rejected,
            merged.stats.requests);
  EXPECT_GT(merged.trainings, 0);
  EXPECT_FALSE(merged.daily.empty());
  // Criteria are global — identical to the unsharded computation.
  const RunResult reference =
      system_->run(config_for(PolicyKind::lru, AdmissionMode::proposal, 1));
  EXPECT_TRUE(merged.criteria == reference.criteria);
  EXPECT_EQ(merged.cost_v, reference.cost_v);
}

TEST(DegradationCountersMerge, SumsEveryField) {
  // Distinct values per field so a merge that drops or cross-wires any
  // single counter is caught; total() must cover the same set.
  DegradationCounters a;
  a.retrain_failures = 1;
  a.rejected_models = 2;
  a.nonfinite_feature_requests = 3;
  a.predict_failures = 5;
  a.retrain_retries = 7;
  a.retrain_timeouts = 11;
  a.degraded_admits = 13;
  a.shed_requests = 17;
  a.overload_transitions = 19;
  a.ssd_write_retries = 23;
  a.ssd_write_drops = 29;
  DegradationCounters b;
  b.retrain_failures = 100;
  b.rejected_models = 200;
  b.nonfinite_feature_requests = 300;
  b.predict_failures = 500;
  b.retrain_retries = 700;
  b.retrain_timeouts = 1'100;
  b.degraded_admits = 1'300;
  b.shed_requests = 1'700;
  b.overload_transitions = 1'900;
  b.ssd_write_retries = 2'300;
  b.ssd_write_drops = 2'900;

  DegradationCounters merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.retrain_failures, 101u);
  EXPECT_EQ(merged.rejected_models, 202u);
  EXPECT_EQ(merged.nonfinite_feature_requests, 303u);
  EXPECT_EQ(merged.predict_failures, 505u);
  EXPECT_EQ(merged.retrain_retries, 707u);
  EXPECT_EQ(merged.retrain_timeouts, 1'111u);
  EXPECT_EQ(merged.degraded_admits, 1'313u);
  EXPECT_EQ(merged.shed_requests, 1'717u);
  EXPECT_EQ(merged.overload_transitions, 1'919u);
  EXPECT_EQ(merged.ssd_write_retries, 2'323u);
  EXPECT_EQ(merged.ssd_write_drops, 2'929u);
  EXPECT_EQ(merged.total(), a.total() + b.total());
}

#if defined(OTAC_FAILPOINTS_ENABLED) && OTAC_FAILPOINTS_ENABLED

TEST_F(ShardedFixture, DegradationSumEquivalentAcrossShardCountsUnderFaults) {
  // Retrain failures are injected at alternating barriers. The retrain
  // schedule is a global property of the trace, so the merged degradation
  // counters — trainer-side failures plus the per-shard serving counters
  // folded by DegradationCounters::merge — must be bit-identical between
  // shards=1 and shards=4.
  const ShardedCache sharded{*system_};
  const RunConfig config1 =
      config_for(PolicyKind::lru, AdmissionMode::proposal, 1);

  fail::Registry::instance().enable_every_nth("trainer.train.fail", 2);
  const RunResult one = sharded.run(config1);
  // Re-arm to reset the evaluation counter for the second run.
  fail::Registry::instance().enable_every_nth("trainer.train.fail", 2);
  const RunResult four =
      sharded.run(config_for(PolicyKind::lru, AdmissionMode::proposal, 4));
  fail::Registry::instance().disable_all();

  const std::size_t triggers =
      retrain_trigger_indices(*trace_, config1.ota).size();
  ASSERT_GE(triggers, 2u);
  EXPECT_EQ(one.degradation.retrain_failures, triggers / 2);
  EXPECT_GT(one.degradation.total(), 0u);
  EXPECT_TRUE(four.degradation == one.degradation)
      << "retrain_failures " << four.degradation.retrain_failures << " vs "
      << one.degradation.retrain_failures << ", total "
      << four.degradation.total() << " vs " << one.degradation.total();
  // The surviving barriers still published models on both runs.
  EXPECT_EQ(four.trainings, one.trainings);
  EXPECT_GT(one.trainings, 0);
}

#endif  // OTAC_FAILPOINTS_ENABLED

}  // namespace
}  // namespace otac
