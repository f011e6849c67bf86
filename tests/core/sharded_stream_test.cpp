// Pins for the sharded replay's request streams (core/sharded_cache.cpp).
//
// Each shard replays a packed stream of its own requests, and both replay
// loops prefetch ahead along that stream. None of this may change a single
// verdict, so the per-shard results below were captured from the replay
// that walked plain per-shard index lists, before streams or prefetching
// existed, and must keep holding:
//
//  - the ShardedFixture trace at shards {2, 3, 8} x {Original, Proposal}
//    x threads {1, 4};
//  - hand-built traces for the stream's edges: more shards than photos
//    (empty streams), retrain triggers on a shard's first and last
//    request, a one-request trace, and one-request epochs (every
//    lookahead runs past the epoch end, and near each stream's end past
//    the stream end).
//
// Each hand-built case also checks shards=1 against IntelligentCache::run,
// whose unsharded replay loop reads no streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <ostream>
#include <vector>

#include "core/sharded_cache.h"
#include "tests/core/sharded_fixture.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace otac {
namespace {

using test::ShardedFixture;

// The pinned slice of a RunResult: the cache counters, the eviction
// sequence, the retrain count and every per-day confusion matrix (folded
// into one FNV hash).
struct Pin {
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t evictions = 0;
  std::uint64_t eviction_hash = 0;
  int trainings = 0;
  std::uint64_t daily_hash = 0;

  friend bool operator==(const Pin&, const Pin&) = default;
  friend std::ostream& operator<<(std::ostream& out, const Pin& pin) {
    return out << "{" << pin.hits << "u, " << pin.insertions << "u, "
               << pin.rejected << "u, " << pin.evictions << "u, 0x"
               << std::hex << pin.eviction_hash << std::dec << "ULL, "
               << pin.trainings << ", 0x" << std::hex << pin.daily_hash
               << std::dec << "ULL}";
  }
};

Pin pin_of(const RunResult& result) {
  std::uint64_t daily = kFnvOffset;
  fnv64(daily, result.daily.size());
  for (const DayClassifierMetrics& day : result.daily) {
    fnv64(daily, static_cast<std::uint64_t>(day.day));
    for (const ml::ConfusionMatrix* m : {&day.raw, &day.corrected}) {
      fnv64(daily, m->tp);
      fnv64(daily, m->fp);
      fnv64(daily, m->tn);
      fnv64(daily, m->fn);
    }
  }
  const CacheStats& stats = result.stats;
  return Pin{stats.hits,          stats.insertions, stats.rejected,
             stats.evictions,     stats.eviction_hash, result.trainings,
             daily};
}

struct FixturePin {
  std::size_t shards;
  AdmissionMode mode;
  Pin pin;
};

constexpr FixturePin kFixturePins[] = {
    {2, AdmissionMode::original,
     {25213u, 22246u, 0u, 22062u, 0x6accfd17034928acULL, 0,
      0x47fe0d7eaf8e51e3ULL}},
    {3, AdmissionMode::original,
     {25242u, 22217u, 0u, 22029u, 0x88da5cbec05a61d1ULL, 0,
      0x47fe0d7eaf8e51e3ULL}},
    {8, AdmissionMode::original,
     {24882u, 22577u, 0u, 22386u, 0xb6f1dc198d6ee7adULL, 0,
      0x47fe0d7eaf8e51e3ULL}},
    {2, AdmissionMode::proposal,
     {27901u, 2304u, 17254u, 2134u, 0x7a255dcf1f0c9547ULL, 9,
      0x6a0d95b71ffa2378ULL}},
    {3, AdmissionMode::proposal,
     {27867u, 2260u, 17332u, 2079u, 0x72935baf5493e886ULL, 9,
      0x85024f27a0f8a124ULL}},
    {8, AdmissionMode::proposal,
     {27840u, 2294u, 17325u, 2122u, 0x3ecf9e9f02ff68d1ULL, 9,
      0x7035b7a9839cb31eULL}},
};

TEST_F(ShardedFixture, StreamReplayMatchesPinsAtEveryShardAndThreadCount) {
  const ShardedCache sharded{*system_};
  for (const FixturePin& expected : kFixturePins) {
    for (const std::size_t threads : {1, 4}) {
      RunConfig config =
          config_for(PolicyKind::lru, expected.mode, expected.shards);
      config.threads = threads;
      const RunResult result = sharded.run(config);
      EXPECT_EQ(pin_of(result), expected.pin)
          << "shards=" << expected.shards
          << " mode=" << admission_mode_name(expected.mode)
          << " threads=" << threads;
      EXPECT_EQ(result.stats.requests, trace_->requests.size());
      if (expected.mode == AdmissionMode::proposal) {
        EXPECT_GT(result.trainings, 0);
      }
    }
  }
}

// --- hand-built traces ------------------------------------------------------

// `times.size()` requests over `photos` photos (three owners, sizes 1-2 KB,
// mixed types and terminals). The photo sequence comes from a fixed LCG so
// that photos recur at varied distances.
Trace hand_trace(std::size_t photos, const std::vector<std::int64_t>& times) {
  Trace trace;
  for (std::uint32_t owner = 0; owner < 3; ++owner) {
    trace.catalog.add_owner(OwnerMeta{owner * 5, 1.0F, 1.0F, 0});
  }
  for (std::size_t p = 0; p < photos; ++p) {
    PhotoMeta meta;
    meta.owner = static_cast<UserId>(p % 3);
    meta.type = type_from_index(static_cast<int>(p % kPhotoTypeCount));
    meta.size_bytes = 1'000 + 97 * static_cast<std::uint32_t>(p % 11);
    trace.catalog.add_photo(meta);
  }
  std::uint64_t state = 12345;
  for (std::size_t r = 0; r < times.size(); ++r) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    Request request;
    request.time = SimTime{times[r]};
    request.photo = static_cast<PhotoId>((state >> 33) % photos);
    request.terminal = r % 3 == 0 ? TerminalType::mobile : TerminalType::pc;
    trace.requests.push_back(request);
  }
  return trace;
}

std::vector<std::int64_t> evenly_spaced(std::size_t count, std::int64_t start,
                                        std::int64_t step) {
  std::vector<std::int64_t> times;
  for (std::size_t r = 0; r < count; ++r) {
    times.push_back(start + static_cast<std::int64_t>(r) * step);
  }
  return times;
}

RunConfig hand_config(AdmissionMode mode, std::size_t shards,
                      std::uint64_t capacity) {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = capacity;
  config.mode = mode;
  config.shards = shards;
  config.threads = 2;
  return config;
}

// Runs `trace` at shards=1 (checked against IntelligentCache::run) and at
// `shards`, in both admission modes, and compares the latter to `pins`
// (Original first, then Proposal).
void expect_hand_pins(const Trace& trace, const RunConfig& base,
                      std::size_t shards, const Pin (&pins)[2]) {
  const IntelligentCache system{trace};
  const ShardedCache sharded{system};
  int slot = 0;
  for (const AdmissionMode mode :
       {AdmissionMode::original, AdmissionMode::proposal}) {
    RunConfig config = base;
    config.mode = mode;
    config.shards = 1;
    EXPECT_TRUE(sharded.run(config) == system.run(config))
        << "shards=1 mode=" << admission_mode_name(mode);
    config.shards = shards;
    const RunResult result = sharded.run(config);
    EXPECT_EQ(pin_of(result), pins[slot])
        << "shards=" << shards << " mode=" << admission_mode_name(mode);
    EXPECT_EQ(result.stats.requests, trace.requests.size());
    ++slot;
  }
}

TEST(ShardedStreamEdges, MoreShardsThanPhotosLeavesEmptyStreams) {
  // Three photos over eight shards: at least five streams are empty.
  const Trace trace = hand_trace(3, evenly_spaced(3'000, 0, 97));
  std::vector<bool> used(8, false);
  for (PhotoId p = 0; p < 3; ++p) used[shard_of_photo(p, 8)] = true;
  ASSERT_LE(std::count(used.begin(), used.end(), true), 3);
  constexpr Pin kPins[2] = {
      {2997u, 3u, 0u, 0u, 0x513a92255addd96dULL, 0,
       0x47fe0d7eaf8e51e3ULL},
      {2997u, 3u, 0u, 0u, 0x513a92255addd96dULL, 4,
       0x47fe0d7eaf8e51e3ULL}};
  expect_hand_pins(trace, hand_config(AdmissionMode::original, 8, 8 * 2'200),
                   8, kPins);
}

TEST(ShardedStreamEdges, RetrainTriggersOnAShardsFirstAndLastRequest) {
  // Day 0 06:00 starts the trace past the 05:00 retrain hour, so request 0
  // (its shard's first) is a trigger; the final request is the first one
  // past 05:00 on day 2, so the trace's last request (its shard's last) is
  // a trigger too.
  std::vector<std::int64_t> times =
      evenly_spaced(1'999, 6 * kSecondsPerHour, 83);
  ASSERT_LT(times.back(), 2 * kSecondsPerDay + 5 * kSecondsPerHour);
  times.push_back(2 * kSecondsPerDay + 5 * kSecondsPerHour);
  const Trace trace = hand_trace(40, times);
  const std::vector<std::uint64_t> triggers =
      retrain_trigger_indices(trace, OtaConfig{});
  ASSERT_GE(triggers.size(), 2u);
  EXPECT_EQ(triggers.front(), 0u);
  EXPECT_EQ(triggers.back(), trace.requests.size() - 1);
  constexpr Pin kPins[2] = {
      {544u, 1456u, 0u, 1445u, 0xe5d45994dcd7de43ULL, 0,
       0x47fe0d7eaf8e51e3ULL},
      {516u, 813u, 671u, 802u, 0x4fd0caa9ba7196f3ULL, 2,
       0x66a9916ea746b962ULL}};
  expect_hand_pins(trace, hand_config(AdmissionMode::original, 3, 3 * 6'000),
                   3, kPins);
}

TEST(ShardedStreamEdges, OneRequestTrace) {
  const Trace trace = hand_trace(1, {6 * kSecondsPerHour});
  ASSERT_EQ(retrain_trigger_indices(trace, OtaConfig{}),
            (std::vector<std::uint64_t>{0}));
  constexpr Pin kPins[2] = {
      {0u, 1u, 0u, 0u, 0x513a92255addd96dULL, 0,
       0x47fe0d7eaf8e51e3ULL},
      {0u, 1u, 0u, 0u, 0x513a92255addd96dULL, 0,
       0x47fe0d7eaf8e51e3ULL}};
  expect_hand_pins(trace, hand_config(AdmissionMode::original, 8, 8 * 2'200),
                   8, kPins);
}

TEST(ShardedStreamEdges, LookaheadPastEpochAndStreamEnd) {
  // A request every 15 minutes under a 15-minute retrain interval: every
  // request is a trigger, so every epoch holds one request and every
  // lookahead crosses the epoch end. Each stream holds ~100 entries, so
  // the last 64 of them look past the stream's end. The 24 h window still
  // holds 96 samples, so models are trained and served.
  const Trace trace = hand_trace(9, evenly_spaced(300, 0, 900));
  RunConfig base = hand_config(AdmissionMode::original, 3, 3 * 3'000);
  base.ota.retrain_interval_hours = 0.25;
  ASSERT_EQ(retrain_trigger_indices(trace, base.ota).size(),
            trace.requests.size());
  constexpr Pin kPins[2] = {
      {181u, 119u, 0u, 114u, 0x4cfc5df8d600091dULL, 0,
       0x47fe0d7eaf8e51e3ULL},
      {178u, 64u, 58u, 59u, 0xbc786b2424ac9311ULL, 250,
       0x5d8bce88bc9ac543ULL}};
  expect_hand_pins(trace, base, 3, kPins);
}

// --- barrier drain -----------------------------------------------------------

TEST(MergeTraceOrdered, EqualsConcatenateThenSort) {
  // Seeded property check: deal increasing, unique trace indices into k
  // buffers at random (some left empty), and compare the k-way merge with
  // the concatenate-and-sort drain it replaced.
  Rng rng{2024};
  for (int round = 0; round < 60; ++round) {
    const std::size_t k = 1 + rng.next_below(12);
    const std::size_t total = rng.next_below(400);
    std::vector<std::deque<TrainingSample>> buffers(k);
    std::uint64_t index = 0;
    for (std::size_t n = 0; n < total; ++n) {
      index += 1 + rng.next_below(5);
      TrainingSample sample;
      sample.index = index;
      sample.time = SimTime{static_cast<std::int64_t>(index * 3)};
      sample.features[0] = static_cast<float>(n);
      buffers[rng.next_below(k)].push_back(sample);
    }
    std::vector<const std::deque<TrainingSample>*> views;
    std::vector<TrainingSample> expected;
    for (const std::deque<TrainingSample>& buffer : buffers) {
      views.push_back(&buffer);
      expected.insert(expected.end(), buffer.begin(), buffer.end());
    }
    std::sort(expected.begin(), expected.end(),
              [](const TrainingSample& a, const TrainingSample& b) {
                return a.index < b.index;
              });
    const std::vector<TrainingSample> merged = merge_trace_ordered(views);
    ASSERT_EQ(merged.size(), expected.size()) << "round " << round;
    for (std::size_t n = 0; n < merged.size(); ++n) {
      ASSERT_EQ(merged[n].index, expected[n].index) << "round " << round;
      ASSERT_EQ(merged[n].time, expected[n].time);
      ASSERT_EQ(merged[n].features, expected[n].features);
    }
  }
  EXPECT_TRUE(merge_trace_ordered({}).empty());
}

}  // namespace
}  // namespace otac
