// Shared fixture for the sharded-replay suites: one generated trace
// (500 owners, 12k photos) and its unsharded system, built once per test
// suite, with an LRU-at-1.5% capacity that every shard count up to 32
// can split.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "core/sharded_cache.h"
#include "trace/trace_generator.h"

namespace otac::test {

class ShardedFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.num_owners = 500;
    config.num_photos = 12'000;
    trace_ = new Trace{TraceGenerator{config}.generate()};
    system_ = new IntelligentCache{*trace_};
    capacity_ =
        static_cast<std::uint64_t>(system_->total_object_bytes() * 0.015);
  }
  static void TearDownTestSuite() {
    delete system_;
    delete trace_;
    system_ = nullptr;
    trace_ = nullptr;
  }

  static RunConfig config_for(PolicyKind kind, AdmissionMode mode,
                              std::size_t shards) {
    RunConfig config;
    config.policy = kind;
    config.capacity_bytes = capacity_;
    config.mode = mode;
    config.shards = shards;
    return config;
  }

  inline static Trace* trace_ = nullptr;
  inline static IntelligentCache* system_ = nullptr;
  inline static std::uint64_t capacity_ = 0;
};

}  // namespace otac::test
