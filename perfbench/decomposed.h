// Decomposed replay: the unsharded IntelligentCache replay rebuilt from its
// public parts (Simulator, make_policy, ClassifierSystem) with two timing
// decorators, so a traced run can split one replay's wall time into
// policy access/insert, admission classify, admission observe and retrain.
//
// Spans are per request, so they are aggregated (count + summed duration)
// rather than stored, and reported net of a calibrated empty-span cost.
#pragma once

#include <cstdint>

#include "core/intelligent_cache.h"

namespace otac::perfbench {

/// Aggregated span: how many calls and their summed wall time.
struct SpanTotal {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

struct DecomposedReplay {
  RunResult result;  ///< simulation outputs, comparable to IntelligentCache
  double wall_s = 0.0;  ///< Simulator::run wall time, decorators included
  /// Wall time of the same Simulator::run with the same parts, undecorated:
  /// the base of the tracing overhead.
  double bare_wall_s = 0.0;
  SpanTotal access;     ///< CachePolicy::access
  SpanTotal insert;     ///< CachePolicy::insert (evictions included)
  SpanTotal admit;      ///< ClassifierSystem::admit (features + CART + history)
  SpanTotal observe;    ///< ClassifierSystem::observe without a retrain
  SpanTotal retrain;    ///< observe calls during which a retrain ran
  /// Calibrated empty span: the clock time that lands inside a span's own
  /// interval, and the whole per-span cost (both clock reads and the
  /// bookkeeping), part of which lands between spans.
  double empty_span_s = 0.0;
  double span_cost_s = 0.0;

  [[nodiscard]] std::uint64_t spans() const noexcept {
    return access.count + insert.count + admit.count + observe.count +
           retrain.count;
  }
  /// Span time net of the calibrated clock cost inside each span.
  [[nodiscard]] double net_seconds(const SpanTotal& span) const noexcept {
    return span.seconds - static_cast<double>(span.count) * empty_span_s;
  }
  /// Wall time no span accounts for: the simulator's own loop, net of the
  /// whole calibrated cost of every span.
  [[nodiscard]] double unattributed_seconds() const noexcept {
    return wall_s - net_seconds(access) - net_seconds(insert) -
           net_seconds(admit) - net_seconds(observe) - net_seconds(retrain) -
           static_cast<double>(spans()) * span_cost_s;
  }
};

/// Replays `config` (policy, capacity, mode original or proposal) through
/// the decorated path, after one undecorated replay that times the bare
/// loop. `reference` is IntelligentCache::run's result for the
/// same config; its criteria, cost v and mean latency are carried over so
/// the returned result is comparable field by field.
[[nodiscard]] DecomposedReplay decomposed_replay(const IntelligentCache& system,
                                                 const RunConfig& config,
                                                 const RunResult& reference);

}  // namespace otac::perfbench
