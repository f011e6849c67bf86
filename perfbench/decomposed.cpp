#include "decomposed.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "cachesim/admission.h"
#include "cachesim/simulator.h"
#include "core/classifier_system.h"
#include "core/run_metrics.h"
#include "measure.h"
#include "storage/latency_model.h"

namespace otac::perfbench {

namespace {

/// Times one call into `total` (steady clock, both ends inside the span).
template <typename Fn>
auto timed(SpanTotal& total, Fn&& fn) {
  const auto start = Clock::now();
  auto out = fn();
  total.seconds += std::chrono::duration<double>(Clock::now() - start).count();
  ++total.count;
  return out;
}

/// CachePolicy decorator: times access/insert and forwards the wrapped
/// policy's evictions to whoever observes this one (the Simulator).
class TimedPolicy final : public CachePolicy {
 public:
  TimedPolicy(std::unique_ptr<CachePolicy> inner, DecomposedReplay& out)
      : CachePolicy(inner->capacity_bytes()), inner_(std::move(inner)),
        out_(&out) {
    inner_->set_eviction_callback(
        [this](PhotoId key, std::uint32_t size) { notify_evict(key, size); });
  }

  bool access(PhotoId key, std::uint32_t size_bytes) override {
    return timed(out_->access,
                 [&] { return inner_->access(key, size_bytes); });
  }
  bool insert(PhotoId key, std::uint32_t size_bytes) override {
    return timed(out_->insert,
                 [&] { return inner_->insert(key, size_bytes); });
  }
  [[nodiscard]] bool contains(PhotoId key) const override {
    return inner_->contains(key);
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_->used_bytes();
  }
  [[nodiscard]] std::size_t object_count() const override {
    return inner_->object_count();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void set_next_access_hint(std::uint64_t next_index) override {
    inner_->set_next_access_hint(next_index);
  }

 private:
  std::unique_ptr<CachePolicy> inner_;
  DecomposedReplay* out_;
};

/// AdmissionPolicy decorator around the paper's classifier: times admit and
/// observe; an observe during which a retrain ran (trainings() or
/// retrain_failures advanced) is booked as a retrain span instead.
class TimedClassifier final : public AdmissionPolicy {
 public:
  TimedClassifier(ClassifierSystem& inner, DecomposedReplay& out)
      : inner_(&inner), out_(&out) {}

  bool admit(std::uint64_t index, const Request& request,
             const PhotoMeta& photo) override {
    return timed(out_->admit,
                 [&] { return inner_->admit(index, request, photo); });
  }
  void observe(std::uint64_t index, const Request& request,
               const PhotoMeta& photo, bool hit) override {
    const int trainings = inner_->trainings();
    const std::uint64_t failures = inner_->degradation().retrain_failures;
    const auto start = Clock::now();
    inner_->observe(index, request, photo, hit);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const bool retrained = inner_->trainings() != trainings ||
                           inner_->degradation().retrain_failures != failures;
    SpanTotal& span = retrained ? out_->retrain : out_->observe;
    span.seconds += seconds;
    ++span.count;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  ClassifierSystem* inner_;
  DecomposedReplay* out_;
};

/// Times `iterations` empty spans: fills `empty_span_s` (mean recorded
/// duration) and `span_cost_s` (loop wall per span).
void calibrate_empty_span(DecomposedReplay& out, std::uint64_t iterations) {
  SpanTotal total;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    (void)timed(total, [] { return 0; });
  }
  const auto n = static_cast<double>(iterations);
  out.span_cost_s = seconds_since(start) / n;
  out.empty_span_s = total.seconds / n;
}

/// One unsharded replay of `config` through Simulator::run into `result`.
/// With `spans`, the policy and the classifier run inside the timing
/// decorators that fill it; without, the same parts run bare. Returns
/// Simulator::run's wall time.
double replay(const IntelligentCache& system, const RunConfig& config,
              const RunResult& reference, RunResult& result,
              DecomposedReplay* spans) {
  const Trace& trace = system.trace();
  std::unique_ptr<CachePolicy> policy = make_policy(
      config.policy, config.capacity_bytes, config.lirs_lir_fraction);
  if (spans != nullptr) {
    policy = std::make_unique<TimedPolicy>(std::move(policy), *spans);
  }
  Simulator sim{trace};
  sim.set_oracle(system.oracle());

  // Same per-request latency recording as IntelligentCache::run, so the
  // loop does the same work (plus the spans when decorated).
  const bool proposal = config.mode == AdmissionMode::proposal;
  const LatencyModel latency{config.latency};
  obs::MetricsRegistry registry;
  obs::LatencyRecorder recorder{
      registry.histogram(kLatencyHistogramName,
                         LatencyModel::histogram_bounds_us()),
      latency.request_latency_us(true, proposal),
      latency.request_latency_us(false, proposal)};
  sim.set_latency_recorder(&recorder);

  result.criteria = reference.criteria;
  result.cost_v = reference.cost_v;
  result.mean_latency_us = reference.mean_latency_us;

  if (!proposal) {
    AlwaysAdmit admission;
    const auto start = Clock::now();
    result.stats = sim.run(*policy, admission);
    return seconds_since(start);
  }
  ClassifierSystemConfig cs;
  cs.ota = config.ota;
  cs.m = reference.criteria.m;
  cs.h = reference.criteria.h;
  cs.p = reference.criteria.p;
  cs.cost_v = reference.cost_v;
  ClassifierSystem classifier{trace, system.oracle(), cs};
  classifier.bind_metrics(registry);
  std::unique_ptr<TimedClassifier> timed_classifier;
  AdmissionPolicy* admission = &classifier;
  if (spans != nullptr) {
    timed_classifier = std::make_unique<TimedClassifier>(classifier, *spans);
    admission = timed_classifier.get();
  }
  result.history_capacity = classifier.history().capacity();
  const auto start = Clock::now();
  result.stats = sim.run(*policy, *admission);
  const double wall = seconds_since(start);
  result.daily = classifier.daily_metrics();
  result.trainings = classifier.trainings();
  result.degradation = classifier.degradation();
  return wall;
}

}  // namespace

DecomposedReplay decomposed_replay(const IntelligentCache& system,
                                   const RunConfig& config,
                                   const RunResult& reference) {
  if (config.mode != AdmissionMode::original &&
      config.mode != AdmissionMode::proposal) {
    throw std::invalid_argument("decomposed_replay: original or proposal");
  }
  DecomposedReplay out;
  calibrate_empty_span(out, 2'000'000);
  RunResult bare;
  out.bare_wall_s = replay(system, config, reference, bare, nullptr);
  out.wall_s = replay(system, config, reference, out.result, &out);
  return out;
}

}  // namespace otac::perfbench
