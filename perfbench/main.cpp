// otacache benchmark binary: three workloads, run as
//
//   otac_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// the clock around public calls; --trace 1 is the separate traced run that
// splits the same work into per-layer numbers. Every run checks its outputs
// and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A failed output check still prints that line (correct: false) and exits 1.
//
// Workloads and reps run strictly one after another; timings are medians.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client.h"
#include "core/intelligent_cache.h"
#include "core/ota_criteria.h"
#include "core/run_metrics.h"
#include "core/sharded_cache.h"
#include "decomposed.h"
#include "experiments/workloads.h"
#include "measure.h"
#include "net/daemon.h"
#include "trace/next_access.h"
#include "trace/trace_generator.h"
#include "trace/trace_stats.h"

namespace otac::perfbench {
namespace {

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

// The build settings stamped into the fingerprint, read from the same
// definitions the library is compiled with (CMakeLists.txt).
constexpr int kFailpointsBuild = OTAC_FAILPOINTS_ENABLED;
#ifdef OTAC_OBS_OFF
constexpr int kObsBuild = 0;
#else
constexpr int kObsBuild = 1;
#endif

/// Capacity as a share of the dataset's bytes: the paper's small-cache
/// regime (cost v = 2).
constexpr double kCapacityFraction = 0.02;

struct Workload {
  std::string name;
  double scale = 1.0;  ///< bench_workload_config scale
  AdmissionMode mode = AdmissionMode::proposal;
  std::size_t shards = 1;
  std::size_t threads = 1;
  bool daemon = false;
  int setups = 3;  ///< set-ups timed per run (median reported)
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Two replay workers, not four: on a shared 4-vCPU host with 8-24%
      // hypervisor steal, four workers (every vCPU) spread 13-28% run to
      // run against 9-13% for two, and the spread has to stay in its bound.
      {"photo_proposal", 4.0, AdmissionMode::proposal, 8, 2, false, 3},
      {"photo_original", 4.0, AdmissionMode::original, 8, 2, false, 3},
      // Scale 1.0, not 0.25: the byte write rate's spread across ten seeds
      // is 23% at 0.25, 15-18% at 0.5 and 8% at 1.0, and it has to stay
      // within its bound.
      {"daemon_loopback", 1.0, AdmissionMode::proposal, 2, 2, true, 5},
  };
  return all;
}

/// Fixed offered rate of the daemon's latency pass (requests per second).
constexpr double kDaemonOfferedRps = 20000.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

// --- set-up ------------------------------------------------------------------

/// Everything before the first replay: trace, next-access oracle and trace
/// stats (IntelligentCache), LRU hit-rate estimate h, criteria fixpoint.
struct Setup {
  std::unique_ptr<Trace> trace;
  std::unique_ptr<IntelligentCache> system;
  std::uint64_t capacity = 0;
  double h = 0.0;
  CriteriaResult criteria;
  double seconds = 0.0;
};

/// Per-call spans of a traced set-up. next_access and stats are timed as
/// standalone calls after the IntelligentCache constructor (which runs both
/// internally), so they break down `system`, not add to the total.
struct SetupSpans {
  double generate = 0.0;
  double system = 0.0;
  double next_access = 0.0;
  double stats = 0.0;
  double estimate_h = 0.0;
  double fixpoint = 0.0;
};

Setup build_setup(const Workload& workload, std::uint64_t seed,
                  SetupSpans* spans) {
  Setup setup;
  const int iterations = OtaConfig{}.criteria_iterations;
  const auto start = Clock::now();
  auto mark = Clock::now();
  const auto lap = [&mark] {
    const double s = seconds_since(mark);
    mark = Clock::now();
    return s;
  };
  setup.trace = std::make_unique<Trace>(
      TraceGenerator{bench_workload_config(workload.scale, seed)}.generate());
  const double generate_s = lap();
  setup.system = std::make_unique<IntelligentCache>(*setup.trace);
  const double system_s = lap();
  setup.capacity = static_cast<std::uint64_t>(
      setup.system->total_object_bytes() * kCapacityFraction);
  setup.h = setup.system->estimate_hit_rate(setup.capacity);
  const double estimate_s = lap();
  setup.criteria = compute_criteria(*setup.trace, setup.system->oracle(),
                                    setup.capacity, setup.h, iterations);
  const double fixpoint_s = lap();
  setup.seconds = seconds_since(start);
  if (spans != nullptr) {
    spans->generate = generate_s;
    spans->system = system_s;
    spans->estimate_h = estimate_s;
    spans->fixpoint = fixpoint_s;
    mark = Clock::now();
    (void)compute_next_access(*setup.trace);
    spans->next_access = lap();
    (void)compute_trace_stats(*setup.trace);
    spans->stats = lap();
  }
  return setup;
}

RunConfig run_config(const Workload& workload, const Setup& setup) {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.capacity_bytes = setup.capacity;
  config.mode = workload.mode;
  config.hit_rate_estimate = setup.h;
  config.shards = workload.shards;
  config.threads = workload.threads;
  return config;
}

// --- result accounting -------------------------------------------------------

/// Attempted/failed operations and output checks, accumulated over a run.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

/// Requests a replay failed or degraded: shed, write-dropped, or served by
/// the fallback after a failed prediction.
std::uint64_t failed_requests(const RunResult& result) {
  return result.degradation.shed_requests +
         result.degradation.ssd_write_drops +
         result.degradation.predict_failures;
}

/// One replay folded into the outcome: identical to `reference` or every
/// request of it counts as failed.
void account_replay(Outcome& outcome, const RunResult& result,
                    const RunResult& reference, const std::string& what) {
  outcome.attempted += result.stats.requests;
  const bool same = result == reference;
  outcome.check(same, what + " differs from the first replay");
  outcome.failed += same ? failed_requests(result) : result.stats.requests;
}

void check_replay_shape(Outcome& outcome, const Workload& workload,
                        const Trace& trace, const RunResult& result) {
  const CacheStats& s = result.stats;
  outcome.check(s.requests == trace.requests.size(),
                "replay did not serve every request");
  outcome.check(s.hits + s.insertions + s.rejected <= s.requests,
                "hits + insertions + rejected exceed requests");
  if (workload.mode == AdmissionMode::proposal) {
    outcome.check(result.trainings > 0, "proposal replay never trained");
  } else {
    outcome.check(result.trainings == 0 && s.rejected == 0,
                  "original replay rejected a miss");
  }
}

void print_replay_summary(const char* label, const RunResult& result) {
  const CacheStats& s = result.stats;
  std::printf(
      "%s: requests=%llu hits=%llu insertions=%llu rejected=%llu "
      "evictions=%llu trainings=%d eviction_hash=%016llx\n"
      "  file_hit_rate=%.4f byte_write_rate=%.4f "
      "refused_inserts(requests-hits-insertions-rejected)=%llu\n",
      label, static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.insertions),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.evictions), result.trainings,
      static_cast<unsigned long long>(s.eviction_hash), s.file_hit_rate(),
      s.byte_write_rate(),
      static_cast<unsigned long long>(s.requests - s.hits - s.insertions -
                                      s.rejected));
}

void print_spread(const char* label, const std::vector<double>& values,
                  const char* unit) {
  const Quartiles q = quartiles(values);
  std::printf("%s: median %.6g %s, quartiles [%.6g, %.6g], n=%zu\n", label,
              q.median, unit, q.q1, q.q3, q.n);
}

/// Wall and process CPU seconds of each repetition.
struct Reps {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// Times `body` until `budget_s` has passed (at least `min_reps` times).
template <typename Body>
Reps timed_reps(double budget_s, int min_reps, Body&& body) {
  Reps reps;
  const auto start = Clock::now();
  while (static_cast<int>(reps.wall_s.size()) < min_reps ||
         seconds_since(start) < budget_s) {
    const auto rep_start = Clock::now();
    const double cpu_start = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    body();
    reps.cpu_s.push_back(cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start);
    reps.wall_s.push_back(seconds_since(rep_start));
  }
  return reps;
}

Setup timed_setups(const Workload& workload, std::uint64_t seed,
                   std::vector<double>& seconds) {
  // Each set-up is destroyed before the next so peak memory stays that of
  // one; the last one is kept for the replays.
  Setup setup;
  for (int i = 0; i < workload.setups; ++i) {
    setup = Setup{};
    setup = build_setup(workload, seed, nullptr);
    seconds.push_back(setup.seconds);
  }
  return setup;
}

// --- daemon passes -----------------------------------------------------------

struct DaemonPass {
  ClientResult client;
  RunResult server;
  net::DaemonWireStats wire;
  double server_cpu_s = 0.0;  ///< process CPU minus the client's threads
};

DaemonPass daemon_pass(const IntelligentCache& system, const RunConfig& config,
                       double offered_rps) {
  net::DaemonConfig daemon_config;
  daemon_config.run = config;
  net::Daemon daemon{system, daemon_config};  // the destructor stops it
  daemon.start();
  DaemonPass pass;
  ClientConfig client_config;
  client_config.port = daemon.port();
  client_config.offered_rps = offered_rps;
  const double cpu_start = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  pass.client = run_open_loop(system.trace(), client_config);
  pass.server_cpu_s =
      cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu_start - pass.client.cpu_s;
  daemon.stop();
  pass.server = daemon.result();
  pass.wire = daemon.wire_stats();
  return pass;
}

/// Output checks and failure accounting of one daemon pass: the server's
/// result must equal the in-process replay of the same RunConfig.
void account_daemon_pass(Outcome& outcome, const DaemonPass& pass,
                         const RunResult& reference, const char* label) {
  const ClientResult& c = pass.client;
  const std::string name = label;
  outcome.attempted += c.latency_us.size();
  outcome.failed += c.missing() + c.errors + c.retries + c.shed;
  outcome.check(c.errors == 0, name + ": client error: " + c.error_text);
  outcome.check(c.duplicates == 0, name + ": duplicate replies");
  outcome.check(c.missing() == 0, name + ": GETs without a reply");
  outcome.check(pass.server == reference,
                name + ": server result differs from ShardedCache::run");
  outcome.check(c.got_summary &&
                    c.server.eviction_hash == reference.stats.eviction_hash &&
                    c.server.hits == reference.stats.hits,
                name + ": STATS summary differs from ShardedCache::run");
  outcome.check(c.hits == reference.stats.hits,
                name + ": client-side hit count differs");
}

std::vector<double> replied_latencies(const ClientResult& client) {
  std::vector<double> latencies;
  latencies.reserve(client.latency_us.size());
  for (const double us : client.latency_us) {
    if (us >= 0.0) latencies.push_back(us);
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

/// Latency of the fixed-rate pass from due time: median and tail.
struct PassLatency {
  double p50_us = 0.0;
  Tail tail;
  double lag_p99_us = 0.0;
};

PassLatency print_fixed_rate_pass(const DaemonPass& pass) {
  const std::vector<double> latencies = replied_latencies(pass.client);
  std::vector<double> lag = pass.client.lag_us;
  std::sort(lag.begin(), lag.end());
  PassLatency out;
  out.p50_us = sorted_quantile(latencies, 0.5);
  out.tail = tail_of(latencies);
  out.lag_p99_us = sorted_quantile(lag, 0.99);
  std::printf(
      "fixed-rate pass: offered %.0f rps, %zu GET spans (due -> reply), "
      "p50 %.1f us, tail p%g %.1f us (%zu samples beyond), max %.1f us, "
      "sender lag p99 %.1f us\n",
      kDaemonOfferedRps, latencies.size(), out.p50_us, out.tail.percentile,
      out.tail.value, out.tail.beyond,
      latencies.empty() ? 0.0 : latencies.back(), out.lag_p99_us);
  return out;
}

// --- obs export readers ------------------------------------------------------

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      std::string_view name) {
  const auto it = snap.counters.find(std::string{name});
  return it == snap.counters.end() ? 0 : it->second;
}

double histogram_sum(const obs::MetricsSnapshot& snap, std::string_view name) {
  const auto it = snap.histograms.find(std::string{name});
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

double histogram_mean(const obs::MetricsSnapshot& snap,
                      std::string_view name) {
  const auto it = snap.histograms.find(std::string{name});
  if (it == snap.histograms.end() || it->second.count() == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- untraced run ------------------------------------------------------------

std::map<std::string, Metric> untraced_run(const Workload& workload,
                                           const Args& args,
                                           Outcome& outcome) {
  std::vector<double> setup_s;
  const Setup setup = timed_setups(workload, args.seed, setup_s);
  const Trace& trace = *setup.trace;
  print_spread("setup", setup_s, "s");

  const RunConfig config = run_config(workload, setup);
  const ShardedCache sharded{*setup.system};
  const double requests = static_cast<double>(trace.requests.size());

  // Warm-up replay: the reference every later replay must reproduce.
  const RunResult reference = sharded.run(config);
  check_replay_shape(outcome, workload, trace, reference);
  account_replay(outcome, reference, reference, "warm-up replay");
  print_replay_summary("replay", reference);

  // Photo workloads spend the whole budget on replays; the daemon workload
  // gives the in-process replay a slice and the rest to unpaced wire passes.
  const auto budget_start = Clock::now();
  const double replay_budget =
      workload.daemon ? std::min(3.0, args.seconds / 5.0) : args.seconds;
  const Reps reps = timed_reps(replay_budget, 3, [&] {
    account_replay(outcome, sharded.run(config), reference, "replay");
  });
  std::vector<double> rps;
  for (const double wall : reps.wall_s) rps.push_back(requests / wall);
  print_spread("ShardedCache::run wall throughput", rps, "1/s");
  std::vector<double> cpu_ns;
  for (const double cpu : reps.cpu_s) cpu_ns.push_back(cpu * 1e9 / requests);
  print_spread("ShardedCache::run CPU per request", cpu_ns, "ns");

  std::map<std::string, Metric> metrics;
  metrics["setup_s"] = {quartiles(setup_s).median, "s"};
  metrics["file_hit_rate"] = {reference.stats.file_hit_rate(), "ratio"};
  metrics["byte_write_rate"] = {reference.stats.byte_write_rate(), "ratio"};

  if (workload.daemon) {
    // Server CPU per GET: process CPU over the client connection minus the
    // client's own two threads.
    std::vector<double> wire_rps;
    cpu_ns.clear();
    const double remaining = args.seconds - seconds_since(budget_start);
    (void)timed_reps(remaining, 3, [&] {
      const DaemonPass pass = daemon_pass(*setup.system, config, 0.0);
      account_daemon_pass(outcome, pass, reference, "unpaced pass");
      wire_rps.push_back(
          ratio(static_cast<double>(pass.client.replies), pass.client.wall_s));
      cpu_ns.push_back(pass.server_cpu_s * 1e9 / requests);
    });
    print_spread("daemon wire throughput (unpaced)", wire_rps, "1/s");
    print_spread("daemon server CPU per request", cpu_ns, "ns");
  }
  metrics["cpu_ns_per_request"] = {quartiles(cpu_ns).median, "ns"};

  metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  metrics["ok_frac"] = {
      1.0 - ratio(static_cast<double>(outcome.failed),
                  static_cast<double>(outcome.attempted)),
      "ratio"};
  return metrics;
}

// --- traced run --------------------------------------------------------------

std::map<std::string, Metric> traced_run(const Workload& workload,
                                         const Args& args, Outcome& outcome) {
  SetupSpans spans;
  const Setup setup = build_setup(workload, args.seed, &spans);
  const Trace& trace = *setup.trace;
  const double setup_spanned = spans.generate + spans.system +
                               spans.estimate_h + spans.fixpoint;
  std::printf(
      "setup %.3f s = generate %.3f + IntelligentCache %.3f (next_access "
      "%.3f + trace_stats %.3f when called alone) + estimate_h %.3f + "
      "criteria fixpoint %.3f + unattributed %.4f\n",
      setup.seconds, spans.generate, spans.system, spans.next_access,
      spans.stats, spans.estimate_h, spans.fixpoint,
      setup.seconds - setup_spanned);

  // Sharded replay: one span per ShardedCache::run carrying the program's
  // own exported counts; the median-wall rep of three is reported.
  const RunConfig config = run_config(workload, setup);
  const ShardedCache sharded{*setup.system};
  const RunResult reference = sharded.run(config);
  check_replay_shape(outcome, workload, trace, reference);
  account_replay(outcome, reference, reference, "warm-up replay");
  print_replay_summary("replay", reference);
  std::vector<std::pair<double, RunResult>> reps;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    RunResult result = sharded.run(config);
    reps.emplace_back(seconds_since(start), std::move(result));
    account_replay(outcome, reps.back().second, reference, "replay");
  }
  std::sort(reps.begin(), reps.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const double replay_wall = reps[1].first;
  const obs::RunReport& report = reps[1].second.obs;
  const obs::MetricsSnapshot& merged = report.merged;
  const double fit_s = histogram_sum(merged, kFitHistogramName);
  const std::size_t barriers =
      workload.mode == AdmissionMode::proposal
          ? retrain_trigger_indices(trace, config.ota).size()
          : 0;
  std::printf("ShardedCache::run %.4f s = fit %.4f + serve %.4f "
              "(%zu barriers); per-barrier fit:",
              replay_wall, fit_s, replay_wall - fit_s, barriers);
  double previous_fit = 0.0;
  for (const obs::BarrierSample& sample : report.timeline) {
    const double cumulative =
        histogram_sum(sample.merged, kFitHistogramName);
    std::printf(" %.4f", cumulative - previous_fit);
    previous_fit = cumulative;
  }
  std::printf("\n");

  // Decomposed unsharded replay, checked against IntelligentCache::run; its
  // tracing overhead is taken against the same Simulator::run undecorated.
  RunConfig flat = config;
  flat.shards = 1;
  flat.threads = 1;
  const RunResult untraced = setup.system->run(flat);
  const DecomposedReplay dec = decomposed_replay(*setup.system, flat, untraced);
  outcome.attempted += 2 * dec.result.stats.requests;
  const bool same = dec.result == untraced;
  outcome.check(same, "decomposed replay differs from IntelligentCache::run");
  if (!same) outcome.failed += dec.result.stats.requests;
  const double span_cost = static_cast<double>(dec.spans()) * dec.span_cost_s;
  const double unattributed = dec.unattributed_seconds();
  const double trace_overhead = dec.wall_s / dec.bare_wall_s - 1.0;
  std::printf(
      "decomposed replay %.4f s (undecorated Simulator::run %.4f s) = "
      "access %.4f + insert %.4f + admit %.4f + observe %.4f + retrain %.4f "
      "+ span cost %.4f (%llu spans x %.1f ns, %.1f ns inside) + "
      "unattributed %.4f; trace overhead %.3f\n",
      dec.wall_s, dec.bare_wall_s, dec.net_seconds(dec.access),
      dec.net_seconds(dec.insert), dec.net_seconds(dec.admit),
      dec.net_seconds(dec.observe), dec.net_seconds(dec.retrain), span_cost,
      static_cast<unsigned long long>(dec.spans()), dec.span_cost_s * 1e9,
      dec.empty_span_s * 1e9, unattributed, trace_overhead);

  std::map<std::string, Metric> m;
  m["trace.generate_s"] = {spans.generate, "s"};
  m["trace.next_access_s"] = {spans.next_access, "s"};
  m["trace.stats_s"] = {spans.stats, "s"};
  m["criteria.estimate_h_s"] = {spans.estimate_h, "s"};
  m["criteria.fixpoint_s"] = {spans.fixpoint, "s"};

  const auto per_call_ns = [&dec](const SpanTotal& span) {
    return span.count == 0
               ? 0.0
               : dec.net_seconds(span) / static_cast<double>(span.count) * 1e9;
  };
  m["cachesim.access_ns"] = {per_call_ns(dec.access), "ns"};
  m["cachesim.insert_ns"] = {per_call_ns(dec.insert), "ns"};
  m["cachesim.inserts"] = {static_cast<double>(dec.result.stats.insertions),
                           "count"};
  m["cachesim.evictions"] = {static_cast<double>(dec.result.stats.evictions),
                             "count"};
  m["cachesim.hit_ratio"] = {dec.result.stats.file_hit_rate(), "ratio"};
  m["core.admit_ns"] = {per_call_ns(dec.admit), "ns"};
  m["core.observe_ns"] = {per_call_ns(dec.observe), "ns"};
  m["core.retrain_s"] = {dec.net_seconds(dec.retrain), "s"};
  const double one_time =
      static_cast<double>(counter(merged, "serving.predict_one_time"));
  const double reuse =
      static_cast<double>(counter(merged, "serving.predict_reuse"));
  m["core.reject_ratio"] = {ratio(one_time, one_time + reuse), "ratio"};
  m["core.rectify_ratio"] = {
      ratio(static_cast<double>(counter(merged, "serving.rectified")),
            static_cast<double>(counter(merged, "serving.history_recorded"))),
      "ratio"};

  m["sharded.replay_rps"] = {
      static_cast<double>(trace.requests.size()) / replay_wall, "1/s"};
  m["sharded.serve_s"] = {replay_wall - fit_s, "s"};
  m["sharded.barriers"] = {static_cast<double>(barriers), "count"};
  m["sharded.batch_mean"] = {
      histogram_mean(merged, kAdmissionBatchHistogramName), "count"};

  const double fits = static_cast<double>(counter(merged, "trainer.fits"));
  m["trainer.fits"] = {fits, "count"};
  m["trainer.fit_s"] = {fit_s, "s"};
  m["trainer.fit_share"] = {ratio(fit_s, replay_wall), "ratio"};
  m["trainer.samples_drained"] = {
      static_cast<double>(counter(merged, "trainer.samples_drained")),
      "count"};
  m["trainer.publish_ratio"] = {
      ratio(static_cast<double>(counter(merged, "trainer.models_published")),
            fits),
      "ratio"};

  m["obs.trace_overhead_frac"] = {trace_overhead, "ratio"};
  m["obs.unattributed_frac"] = {unattributed / dec.wall_s, "ratio"};

  // Network layer: only the daemon workload exercises it; the replays
  // report zeros.
  double frames_sent = 0.0;
  double protocol_errors = 0.0;
  double retry_replies = 0.0;
  double shed_replies = 0.0;
  double gather_mean = 0.0;
  PassLatency latency;
  if (workload.daemon) {
    const DaemonPass paced =
        daemon_pass(*setup.system, config, kDaemonOfferedRps);
    account_daemon_pass(outcome, paced, reference, "fixed-rate pass");
    frames_sent = static_cast<double>(paced.wire.frames_sent);
    protocol_errors = static_cast<double>(paced.wire.protocol_errors);
    retry_replies = static_cast<double>(paced.wire.retry_replies);
    shed_replies = static_cast<double>(paced.wire.shed_replies);
    gather_mean =
        histogram_mean(paced.server.obs.merged, "daemon.batch_gather_size");
    latency = print_fixed_rate_pass(paced);
  }
  m["net.frames_sent"] = {frames_sent, "count"};
  m["net.protocol_errors"] = {protocol_errors, "count"};
  m["net.retry_replies"] = {retry_replies, "count"};
  m["net.shed_replies"] = {shed_replies, "count"};
  m["net.gather_mean"] = {gather_mean, "count"};
  m["net.sender_lag_p99_us"] = {latency.lag_p99_us, "us"};
  m["net.p50_us"] = {latency.p50_us, "us"};
  m["net.tail_us"] = {latency.tail.value, "us"};
  return m;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string build_type = OTAC_BENCH_BUILD_TYPE;
  std::printf(
      "machine: cpu=\"%s\" nproc=%u build=%s compiler=\"%s\" git=%s "
      "OTAC_OBS=%d OTAC_FAILPOINTS=%d\n",
      cpu_model().c_str(), std::thread::hardware_concurrency(),
      build_type.c_str(), OTAC_BENCH_COMPILER, args.git_sha.c_str(),
      kObsBuild, kFailpointsBuild);
  if (!kTimingBuild || build_type == "Debug") {
    std::fprintf(stderr,
                 "refusing to report timings from an unoptimized or "
                 "sanitizer build\n");
    return 3;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome outcome;
  const std::map<std::string, Metric> metrics =
      args.trace ? traced_run(*workload, args, outcome)
                 : untraced_run(*workload, args, outcome);
  print_result_line(outcome.correct, outcome.attempted, outcome.failed,
                    metrics);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace otac::perfbench

int main(int argc, char** argv) {
  try {
    return otac::perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "otac_perfbench: %s\n", error.what());
    return 2;
  }
}
