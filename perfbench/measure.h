// Measurement plumbing shared by every workload of the benchmark: a wall
// clock, order statistics, peak RSS, the machine fingerprint, and the
// one-line JSON result the runner reads.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace otac::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time consumed so far, user + system, by the whole process
/// (CLOCK_PROCESS_CPUTIME_ID) or by the calling thread
/// (CLOCK_THREAD_CPUTIME_ID). Time the hypervisor steals from a vCPU is not
/// charged to the task running on it.
[[nodiscard]] inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Quartiles by the same "exclusive" method as Python's
/// statistics.quantiles(values, n=4), so the spread printed here matches
/// the one computed over whole runs.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] inline Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  out.median = n % 2 == 1 ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  const auto cut = [&](double j_frac) {
    // statistics.quantiles 'exclusive': position m = (n + 1) * i / 4.
    const double m = static_cast<double>(n + 1) * j_frac;
    const double j = std::floor(m);
    const double delta = m - j;
    const auto lo_idx = static_cast<std::size_t>(
        std::clamp(j - 1.0, 0.0, static_cast<double>(n - 1)));
    const auto hi_idx = static_cast<std::size_t>(
        std::clamp(j, 0.0, static_cast<double>(n - 1)));
    return values[lo_idx] + (values[hi_idx] - values[lo_idx]) * delta;
  };
  out.q1 = cut(0.25);
  out.q3 = cut(0.75);
  return out;
}

/// Nearest-rank quantile of an ascending vector.
[[nodiscard]] inline double sorted_quantile(const std::vector<double>& sorted,
                                            double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Tail of a latency sample: the highest of p99 / p99.9 / p99.99 that still
/// leaves at least ten samples above it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 99, 99.9 or 99.99 (0 when too few samples)
  std::size_t beyond = 0;   ///< samples strictly above the chosen rank
};

[[nodiscard]] inline Tail tail_of(const std::vector<double>& sorted) {
  Tail tail;
  for (const double pct : {99.99, 99.9, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
    const std::size_t beyond = sorted.size() - std::min(rank, sorted.size());
    if (beyond >= 10) {
      tail.value = sorted_quantile(sorted, pct / 100.0);
      tail.percentile = pct;
      tail.beyond = beyond;
      return tail;
    }
  }
  if (!sorted.empty()) tail.value = sorted.back();
  return tail;
}

[[nodiscard]] inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[nodiscard]] inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

/// One named metric of the final result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
inline void print_result_line(bool correct, std::uint64_t attempted,
                              std::uint64_t failed,
                              const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace otac::perfbench
