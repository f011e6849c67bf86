#include "core/ota_criteria.h"

#include <algorithm>
#include <stdexcept>

namespace otac {

double one_time_fraction(const NextAccessInfo& oracle,
                         std::uint64_t num_requests, double m) {
  if (num_requests == 0) return 0.0;
  std::uint64_t one_time = 0;
  // For an integer distance d and 0 <= m < 2^53, double(d) > m is exactly
  // d > floor(m): below 2^53 the conversion is exact, and above it both
  // sides hold. So the fixpoint pass is one integer compare per request.
  // A missing reaccess needs no branch: kNoNextAccess - i is at least
  // 2^64 - num_requests, which exceeds any threshold below 2^53.
  constexpr double kExactIntegers = 9007199254740992.0;  // 2^53
  if (m >= 0.0 && m < kExactIntegers) {  // false for NaN
    const auto threshold = static_cast<std::uint64_t>(m);
    const std::uint64_t* next = oracle.next.data();
    for (std::uint64_t i = 0; i < num_requests; ++i) {
      one_time += next[i] - i > threshold ? 1 : 0;
    }
  } else {
    for (std::uint64_t i = 0; i < num_requests; ++i) {
      const std::uint64_t distance = oracle.reaccess_distance(i);
      if (distance == kNoNextAccess || static_cast<double>(distance) > m) {
        ++one_time;
      }
    }
  }
  return static_cast<double>(one_time) / static_cast<double>(num_requests);
}

CriteriaResult compute_criteria(const Trace& trace,
                                const NextAccessInfo& oracle,
                                std::uint64_t capacity_bytes,
                                double hit_rate_estimate, int iterations) {
  if (capacity_bytes == 0) {
    throw std::invalid_argument("compute_criteria: zero capacity");
  }
  CriteriaResult result;
  result.h = std::clamp(hit_rate_estimate, 0.0, 0.999);
  result.mean_size = trace.catalog.mean_photo_size();
  if (result.mean_size <= 0.0) {
    throw std::invalid_argument("compute_criteria: empty catalog");
  }

  const double base =
      static_cast<double>(capacity_bytes) / (result.mean_size * (1.0 - result.h));
  result.p = 0.0;
  for (int round = 0; round < iterations; ++round) {
    result.m = base / std::max(1e-9, 1.0 - result.p);
    result.p = one_time_fraction(oracle, trace.requests.size(), result.m);
  }
  result.m = base / std::max(1e-9, 1.0 - result.p);
  return result;
}

double lirs_criteria(double m, double lir_fraction) {
  return m * lir_fraction;
}

}  // namespace otac
