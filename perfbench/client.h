// Open-loop loopback client for the serving daemon, built on the public
// net/protocol codec and net/socket helpers. One TCP connection, two
// threads: the sender emits GET frames on the trace's compressed arrival
// schedule, the receiver matches RESULT frames by sequence.
//
// Every request is timed from when it was *due*, not from when the sender
// got round to writing it, so a sender stalled by TCP backpressure still
// charges the wait to the requests behind it (no coordinated omission).
// How late the sender ran is reported separately as its lag.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "trace/trace.h"

namespace otac::perfbench {

struct ClientConfig {
  std::uint16_t port = 0;
  /// Mean offered rate over the trace; 0 sends as fast as the socket
  /// accepts (a pass offered far above capacity).
  double offered_rps = 0.0;
};

struct ClientResult {
  std::uint64_t replies = 0;  ///< RESULT frames for a GET
  std::uint64_t hits = 0;
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;
  std::uint64_t errors = 0;  ///< ERROR frames, codec or transport errors
  std::uint64_t duplicates = 0;  ///< second RESULT for one sequence
  std::string error_text;        ///< first error, if any
  bool got_summary = false;
  net::SummaryPayload server;    ///< STATS reply
  /// Per GET (by sequence): reply time minus due time, microseconds; a
  /// negative value marks a GET that got no reply.
  std::vector<double> latency_us;
  /// Per GET written on a schedule: write time minus due time (us).
  std::vector<double> lag_us;
  double wall_s = 0.0;  ///< first due time to last RESULT
  double cpu_s = 0.0;   ///< CPU time of the client's own two threads

  [[nodiscard]] std::uint64_t missing() const noexcept {
    return latency_us.size() - std::min<std::uint64_t>(replies,
                                                       latency_us.size());
  }
};

/// Replays every request of `trace` against the daemon on `config.port`,
/// then sends STATS and SHUTDOWN and waits for the acknowledgement.
[[nodiscard]] ClientResult run_open_loop(const Trace& trace,
                                         const ClientConfig& config);

}  // namespace otac::perfbench
