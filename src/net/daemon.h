// otacd — the network serving daemon: the sharded serving stack
// (core/sharded_cache.h) behind the length-prefixed wire protocol
// (net/protocol.h) on a TCP loopback socket.
//
// The daemon is a *networked replay*: server and client independently
// generate the same seeded trace, so GET frames address requests by trace
// index and the server retains everything the in-process replay has — the
// photo catalog, the next-access oracle for training labels, the criteria
// M, and the precomputed retrain-trigger schedule. That is what lets a
// loopback run reproduce the replay's RunResult bit-for-bit (the e2e
// determinism test pins it), while the transport underneath is real
// sockets, real threads, and real backpressure.
//
// Threading model (DESIGN.md §15):
//   acceptor thread        poll+accept loop, bounded by the stop flag
//   connection threads     one per client: read frames in order, decode,
//                          run retrain barriers at trigger crossings, and
//                          dispatch into the owning shard's bounded queue
//   shard workers          one per shard; each gathers <=64 queued
//                          requests and runs them through the staged-batch
//                          admission path (ServingCore), gated per request
//                          by the fluid ShardQueue overload ladder
//
// The transport is batched at both ends. A connection reader fills a
// 64 KB buffer with one recv() and decodes every complete frame in it
// (net/frame_reader.h), staging GET/PUT envelopes per shard; each shard's
// run is pushed with one queue lock and at most one notify. Staged runs
// are flushed before a due retrain barrier, before STATS, REPORT and
// SHUTDOWN, when a shard's run reaches gather_max, before a protocol
// ERROR reply, and before any recv() that may block. A shard worker
// encodes its whole gather's RESULT frames into one buffer and writes
// them with one send per connection before it marks itself idle — so a
// reply sent after a quiesce (STATS, REPORT, ERROR) follows every RESULT
// of the frames before it on the wire.
//
// Backpressure maps to the protocol at two layers: the *fluid* ShardQueue
// (deterministic, sim-time driven) turns Shedding into SHED replies and
// Degraded into cheap Original-path admission flagged in the RESULT
// frame; the *physical* inbound queue either blocks the connection reader
// when full (default — TCP backpressure, keeps single-connection runs
// deterministic) or, with retry_when_full, answers RETRY immediately.
//
// Determinism contract: with one client connection sending GET frames in
// trace-index order, the default blocking dispatch, and an inline
// watchdog, the server-side RunResult equals ShardedCache::run on the
// same RunConfig — including the eviction hash. Multiple connections or
// retry_when_full keep all safety properties (TSan-clean, bounded queues)
// but order shed/degraded transitions by arrival, not by trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/intelligent_cache.h"

namespace otac::net {

struct DaemonConfig {
  /// Serving configuration: mode, policy, capacity, shards, resilience.
  /// `run.threads` is ignored — the daemon runs one worker per shard.
  RunConfig run;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (read back via port())
  /// Physical inbound frames buffered per shard before backpressure.
  std::size_t queue_capacity = 1024;
  /// Queue-full policy: false blocks the connection reader (deterministic
  /// TCP backpressure), true replies RETRY without serving.
  bool retry_when_full = false;
  /// Requests gathered per staged admission batch, and the most a
  /// connection reader stages for one shard before queueing them (clamped
  /// to ServingCore::kAdmissionBatchCapacity).
  std::size_t gather_max = 64;
};

/// Transport-layer counters (exported as daemon.* metrics in the report;
/// deliberately outside RunResult so result equality stays a statement
/// about serving behavior).
struct DaemonWireStats {
  std::uint64_t connections = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t retry_replies = 0;
  std::uint64_t shed_replies = 0;
  std::uint64_t get_requests = 0;
  std::uint64_t put_requests = 0;
  std::uint64_t socket_reads = 0;   ///< recv() calls by connection readers
  std::uint64_t socket_writes = 0;  ///< reply writes (one send_all each)
};

class Daemon {
 public:
  /// The system (trace + oracle) must outlive the daemon.
  Daemon(const IntelligentCache& system, DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind, listen, and spawn the acceptor and shard workers. Throws on
  /// bind/listen failure or an invalid RunConfig.
  void start();

  /// Port actually bound (valid after start()).
  [[nodiscard]] std::uint16_t port() const;

  /// Block until a client sends a SHUTDOWN frame (or stop() is called).
  void wait_for_shutdown();

  /// Graceful stop: close the listener, drain every shard queue, join all
  /// threads, fire any remaining retrain barriers, and assemble the final
  /// RunResult. Idempotent.
  void stop();

  /// Server-side result of everything served so far. Valid after stop().
  [[nodiscard]] const RunResult& result() const;

  [[nodiscard]] DaemonWireStats wire_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace otac::net
