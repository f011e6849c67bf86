#include "net/daemon.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/cache_policy.h"
#include "core/history_table.h"
#include "core/model_slot.h"
#include "core/run_metrics.h"
#include "core/serving_core.h"
#include "core/shard_queue.h"
#include "core/sharded_cache.h"
#include "core/trainer.h"
#include "core/trainer_watchdog.h"
#include "ml/compiled_tree.h"
#include "net/frame_reader.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "storage/latency_model.h"
#include "util/failpoint.h"

namespace otac::net {

namespace {

/// Protocol-violation errors carry the 1-based frame position, matching
/// the codec's own messages (net/protocol.cpp).
[[noreturn]] void fail_frame(std::uint64_t frame_number,
                             const std::string& text) {
  throw std::runtime_error("frame " + std::to_string(frame_number) + ": " +
                           text);
}

struct Connection;

/// One in-flight request, parked in its shard's inbound queue between the
/// connection reader and the shard worker.
struct Envelope {
  Connection* conn = nullptr;
  std::uint64_t sequence = 0;
  std::uint64_t index = 0;  ///< trace request index (GET only)
  Request request{};
  bool is_put = false;
};

/// A connection reader's decoded-but-unqueued envelopes for one shard,
/// pushed as one run (one queue lock, at most one notify).
struct StagedRun {
  std::array<Envelope, ServingCore::kAdmissionBatchCapacity> envelopes;
  std::size_t count = 0;
};

/// One client socket plus the lock serializing reply writes to it: the
/// owning reader thread and any shard worker may answer concurrently.
/// Impl::connections keeps every Connection alive until the daemon is
/// destroyed, after all workers have joined, so envelopes and reply
/// batches point at it without owning it.
struct Connection {
  UniqueFd fd;
  std::mutex write_mutex;
  /// One staging run per shard, used by the reader thread only. The
  /// acceptor allocates it: allocating on each new reader thread at
  /// session start binds that thread to a glibc malloc arena, and peak
  /// RSS then grew by tens of MB per session over repeated sessions.
  std::vector<StagedRun> staged;
};

/// RESULT frames encoded back to back, written with one send_all per
/// connection: a worker's whole gather, or a run refused with RETRY.
struct ReplyBatch {
  std::array<std::uint8_t,
             ServingCore::kAdmissionBatchCapacity * kResultFrameBytes>
      frames{};
  std::array<Connection*, ServingCore::kAdmissionBatchCapacity> conns{};
  std::size_t count = 0;

  [[nodiscard]] std::uint8_t* frame(std::size_t i) noexcept {
    return frames.data() + i * kResultFrameBytes;
  }
};

/// Bounded MPSC ring of envelopes for one shard. push_batch blocks while
/// full (TCP backpressure); try_push_batch takes what fits (the rest get
/// RETRY replies). Condition variables are notified only when a thread
/// waits on them. Stop is drain-then-exit: pop_batch keeps returning
/// queued work after stop() and yields 0 only once the ring is empty, so
/// a graceful stop never discards accepted requests.
class InboundQueue {
 public:
  explicit InboundQueue(std::size_t capacity) : ring_(capacity) {}

  /// Append the whole run in order, waiting for room as needed. False
  /// when the daemon is stopping; the unqueued rest is dropped.
  bool push_batch(const Envelope* items, std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (count > 0) {
      if (count_ == ring_.size() && !stopped_) {
        ++pushers_waiting_;
        not_full_.wait(lock,
                       [&] { return count_ < ring_.size() || stopped_; });
        --pushers_waiting_;
      }
      if (stopped_) return false;
      const std::size_t pushed = append_locked(items, count);
      items += pushed;
      count -= pushed;
      if (worker_waiting_) not_empty_.notify_one();
    }
    return true;
  }

  /// Non-blocking: append the longest prefix that fits; returns its size.
  std::size_t try_push_batch(const Envelope* items, std::size_t count) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return 0;
    const std::size_t pushed = append_locked(items, count);
    if (pushed > 0 && worker_waiting_) not_empty_.notify_one();
    return pushed;
  }

  /// Block until at least one envelope (or a drained stop), then hand out
  /// up to `max` in arrival order and mark the worker busy until
  /// mark_idle(). Returns 0 only when stopped and empty.
  std::size_t pop_batch(Envelope* out, std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (count_ == 0 && !stopped_) {
      worker_waiting_ = true;
      not_empty_.wait(lock, [&] { return count_ > 0 || stopped_; });
      worker_waiting_ = false;
    }
    const std::size_t gathered = std::min(count_, max);
    for (std::size_t i = 0; i < gathered; ++i) {
      out[i] = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
    }
    count_ -= gathered;
    if (gathered > 0) {
      busy_ = true;
      if (pushers_waiting_ > 0) not_full_.notify_all();
    }
    return gathered;
  }

  void mark_idle() {
    const std::lock_guard<std::mutex> lock(mutex_);
    busy_ = false;
    if (count_ == 0 && quiescers_waiting_ > 0) idle_.notify_all();
  }

  /// Block until the queue is empty AND the worker is parked — the
  /// retrain-barrier quiesce point. Only meaningful while dispatch is
  /// blocked (the caller holds the dispatch lock exclusively).
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++quiescers_waiting_;
    idle_.wait(lock, [&] { return count_ == 0 && !busy_; });
    --quiescers_waiting_;
  }

  void stop() {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::size_t append_locked(const Envelope* items, std::size_t count) {
    const std::size_t pushed = std::min(count, ring_.size() - count_);
    for (std::size_t i = 0; i < pushed; ++i) {
      ring_[(head_ + count_ + i) % ring_.size()] = items[i];
    }
    count_ += pushed;
    return pushed;
  }

  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  std::vector<Envelope> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t pushers_waiting_ = 0;
  std::size_t quiescers_waiting_ = 0;
  bool worker_waiting_ = false;
  bool busy_ = false;
  bool stopped_ = false;
};

/// Everything one shard touches on the request path — the daemon-side
/// twin of the replay's ShardState (core/sharded_cache.cpp), plus the
/// inbound queue and worker thread that replace the replay's index lists.
struct Shard {
  explicit Shard(std::size_t queue_capacity) : inbound(queue_capacity) {}

  InboundQueue inbound;
  std::thread worker;
  std::unique_ptr<CachePolicy> policy;
  std::unique_ptr<ServingCore> core;      // proposal only
  std::unique_ptr<DailyTrainer> sampler;  // proposal only
  std::unique_ptr<ShardQueue> fluid;      // proposal + overload only
  std::unique_ptr<obs::MetricsRegistry> registry;
  obs::LatencyRecorder recorder;
  obs::FixedHistogram* batch_sizes = nullptr;   // proposal only
  obs::FixedHistogram* gather_sizes = nullptr;  // physical gather width
  ml::CompiledTree compiled;  // per-shard model snapshot (proposal only)
  const ml::CompiledTree* tree = nullptr;
  std::uint64_t model_epoch = std::numeric_limits<std::uint64_t>::max();
  CacheStats stats;
};

}  // namespace

struct Daemon::Impl {
  Impl(const IntelligentCache& system_in, DaemonConfig config_in)
      : system(&system_in),
        trace(&system_in.trace()),
        oracle(&system_in.oracle()),
        config(std::move(config_in)) {}

  const IntelligentCache* system;
  const Trace* trace;
  const NextAccessInfo* oracle;
  DaemonConfig config;

  bool is_proposal = false;
  bool classified_path = false;
  std::size_t gather_max = ServingCore::kAdmissionBatchCapacity;
  LatencyModel latency{LatencyConfig{}};
  double hit_latency_us = 0.0;
  double miss_latency_us = 0.0;
  std::size_t model_arity = 0;

  RunResult result;
  std::vector<std::unique_ptr<Shard>> shards;

  // The one shared mutable serving object (seqlock; workers reload on the
  // epoch bump a barrier publishes) plus the trainer side, which only the
  // thread holding the dispatch lock exclusively ever touches.
  ModelSlot model;
  std::atomic<std::uint64_t> model_epoch{0};
  std::unique_ptr<DailyTrainer> trainer;
  std::unique_ptr<TrainerWatchdog> watchdog;
  DegradationCounters trainer_degradation;
  obs::MetricsRegistry global_registry;
  obs::FixedHistogram* fit_seconds = nullptr;
  obs::MetricsRegistry::Counter fits = nullptr;
  obs::MetricsRegistry::Counter fit_skipped = nullptr;
  obs::MetricsRegistry::Counter models_published = nullptr;
  obs::MetricsRegistry::Counter samples_drained = nullptr;
  obs::MetricsRegistry::Counter compiled_tree_swaps = nullptr;

  // Retrain schedule, precomputed exactly as the replay does. Readers
  // dispatch under a shared lock; a barrier takes it exclusively, waits
  // for every shard queue to drain, retrains, and advances next_trigger.
  std::vector<std::uint64_t> triggers;
  std::atomic<std::size_t> next_trigger{0};
  std::shared_mutex dispatch_mutex;

  UniqueFd listener;
  std::uint16_t bound_port = 0;
  std::thread acceptor;
  std::mutex connections_mutex;
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> connection_threads;

  std::atomic<bool> stop_flag{false};
  bool started = false;
  std::once_flag stop_once;
  std::atomic<bool> finalized{false};
  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown_requested = false;

  // Transport counters (DaemonWireStats); relaxed — they order nothing.
  std::atomic<std::uint64_t> connections_total{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> retry_replies{0};
  std::atomic<std::uint64_t> shed_replies{0};
  std::atomic<std::uint64_t> get_requests{0};
  std::atomic<std::uint64_t> put_requests{0};
  std::atomic<std::uint64_t> socket_reads{0};
  std::atomic<std::uint64_t> socket_writes{0};

  void start();
  void accept_loop();
  void serve_connection(Connection& conn);
  bool dispatch_frame(Connection& conn, std::span<StagedRun> staged,
                      const FrameView& frame);
  void stage(std::span<StagedRun> staged, const Envelope& envelope);
  void flush_run(std::size_t shard_index, StagedRun& run);
  void flush_staged(std::span<StagedRun> staged);
  void maybe_barrier(std::uint64_t index, std::span<StagedRun> staged);
  void quiesce_locked();
  void flush_barriers_locked();
  void run_barrier(std::uint64_t trigger);
  void worker_loop(Shard& shard);
  void process_batch(Shard& shard, const Envelope* batch, std::size_t count,
                     ReplyBatch& replies);
  void serve_simple(Shard& shard, const Envelope& envelope,
                    ReplyBatch& replies);
  void serve_put(Shard& shard, const Envelope& envelope, ReplyBatch& replies);
  bool insert_with_ssd_retry(Shard& shard, const Request& request,
                             const PhotoMeta& photo);
  void send_frames(Connection& conn, const std::uint8_t* data,
                   std::size_t size, std::size_t frames);
  void add_result(ReplyBatch& replies, const Envelope& envelope,
                  ResultStatus status, bool degraded) const;
  void send_replies(ReplyBatch& replies);
  void send_error(Connection& conn, const std::string& text);
  SummaryPayload build_summary_locked();
  void assemble_result_locked();
  void populate_registries();
  void populate_wire_metrics();
  obs::MetricsSnapshot merged_snapshot_now();
  [[nodiscard]] double mean_latency_for(double hit_rate) const;
  void stop();
};

void Daemon::Impl::start() {
  const RunConfig& run = config.run;
  if (run.capacity_bytes == 0) {
    throw std::invalid_argument("Daemon: zero capacity");
  }
  const std::size_t shard_count = run.shards;
  if (shard_count == 0) {
    throw std::invalid_argument("Daemon: zero shards");
  }
  const std::uint64_t shard_capacity = run.capacity_bytes / shard_count;
  if (shard_capacity == 0) {
    throw std::invalid_argument(
        "Daemon: capacity splits to zero bytes per shard");
  }

  // Preamble mirror of ShardedCache::run: criteria/cost are global
  // properties of (trace, capacity), shared by every shard.
  is_proposal = run.mode == AdmissionMode::proposal;
  const bool needs_criteria =
      is_proposal || run.mode == AdmissionMode::ideal;
  if (needs_criteria) {
    const double h = run.hit_rate_estimate
                         ? *run.hit_rate_estimate
                         : system->estimate_hit_rate(run.capacity_bytes);
    result.criteria = compute_criteria(*trace, *oracle, run.capacity_bytes, h,
                                       run.ota.criteria_iterations);
    if (run.policy == PolicyKind::lirs) {
      result.criteria.m =
          lirs_criteria(result.criteria.m, run.lirs_lir_fraction);
    }
    result.cost_v = system->cost_v_for(run.capacity_bytes, run.ota);
  }
  classified_path = needs_criteria;
  latency = LatencyModel{run.latency};
  hit_latency_us = latency.request_latency_us(true, classified_path);
  miss_latency_us = latency.request_latency_us(false, classified_path);

  ServingConfig serving;
  std::size_t history_slice = 0;
  OtaConfig sampler_ota = run.ota;
  if (is_proposal) {
    serving.feature_subset = run.ota.feature_subset;
    serving.m = result.criteria.m;
    serving.admit_before_first_model = run.ota.admit_before_first_model;
    const std::size_t history_total = history_table_capacity(
        result.criteria.m, result.criteria.h, result.criteria.p,
        run.ota.history_table_factor);
    history_slice = history_total / shard_count;
    if (history_slice == 0 && history_total > 0) history_slice = 1;
    const int rate = run.ota.sample_records_per_minute;
    sampler_ota.sample_records_per_minute =
        rate == 0 ? 0 : std::max(1, rate / static_cast<int>(shard_count));
    model_arity = run.ota.feature_subset.empty()
                      ? FeatureExtractor::kFeatureCount
                      : run.ota.feature_subset.size();
  }

  gather_max = std::clamp<std::size_t>(config.gather_max, 1,
                                       ServingCore::kAdmissionBatchCapacity);
  const std::size_t queue_capacity =
      std::max<std::size_t>(1, config.queue_capacity);

  for (std::size_t s = 0; s < shard_count; ++s) {
    // Cold: per-shard construction, once per daemon.
    // otac-lint: allow(hotpath-alloc)
    shards.push_back(std::make_unique<Shard>(queue_capacity));
    Shard& shard = *shards.back();
    shard.policy =
        make_policy(run.policy, shard_capacity, run.lirs_lir_fraction);
    // otac-lint: allow(hotpath-alloc)
    shard.registry = std::make_unique<obs::MetricsRegistry>();
    shard.recorder = obs::LatencyRecorder{
        shard.registry->histogram(kLatencyHistogramName,
                                  LatencyModel::histogram_bounds_us()),
        hit_latency_us, miss_latency_us};
    shard.gather_sizes = shard.registry->histogram(
        "daemon.batch_gather_size", admission_batch_histogram_bounds());
    if (is_proposal) {
      // otac-lint: allow(hotpath-alloc)
      shard.core = std::make_unique<ServingCore>(trace->catalog, *oracle,
                                                 serving, history_slice);
      shard.core->bind_metrics(*shard.registry);
      // otac-lint: allow(hotpath-alloc)
      shard.sampler = std::make_unique<DailyTrainer>(
          *oracle, sampler_ota, result.criteria.m, result.cost_v);
      shard.batch_sizes = shard.registry->histogram(
          kAdmissionBatchHistogramName, admission_batch_histogram_bounds());
      if (run.resilience.overload.enabled) {
        // otac-lint: allow(hotpath-alloc)
        shard.fluid = std::make_unique<ShardQueue>(run.resilience.overload);
      }
    }
  }
  for (const auto& shard : shards) {
    CacheStats* stats = &shard->stats;  // shards never reallocates now
    shard->policy->set_eviction_callback(
        [stats](PhotoId key, std::uint32_t size) {
          stats->note_eviction(key, size);
        });
  }

  // otac-lint: allow(hotpath-alloc)
  trainer = std::make_unique<DailyTrainer>(*oracle, run.ota,
                                           result.criteria.m, result.cost_v);
  // otac-lint: allow(hotpath-alloc)
  watchdog = std::make_unique<TrainerWatchdog>(*trainer,
                                               run.resilience.watchdog);
  fit_seconds = global_registry.histogram(kFitHistogramName,
                                          duration_histogram_bounds_s());
  fits = global_registry.counter("trainer.fits");
  fit_skipped = global_registry.counter("trainer.fit_skipped");
  models_published = global_registry.counter("trainer.models_published");
  samples_drained = global_registry.counter("trainer.samples_drained");
  compiled_tree_swaps = global_registry.counter("trainer.compiled_tree_swaps");
  if (is_proposal) triggers = retrain_trigger_indices(*trace, run.ota);

  listener = tcp_listen(config.host, config.port);
  bound_port = local_port(listener.get());
  for (const auto& shard : shards) {
    Shard* raw = shard.get();
    shard->worker = std::thread([this, raw] { worker_loop(*raw); });
  }
  acceptor = std::thread([this] { accept_loop(); });
  started = true;
}

void Daemon::Impl::accept_loop() {
  while (!stop_flag.load(std::memory_order_relaxed)) {
    pollfd waiter{};
    waiter.fd = listener.get();
    waiter.events = POLLIN;
    const int ready = ::poll(&waiter, 1, 100);
    if (ready <= 0) continue;  // timeout or EINTR; bounded by the stop flag
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd < 0) continue;
    if (stop_flag.load(std::memory_order_relaxed)) {
      UniqueFd{fd}.reset();
      break;
    }
    // Cold: per-connection setup, not the per-frame path.
    // otac-lint: allow(hotpath-alloc)
    auto connection = std::make_shared<Connection>();
    connection->fd = UniqueFd{fd};
    // otac-lint: allow(hotpath-alloc)
    connection->staged.resize(shards.size());
    connections_total.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(connections_mutex);
    // otac-lint: allow(hotpath-alloc)
    connections.push_back(connection);
    // otac-lint: allow(hotpath-alloc)
    connection_threads.emplace_back(
        [this, raw = connection.get()] { serve_connection(*raw); });
  }
}

void Daemon::Impl::serve_connection(Connection& conn) {
  // Client frames carry fixed-size payloads (check_client_frame runs on
  // each header before its payload is awaited), so the reader's fixed
  // buffer decodes every frame of one recv() without allocating.
  FrameReader reader{conn.fd.get(), &check_client_frame};
  const std::span<StagedRun> staged{conn.staged};
  std::uint64_t reads_counted = 0;
  const auto count_reads = [&] {
    socket_reads.fetch_add(reader.socket_reads() - reads_counted,
                           std::memory_order_relaxed);
    reads_counted = reader.socket_reads();
  };
  bool running = true;
  while (running && !stop_flag.load(std::memory_order_relaxed)) {
    // Flush point: staged requests are queued before a read that may
    // block, so a quiet client never strands decoded work.
    if (!reader.frame_buffered()) flush_staged(staged);
    try {
      const std::optional<FrameView> frame = reader.next();
      count_reads();
      if (!frame) break;  // clean EOF at a frame boundary
      frames_received.fetch_add(1, std::memory_order_relaxed);
      running = dispatch_frame(conn, staged, *frame);
    } catch (const std::exception& error) {
      // Protocol violation: every frame before the bad one is answered
      // first (flush, then wait until each shard has written its gather),
      // then the exact decode error, then the connection is dropped —
      // resynchronizing a corrupt byte stream is not worth guessing at
      // frame boundaries.
      count_reads();
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      flush_staged(staged);
      {
        const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
        quiesce_locked();
      }
      send_error(conn, error.what());
      running = false;
    }
  }
  flush_staged(staged);
  conn.fd.shutdown_both();
}

bool Daemon::Impl::dispatch_frame(Connection& conn,
                                  std::span<StagedRun> staged,
                                  const FrameView& frame) {
  const FrameHeader& header = frame.header;
  const std::uint64_t frame_number = frame.number;
  switch (header.type) {
    case FrameType::get_request: {
      const GetPayload get = decode_get(frame.payload, frame_number);
      if (get.index >= trace->requests.size()) {
        fail_frame(frame_number,
                   "get index " + std::to_string(get.index) +
                       " out of range (trace has " +
                       std::to_string(trace->requests.size()) + " requests)");
      }
      const Request& request = trace->requests[get.index];
      if (get.photo != request.photo) {
        // The strongest seed/scale-mismatch canary available: client and
        // server must be generating the same trace.
        fail_frame(frame_number,
                   "get photo " + std::to_string(get.photo) +
                       " does not match trace request " +
                       std::to_string(get.index) + " (expected " +
                       std::to_string(request.photo) +
                       "; client/server seed or scale mismatch)");
      }
      get_requests.fetch_add(1, std::memory_order_relaxed);
      maybe_barrier(get.index, staged);
      Envelope envelope;
      envelope.conn = &conn;
      envelope.sequence = header.sequence;
      envelope.index = get.index;
      envelope.request = request;
      stage(staged, envelope);
      return true;
    }
    case FrameType::put_request: {
      const PutPayload put = decode_put(frame.payload, frame_number);
      if (put.photo >= trace->catalog.photo_count()) {
        fail_frame(frame_number,
                   "put photo " + std::to_string(put.photo) +
                       " out of range (catalog has " +
                       std::to_string(trace->catalog.photo_count()) +
                       " photos)");
      }
      put_requests.fetch_add(1, std::memory_order_relaxed);
      Envelope envelope;
      envelope.conn = &conn;
      envelope.sequence = header.sequence;
      envelope.request.time = SimTime{put.time_seconds};
      envelope.request.photo = put.photo;
      envelope.is_put = true;
      stage(staged, envelope);
      return true;
    }
    case FrameType::stats_request: {
      // End-of-stream snapshot: queue what is staged, quiesce every shard
      // (each has written its last gather's RESULTs, so the summary
      // follows them on the wire), fire all remaining scheduled retrain
      // barriers, and summarize — the binary twin of the replay's
      // end-of-run totals.
      flush_staged(staged);
      SummaryPayload summary;
      {
        const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
        quiesce_locked();
        flush_barriers_locked();
        summary = build_summary_locked();
      }
      std::array<std::uint8_t, kSummaryFrameBytes> reply{};
      encode_summary_frame(reply.data(), header.sequence, summary);
      send_frames(conn, reply.data(), reply.size(), 1);
      return true;
    }
    case FrameType::report_request: {
      flush_staged(staged);
      std::string json;
      {
        const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
        quiesce_locked();
        flush_barriers_locked();
        assemble_result_locked();
        json = result.obs.to_json();
      }
      const std::vector<std::uint8_t> reply = encode_frame(
          FrameType::report, header.sequence,
          std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(json.data()),
              json.size()));
      send_frames(conn, reply.data(), reply.size(), 1);
      return true;
    }
    case FrameType::shutdown_request: {
      flush_staged(staged);
      const std::vector<std::uint8_t> reply =
          encode_frame(FrameType::shutdown_ack, header.sequence, {});
      send_frames(conn, reply.data(), reply.size(), 1);
      {
        const std::lock_guard<std::mutex> lock(shutdown_mutex);
        shutdown_requested = true;
      }
      shutdown_cv.notify_all();
      return false;
    }
    case FrameType::result:
    case FrameType::summary:
    case FrameType::report:
    case FrameType::shutdown_ack:
    case FrameType::error:
      break;  // unreachable: check_client_frame already rejected these
  }
  fail_frame(frame_number, "unexpected frame type in dispatch");
}

void Daemon::Impl::stage(std::span<StagedRun> staged,
                         const Envelope& envelope) {
  const std::size_t s = shard_of_photo(envelope.request.photo, shards.size());
  StagedRun& run = staged[s];
  run.envelopes[run.count++] = envelope;
  if (run.count == gather_max) flush_run(s, run);  // flush point: full run
}

void Daemon::Impl::flush_staged(std::span<StagedRun> staged) {
  for (std::size_t s = 0; s < staged.size(); ++s) flush_run(s, staged[s]);
}

void Daemon::Impl::flush_run(std::size_t shard_index, StagedRun& run) {
  if (run.count == 0) return;
  InboundQueue& inbound = shards[shard_index]->inbound;
  std::size_t queued = run.count;
  {
    // Shared dispatch lock: many readers enqueue concurrently; a retrain
    // barrier (or a stats/report snapshot) excludes them all.
    const std::shared_lock<std::shared_mutex> lock(dispatch_mutex);
    if (config.retry_when_full) {
      queued = inbound.try_push_batch(run.envelopes.data(), run.count);
    } else {
      // Blocking dispatch: queue-full pressure propagates to the client
      // as TCP backpressure. A false return means the daemon is
      // stopping; the run is dropped with the connection.
      (void)inbound.push_batch(run.envelopes.data(), run.count);
    }
  }
  if (queued < run.count) {
    // The refused tail of the run is answered RETRY in one write.
    ReplyBatch replies;
    for (std::size_t i = queued; i < run.count; ++i) {
      add_result(replies, run.envelopes[i], ResultStatus::retry, false);
    }
    retry_replies.fetch_add(replies.count, std::memory_order_relaxed);
    send_replies(replies);
  }
  run.count = 0;
}

void Daemon::Impl::maybe_barrier(std::uint64_t index,
                                 std::span<StagedRun> staged) {
  if (triggers.empty()) return;
  // Epoch rule, mirroring the replay (epoch_end = trigger + 1): the
  // barrier for trigger t fires before any request with index > t is
  // dispatched. The fast path is one relaxed-ish atomic read.
  std::size_t pending = next_trigger.load(std::memory_order_acquire);
  while (pending < triggers.size() && triggers[pending] < index) {
    // Flush point: this epoch's staged requests are queued (and served
    // by the quiesce below) before the barrier retrains.
    flush_staged(staged);
    {
      const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
      pending = next_trigger.load(std::memory_order_relaxed);
      if (pending < triggers.size() && triggers[pending] < index) {
        quiesce_locked();
        run_barrier(triggers[pending]);
        next_trigger.store(pending + 1, std::memory_order_release);
      }
    }
    pending = next_trigger.load(std::memory_order_acquire);
  }
}

void Daemon::Impl::quiesce_locked() {
  // Dispatch is excluded (unique lock held), so each queue drains
  // monotonically; after this loop every shard worker is parked.
  for (const auto& shard : shards) shard->inbound.wait_idle();
}

void Daemon::Impl::flush_barriers_locked() {
  std::size_t pending = next_trigger.load(std::memory_order_relaxed);
  while (pending < triggers.size()) {
    run_barrier(triggers[pending]);
    ++pending;
    next_trigger.store(pending, std::memory_order_release);
  }
}

void Daemon::Impl::run_barrier(std::uint64_t trigger) {
  // Cold: the retrain barrier, a mirror of the replay's barrier block
  // (core/sharded_cache.cpp) — drain shard sample buffers in shard order,
  // merge in trace order, supervise the fit, publish on success.
  std::vector<TrainingSample> drained;
  for (const auto& shard : shards) {
    const std::deque<TrainingSample>& buffer = shard->sampler->samples();
    drained.insert(drained.end(), buffer.begin(), buffer.end());
    shard->sampler->restore({}, shard->sampler->current_minute(),
                            shard->sampler->minute_count());
  }
  std::sort(drained.begin(), drained.end(),
            [](const TrainingSample& a, const TrainingSample& b) {
              return a.index < b.index;
            });
  *samples_drained += drained.size();
  const auto fit_started = std::chrono::steady_clock::now();
  const RetrainOutcome outcome = watchdog->retrain(
      std::move(drained), trigger, trace->requests[trigger].time);
  trainer_degradation.retrain_retries +=
      static_cast<std::uint64_t>(outcome.retries);
  switch (outcome.status) {
    case RetrainOutcome::Status::trained:
      ++*fits;
      if (validate_serving_model(*outcome.tree, model_arity)) {
        const ml::CompiledTree compiled =
            ml::CompiledTree::compile(*outcome.tree);
        if (ModelSlot::fits(compiled)) {
          model.store(compiled);
          ++result.trainings;
          ++*models_published;
          ++*compiled_tree_swaps;
          // Workers reload their snapshot at the next gather; they are
          // all parked right now, so the new generation is exactly the
          // replay's "serves requests from the next epoch on".
          model_epoch.fetch_add(1, std::memory_order_release);
        } else {
          ++trainer_degradation.rejected_models;
        }
      } else {
        ++trainer_degradation.rejected_models;
      }
      break;
    case RetrainOutcome::Status::skipped:
      ++*fit_skipped;
      break;
    case RetrainOutcome::Status::failed:
      ++trainer_degradation.retrain_failures;
      break;
    case RetrainOutcome::Status::timed_out:
    case RetrainOutcome::Status::busy:
      ++trainer_degradation.retrain_timeouts;
      break;
  }
  fit_seconds->add(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - fit_started)
                       .count());
  populate_registries();
  populate_degradation_metrics(global_registry, trainer_degradation);
  global_registry.set("trainer.trainings",
                      static_cast<std::uint64_t>(result.trainings));
  populate_wire_metrics();
  // otac-lint: allow(hotpath-alloc)
  result.obs.timeline.push_back(
      obs::BarrierSample{trigger, trace->requests[trigger].time.seconds,
                         merged_snapshot_now()});
}

void Daemon::Impl::worker_loop(Shard& shard) {
  // One gather's envelopes and replies live on the worker stack; pop_batch
  // hands out at most gather_max (<= kAdmissionBatchCapacity) per call,
  // and returns 0 only once the daemon is stopping and the queue has
  // drained. Every RESULT of a gather is written before mark_idle(), so a
  // reply sent after a quiesce (STATS, REPORT, ERROR) follows them all.
  std::array<Envelope, ServingCore::kAdmissionBatchCapacity> batch;
  ReplyBatch replies;
  while (const std::size_t gathered =
             shard.inbound.pop_batch(batch.data(), gather_max)) {
    process_batch(shard, batch.data(), gathered, replies);
    send_replies(replies);
    shard.inbound.mark_idle();
  }
}

void Daemon::Impl::process_batch(Shard& shard, const Envelope* batch,
                                 std::size_t count, ReplyBatch& replies) {
  shard.gather_sizes->add(static_cast<double>(count));
  if (!is_proposal) {
    for (std::size_t b = 0; b < count; ++b) {
      if (batch[b].is_put) {
        serve_put(shard, batch[b], replies);
      } else {
        serve_simple(shard, batch[b], replies);
      }
    }
    return;
  }

  // Refresh the model snapshot when a barrier published a new generation
  // (the epoch counter only moves while this worker is parked, so one
  // seqlock load per generation, exactly like the replay's per-epoch
  // load).
  const std::uint64_t epoch = model_epoch.load(std::memory_order_acquire);
  if (epoch != shard.model_epoch) {
    shard.tree = model.load(shard.compiled) ? &shard.compiled : nullptr;
    shard.model_epoch = epoch;
  }

  const OverloadConfig& overload = config.run.resilience.overload;
  enum class Action : std::uint8_t { normal, degraded, shed, put };
  std::array<Action, ServingCore::kAdmissionBatchCapacity> action{};
  std::array<std::uint8_t, ServingCore::kAdmissionBatchCapacity> slot{};
  std::array<const PhotoMeta*, ServingCore::kAdmissionBatchCapacity> photos{};

  // Pass 1 — arrival order: overload gating through the fluid queue, then
  // the model-independent half (feature staging + training-sample offer)
  // for every Normal GET. Staging ahead of the sequential replay below is
  // the same reordering the replay's own batched loop performs — the
  // extractor never reads cache or history state.
  shard.core->begin_batch();
  std::size_t staged = 0;
  for (std::size_t b = 0; b < count; ++b) {
    const Envelope& envelope = batch[b];
    if (envelope.is_put) {
      action[b] = Action::put;
      continue;
    }
    const Request& request = trace->requests[envelope.index];
    const PhotoMeta& photo = trace->catalog.photo(request.photo);
    photos[b] = &photo;
    if (shard.fluid != nullptr) {
      if (OTAC_FAILPOINT_ACTIVE("chaos.flash_crowd")) {
        shard.fluid->inject(overload.flash_crowd_burst);
      }
      const OverloadState pressure = shard.fluid->on_request(
          static_cast<double>(request.time.seconds));
      shard.stats.requests += 1;
      shard.stats.request_bytes += photo.size_bytes;
      if (pressure == OverloadState::shedding) {
        shard.stats.rejected += 1;
        shard.stats.rejected_bytes += photo.size_bytes;
        shard.recorder.record(false);
        action[b] = Action::shed;
        continue;
      }
      if (pressure == OverloadState::degraded) {
        action[b] = Action::degraded;
        continue;
      }
    } else {
      shard.core->prefetch(request, photo);
      shard.stats.requests += 1;
      shard.stats.request_bytes += photo.size_bytes;
    }
    action[b] = Action::normal;
    slot[b] = static_cast<std::uint8_t>(staged);
    ++staged;
    shard.sampler->offer(envelope.index, request,
                         shard.core->stage(request, photo));
  }
  if (staged > 0) {
    // One branch-free batched tree walk for every staged row. The
    // admission-batch histogram records staged rows per gather here
    // (the replay's overload loop records batches of one) — histograms
    // are obs-only and outside RunResult equality.
    shard.core->classify_staged(shard.tree);
    shard.batch_sizes->add(static_cast<double>(staged));
  }

  // Pass 2 — the strictly sequential cache replay in arrival order,
  // consuming the precomputed verdicts on Normal misses.
  for (std::size_t b = 0; b < count; ++b) {
    const Envelope& envelope = batch[b];
    switch (action[b]) {
      case Action::put:
        serve_put(shard, envelope, replies);
        break;
      case Action::shed:
        shed_replies.fetch_add(1, std::memory_order_relaxed);
        add_result(replies, envelope, ResultStatus::shed, false);
        break;
      case Action::degraded: {
        // The paper's Original policy as pressure relief: no extraction,
        // no sampling, no classification; admit every miss cheap.
        const Request& request = trace->requests[envelope.index];
        const PhotoMeta& photo = *photos[b];
        shard.policy->set_next_access_hint(oracle->next[envelope.index]);
        const bool hit =
            shard.policy->access(request.photo, photo.size_bytes);
        shard.recorder.record(hit);
        if (hit) {
          shard.stats.hits += 1;
          shard.stats.hit_bytes += photo.size_bytes;
          add_result(replies, envelope, ResultStatus::hit, true);
          break;
        }
        ++shard.core->degradation.degraded_admits;
        const bool stored = insert_with_ssd_retry(shard, request, photo);
        add_result(replies, envelope,
                   stored ? ResultStatus::miss_admitted
                          : ResultStatus::miss_rejected,
                   true);
        break;
      }
      case Action::normal: {
        const Request& request = trace->requests[envelope.index];
        const PhotoMeta& photo = *photos[b];
        shard.policy->set_next_access_hint(oracle->next[envelope.index]);
        const bool hit =
            shard.policy->access(request.photo, photo.size_bytes);
        shard.recorder.record(hit);
        if (hit) {
          shard.stats.hits += 1;
          shard.stats.hit_bytes += photo.size_bytes;
          add_result(replies, envelope, ResultStatus::hit, false);
          break;
        }
        if (shard.core->admit_staged(slot[b], envelope.index, request,
                                     photo)) {
          bool stored = true;
          if (shard.fluid != nullptr) {
            stored = insert_with_ssd_retry(shard, request, photo);
          } else if (shard.policy->insert(request.photo, photo.size_bytes)) {
            shard.stats.insertions += 1;
            shard.stats.inserted_bytes += photo.size_bytes;
          }
          add_result(replies, envelope,
                     stored ? ResultStatus::miss_admitted
                            : ResultStatus::miss_rejected,
                     false);
        } else {
          shard.stats.rejected += 1;
          shard.stats.rejected_bytes += photo.size_bytes;
          add_result(replies, envelope, ResultStatus::miss_rejected, false);
        }
        break;
      }
    }
  }
  if (shard.fluid != nullptr) {
    // Gather-end snapshot of the queue's own counters (assignment —
    // cumulative, idempotent), as the replay does at epoch ends.
    shard.core->degradation.shed_requests = shard.fluid->shed();
    shard.core->degradation.overload_transitions =
        shard.fluid->transitions();
  }
}

void Daemon::Impl::serve_simple(Shard& shard, const Envelope& envelope,
                                ReplyBatch& replies) {
  // Non-proposal modes, a mirror of the replay's scalar loop.
  const Request& request = trace->requests[envelope.index];
  const PhotoMeta& photo = trace->catalog.photo(request.photo);
  shard.policy->set_next_access_hint(oracle->next[envelope.index]);
  const bool hit = shard.policy->access(request.photo, photo.size_bytes);
  shard.stats.requests += 1;
  shard.stats.request_bytes += photo.size_bytes;
  shard.recorder.record(hit);
  if (hit) {
    shard.stats.hits += 1;
    shard.stats.hit_bytes += photo.size_bytes;
    add_result(replies, envelope, ResultStatus::hit, false);
    return;
  }
  bool admitted = false;
  switch (config.run.mode) {
    case AdmissionMode::original:
      admitted = true;
      break;
    case AdmissionMode::bypass:
      admitted = false;
      break;
    case AdmissionMode::ideal: {
      const std::uint64_t distance =
          oracle->reaccess_distance(envelope.index);
      admitted = distance != kNoNextAccess &&
                 static_cast<double>(distance) <= result.criteria.m;
      break;
    }
    case AdmissionMode::proposal:
      break;  // unreachable: proposal takes the batched path
  }
  if (admitted) {
    if (shard.policy->insert(request.photo, photo.size_bytes)) {
      shard.stats.insertions += 1;
      shard.stats.inserted_bytes += photo.size_bytes;
    }
    add_result(replies, envelope, ResultStatus::miss_admitted, false);
  } else {
    shard.stats.rejected += 1;
    shard.stats.rejected_bytes += photo.size_bytes;
    add_result(replies, envelope, ResultStatus::miss_rejected, false);
  }
}

void Daemon::Impl::serve_put(Shard& shard, const Envelope& envelope,
                             ReplyBatch& replies) {
  // Warm-path upsert: a resident photo is touched (policies require
  // insert() of a non-resident key only), a missing one is inserted.
  // Replacement state moves (and evictions it causes fold into the
  // eviction fingerprint via the callback), but request accounting stays
  // GET-only — PUT traffic shows up in wire counters, not CacheStats, so
  // GET-only runs keep replay equivalence.
  const PhotoMeta& photo = trace->catalog.photo(envelope.request.photo);
  if (!shard.policy->access(envelope.request.photo, photo.size_bytes)) {
    (void)shard.policy->insert(envelope.request.photo, photo.size_bytes);
  }
  add_result(replies, envelope, ResultStatus::put_ok, false);
}

bool Daemon::Impl::insert_with_ssd_retry(Shard& shard,
                                         const Request& request,
                                         const PhotoMeta& photo) {
  // Transient SSD write faults retry in place; once the budget is spent
  // the object is simply not cached — an admission rejection, never an
  // error on the serving path (mirrors the replay's overload loop).
  const int budget = config.run.resilience.ssd_write_max_retries;
  int attempt = 0;
  while (OTAC_FAILPOINT_ACTIVE("storage.ssd.write_error")) {
    if (attempt >= budget) {
      ++shard.core->degradation.ssd_write_drops;
      shard.stats.rejected += 1;
      shard.stats.rejected_bytes += photo.size_bytes;
      return false;
    }
    ++attempt;
    ++shard.core->degradation.ssd_write_retries;
  }
  if (shard.policy->insert(request.photo, photo.size_bytes)) {
    shard.stats.insertions += 1;
    shard.stats.inserted_bytes += photo.size_bytes;
  }
  return true;
}

void Daemon::Impl::send_frames(Connection& conn, const std::uint8_t* data,
                               std::size_t size, std::size_t frames) {
  bool sent = false;
  {
    const std::lock_guard<std::mutex> lock(conn.write_mutex);
    sent = send_all(conn.fd.get(), data, size);
  }
  if (sent) {
    frames_sent.fetch_add(frames, std::memory_order_relaxed);
    socket_writes.fetch_add(1, std::memory_order_relaxed);
  }
}

void Daemon::Impl::add_result(ReplyBatch& replies, const Envelope& envelope,
                              ResultStatus status, bool degraded) const {
  ResultPayload payload;
  payload.status = status;
  payload.degraded = static_cast<std::uint8_t>(degraded ? 1 : 0);
  if (status == ResultStatus::hit) {
    payload.latency_us = hit_latency_us;
  } else if (status == ResultStatus::miss_admitted ||
             status == ResultStatus::miss_rejected) {
    payload.latency_us = miss_latency_us;
  }
  encode_result_frame(replies.frame(replies.count), envelope.sequence,
                      payload);
  replies.conns[replies.count] = envelope.conn;
  ++replies.count;
}

void Daemon::Impl::send_replies(ReplyBatch& replies) {
  // One write per connection: move each connection's frames together
  // (replies carry their sequence, so order across a write is free), then
  // send the run, leaving the batch empty. With one client the first pass
  // swaps nothing.
  std::size_t begin = 0;
  while (begin < replies.count) {
    Connection* conn = replies.conns[begin];
    std::size_t end = begin + 1;
    for (std::size_t i = end; i < replies.count; ++i) {
      if (replies.conns[i] != conn) continue;
      if (i != end) {
        std::swap(replies.conns[i], replies.conns[end]);
        std::swap_ranges(replies.frame(i), replies.frame(i + 1),
                         replies.frame(end));
      }
      ++end;
    }
    send_frames(*conn, replies.frame(begin),
                (end - begin) * kResultFrameBytes, end - begin);
    begin = end;
  }
  replies.count = 0;
}

void Daemon::Impl::send_error(Connection& conn, const std::string& text) {
  // Cold: protocol-violation reply.
  const std::vector<std::uint8_t> frame = encode_frame(
      FrameType::error, 0,
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  send_frames(conn, frame.data(), frame.size(), 1);
}

SummaryPayload Daemon::Impl::build_summary_locked() {
  CacheStats merged = shards[0]->stats;
  for (std::size_t s = 1; s < shards.size(); ++s) {
    merged.merge(shards[s]->stats);
  }
  DegradationCounters degradation = trainer_degradation;
  if (is_proposal) {
    for (const auto& shard : shards) {
      degradation.merge(shard->core->degradation);
    }
  }
  SummaryPayload summary;
  summary.requests = merged.requests;
  summary.hits = merged.hits;
  summary.insertions = merged.insertions;
  summary.rejected = merged.rejected;
  summary.evictions = merged.evictions;
  summary.shed_requests = degradation.shed_requests;
  summary.degraded_admits = degradation.degraded_admits;
  summary.overload_transitions = degradation.overload_transitions;
  summary.retrain_timeouts = degradation.retrain_timeouts;
  summary.trainings = static_cast<std::uint64_t>(result.trainings);
  summary.eviction_hash = merged.eviction_hash;
  summary.file_hit_rate = merged.file_hit_rate();
  summary.byte_hit_rate = merged.byte_hit_rate();
  summary.mean_latency_us = mean_latency_for(merged.file_hit_rate());
  return summary;
}

double Daemon::Impl::mean_latency_for(double hit_rate) const {
  return config.run.mode == AdmissionMode::original ||
                 config.run.mode == AdmissionMode::bypass
             ? latency.mean_access_time_original_us(hit_rate)
             : latency.mean_access_time_proposed_us(hit_rate);
}

void Daemon::Impl::populate_registries() {
  for (const auto& shard : shards) {
    populate_cache_metrics(*shard->registry, shard->stats);
    if (is_proposal) {
      populate_history_metrics(*shard->registry, shard->core->history);
      populate_degradation_metrics(*shard->registry,
                                   shard->core->degradation);
    }
  }
}

void Daemon::Impl::populate_wire_metrics() {
  global_registry.set("daemon.connections",
                      connections_total.load(std::memory_order_relaxed));
  global_registry.set("daemon.frames_received",
                      frames_received.load(std::memory_order_relaxed));
  global_registry.set("daemon.frames_sent",
                      frames_sent.load(std::memory_order_relaxed));
  global_registry.set("daemon.get_requests",
                      get_requests.load(std::memory_order_relaxed));
  global_registry.set("daemon.protocol_errors",
                      protocol_errors.load(std::memory_order_relaxed));
  global_registry.set("daemon.put_requests",
                      put_requests.load(std::memory_order_relaxed));
  global_registry.set("daemon.retry_replies",
                      retry_replies.load(std::memory_order_relaxed));
  global_registry.set("daemon.shed_replies",
                      shed_replies.load(std::memory_order_relaxed));
  global_registry.set("daemon.socket_reads",
                      socket_reads.load(std::memory_order_relaxed));
  global_registry.set("daemon.socket_writes",
                      socket_writes.load(std::memory_order_relaxed));
}

obs::MetricsSnapshot Daemon::Impl::merged_snapshot_now() {
  obs::MetricsSnapshot merged = global_registry.snapshot();
  for (const auto& shard : shards) {
    merged.merge(shard->registry->snapshot());
  }
  return merged;
}

void Daemon::Impl::assemble_result_locked() {
  // Mirror of the replay's end-of-run assembly; every step is an
  // assignment over cumulative state, so re-running it (report frame,
  // then stop) is idempotent.
  result.stats = shards[0]->stats;
  for (std::size_t s = 1; s < shards.size(); ++s) {
    result.stats.merge(shards[s]->stats);
  }
  if (is_proposal) {
    result.degradation = trainer_degradation;
    result.history_capacity = 0;
    result.daily.clear();
    std::map<std::int64_t, DayClassifierMetrics> daily;
    for (const auto& shard : shards) {
      result.history_capacity += shard->core->history.capacity();
      result.degradation.merge(shard->core->degradation);
      for (const DayClassifierMetrics& metrics : shard->core->daily) {
        auto [it, inserted] = daily.try_emplace(metrics.day, metrics);
        if (!inserted) {
          it->second.raw.merge(metrics.raw);
          it->second.corrected.merge(metrics.corrected);
        }
      }
    }
    // Cold: report assembly at stats/report/stop time.
    // otac-lint: allow(hotpath-alloc)
    result.daily.reserve(daily.size());
    for (const auto& [day, metrics] : daily) {
      // otac-lint: allow(hotpath-alloc)
      result.daily.push_back(metrics);
    }
  }
  const double hit_rate = result.stats.file_hit_rate();
  result.mean_latency_us = mean_latency_for(hit_rate);
  populate_registries();
  if (is_proposal) {
    populate_degradation_metrics(global_registry, trainer_degradation);
    global_registry.set("trainer.trainings",
                        static_cast<std::uint64_t>(result.trainings));
  }
  populate_wire_metrics();
  result.obs.source = "otacd";
  result.obs.mode = admission_mode_name(config.run.mode);
  result.obs.policy = policy_name(config.run.policy);
  result.obs.shards = shards.size();
  result.obs.threads = shards.size();  // one worker per shard
  result.obs.per_shard.clear();
  // otac-lint: allow(hotpath-alloc)
  result.obs.per_shard.reserve(shards.size());
  for (const auto& shard : shards) {
    // otac-lint: allow(hotpath-alloc)
    result.obs.per_shard.push_back(shard->registry->snapshot());
  }
  result.obs.merged = merged_snapshot_now();
  if (!trace->requests.empty()) {
    const std::uint64_t last = trace->requests.size() - 1;
    if (result.obs.timeline.empty() ||
        result.obs.timeline.back().request_index != last) {
      // otac-lint: allow(hotpath-alloc)
      result.obs.timeline.push_back(obs::BarrierSample{
          last, trace->requests.back().time.seconds, result.obs.merged});
    }
  }
  result.obs.derived =
      derived_run_metrics(result.stats, result.mean_latency_us);
}

void Daemon::Impl::stop() {
  std::call_once(stop_once, [this] {
    {
      // Under the mutex so a concurrent wait_for_shutdown can't check the
      // predicate and park between the store and the notify.
      const std::lock_guard<std::mutex> lock(shutdown_mutex);
      stop_flag.store(true, std::memory_order_relaxed);
    }
    shutdown_cv.notify_all();
    if (!started) {
      finalized.store(true, std::memory_order_release);
      return;
    }
    listener.shutdown_both();
    if (acceptor.joinable()) acceptor.join();
    {
      const std::lock_guard<std::mutex> lock(connections_mutex);
      for (const auto& connection : connections) {
        connection->fd.shutdown_both();
      }
    }
    // Wake any reader blocked on a full queue (its push returns false),
    // then let the workers drain everything already dispatched.
    for (const auto& shard : shards) shard->inbound.stop();
    for (auto& thread : connection_threads) {
      if (thread.joinable()) thread.join();
    }
    for (const auto& shard : shards) {
      if (shard->worker.joinable()) shard->worker.join();
    }
    {
      const std::unique_lock<std::shared_mutex> lock(dispatch_mutex);
      flush_barriers_locked();
      assemble_result_locked();
    }
    finalized.store(true, std::memory_order_release);
  });
}

Daemon::Daemon(const IntelligentCache& system, DaemonConfig config)
    // otac-lint: allow(hotpath-alloc) one-time construction, not per-request
    : impl_(std::make_unique<Impl>(system, std::move(config))) {}

Daemon::~Daemon() { impl_->stop(); }

void Daemon::start() { impl_->start(); }

std::uint16_t Daemon::port() const { return impl_->bound_port; }

void Daemon::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(impl_->shutdown_mutex);
  impl_->shutdown_cv.wait(lock, [this] {
    return impl_->shutdown_requested ||
           impl_->stop_flag.load(std::memory_order_relaxed);
  });
}

void Daemon::stop() { impl_->stop(); }

const RunResult& Daemon::result() const {
  if (!impl_->finalized.load(std::memory_order_acquire)) {
    throw std::logic_error("Daemon::result() before stop()");
  }
  return impl_->result;
}

DaemonWireStats Daemon::wire_stats() const {
  DaemonWireStats out;
  out.connections =
      impl_->connections_total.load(std::memory_order_relaxed);
  out.frames_received =
      impl_->frames_received.load(std::memory_order_relaxed);
  out.frames_sent = impl_->frames_sent.load(std::memory_order_relaxed);
  out.protocol_errors =
      impl_->protocol_errors.load(std::memory_order_relaxed);
  out.retry_replies = impl_->retry_replies.load(std::memory_order_relaxed);
  out.shed_replies = impl_->shed_replies.load(std::memory_order_relaxed);
  out.get_requests = impl_->get_requests.load(std::memory_order_relaxed);
  out.put_requests = impl_->put_requests.load(std::memory_order_relaxed);
  out.socket_reads = impl_->socket_reads.load(std::memory_order_relaxed);
  out.socket_writes = impl_->socket_writes.load(std::memory_order_relaxed);
  return out;
}

}  // namespace otac::net
