#include "core/sharded_cache.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/history_table.h"
#include "core/model_slot.h"
#include "core/run_metrics.h"
#include "core/serving_core.h"
#include "core/shard_queue.h"
#include "core/trainer.h"
#include "core/trainer_watchdog.h"
#include "storage/latency_model.h"
#include "util/failpoint.h"
#include "util/sim_time.h"
#include "util/thread_pool.h"

namespace otac {

std::size_t shard_of_photo(PhotoId photo, std::size_t shards) noexcept {
  // SplitMix64 finalizer: photo ids are often sequential, so a plain
  // `photo % shards` would stripe hot neighborhoods; the mixer spreads them.
  std::uint64_t x = static_cast<std::uint64_t>(photo) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

std::vector<std::uint64_t> retrain_trigger_indices(const Trace& trace,
                                                   const OtaConfig& ota) {
  // Mirror of the schedule in ClassifierSystem::observe — including the
  // subtlety that last_trained_time advances on every *due* event, whether
  // or not that train produced a model. The schedule reads only request
  // times, which is what lets the sharded replay precompute its barriers.
  std::vector<std::uint64_t> triggers;
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::min();
  std::int64_t last_trained_day = kNever;
  std::int64_t last_trained_time = kNever;
  const bool interval_mode = ota.retrain_interval_hours > 0.0;
  const auto interval =
      static_cast<std::int64_t>(ota.retrain_interval_hours * kSecondsPerHour);
  for (std::uint64_t i = 0; i < trace.requests.size(); ++i) {
    const SimTime time = trace.requests[i].time;
    bool due = false;
    if (interval_mode) {
      due = last_trained_time == kNever ||
            time.seconds - last_trained_time >= interval;
    } else {
      const std::int64_t day = day_index(time);
      due = hour_of_day(time) >= ota.retrain_hour && day > last_trained_day;
      if (due) last_trained_day = day;
    }
    if (due) {
      // Cold: trigger precompute runs once per run, before replay starts.
      // otac-lint: allow(hotpath-alloc)
      triggers.push_back(i);
      last_trained_time = time.seconds;
    }
  }
  return triggers;
}

std::vector<TrainingSample> merge_trace_ordered(
    std::span<const std::deque<TrainingSample>* const> buffers) {
  std::size_t total = 0;
  for (const std::deque<TrainingSample>* buffer : buffers) {
    total += buffer->size();
  }
  // Cold: one merge per retrain barrier.
  std::vector<TrainingSample> merged;
  merged.reserve(total);  // otac-lint: allow(hotpath-alloc)

  // Min-heap of every buffer's next unmerged sample, keyed by trace index.
  using Cursor = std::pair<std::deque<TrainingSample>::const_iterator,
                           std::deque<TrainingSample>::const_iterator>;
  std::vector<Cursor> heads;
  heads.reserve(buffers.size());  // otac-lint: allow(hotpath-alloc)
  for (const std::deque<TrainingSample>* buffer : buffers) {
    if (!buffer->empty()) {
      // otac-lint: allow(hotpath-alloc)
      heads.emplace_back(buffer->begin(), buffer->end());
    }
  }
  const auto later = [](const Cursor& a, const Cursor& b) {
    return a.first->index > b.first->index;
  };
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Cursor& head = heads.back();
    merged.push_back(*head.first);  // otac-lint: allow(hotpath-alloc)
    if (++head.first == head.second) {
      heads.pop_back();
    } else {
      std::push_heap(heads.begin(), heads.end(), later);
    }
  }
  return merged;
}

namespace {

// One entry of a shard's request stream: the request's trace position and
// its photo, in the 8 bytes a bare 64-bit index took. The original loop
// reads the photo from here and never loads the Request itself.
struct ShardRequest {
  std::uint32_t index;
  PhotoId photo;
};
static_assert(sizeof(ShardRequest) == 8, "ShardRequest should stay packed");

// Each shard's requests in trace order. A counting pass sizes every
// stream exactly and a fill pass writes the entries by index, so no
// stream ever grows. One vector per shard (rather than one flat array)
// keeps each allocation small enough for the allocator to recycle across
// runs instead of mapping fresh pages every time.
std::vector<std::vector<ShardRequest>> build_shard_streams(
    const Trace& trace, std::size_t shards) {
  const std::vector<Request>& requests = trace.requests;
  if (requests.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "ShardedCache: trace longer than 2^32 - 1 requests");
  }
  // Cold: one-time partition before the replay loop.
  std::vector<std::size_t> fill(shards, 0);
  for (const Request& request : requests) {
    ++fill[shard_of_photo(request.photo, shards)];
  }
  std::vector<std::vector<ShardRequest>> streams(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    streams[s].resize(fill[s]);  // otac-lint: allow(hotpath-alloc)
    fill[s] = 0;
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PhotoId photo = requests[i].photo;
    const std::size_t s = shard_of_photo(photo, shards);
    streams[s][fill[s]++] = ShardRequest{static_cast<std::uint32_t>(i), photo};
  }
  return streams;
}

inline void prefetch_read(const void* address) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address);
#else
  (void)address;
#endif
}

// How far ahead along its stream the original loop warms a PhotoMeta. At
// ~100 ns per request, 8 entries is several memory latencies ahead, yet
// the line is still cached when its entry comes up (4 to 32 measured
// the same on the photo_original workload).
constexpr std::size_t kOriginalLookahead = 8;

// Everything one shard owns on the request path. Shards interact only
// through the shared model slot (the shared last-access array is split by
// photo, so no slot has two writers), so workers never contend on this
// state — including the metrics registry: each shard accumulates into its
// own and the registries meet only at barriers (merged in shard order).
struct ShardState {
  std::unique_ptr<CachePolicy> policy;
  std::unique_ptr<ServingCore> core;      // proposal only
  std::unique_ptr<DailyTrainer> sampler;  // proposal only: budget + buffer
  std::unique_ptr<ShardQueue> queue;      // proposal + overload only
  std::unique_ptr<obs::MetricsRegistry> registry;
  obs::LatencyRecorder recorder;
  obs::FixedHistogram* batch_sizes = nullptr;  // proposal only
  ml::CompiledTree compiled;  // per-shard model snapshot (proposal only)
  CacheStats stats;
  std::size_t pos = 0;  // cursor into this shard's request stream
};

// Copy each shard's cumulative totals into its registry (idempotent
// assignment) — called at every barrier and once at the end of the run.
void populate_shard_registries(std::vector<ShardState>& states,
                               bool is_proposal) {
  for (ShardState& state : states) {
    populate_cache_metrics(*state.registry, state.stats);
    if (is_proposal) {
      populate_history_metrics(*state.registry, state.core->history);
      populate_degradation_metrics(*state.registry, state.core->degradation);
    }
  }
}

// Merged view at a deterministic point: trainer-side registry first, then
// shard registries folded in shard order.
obs::MetricsSnapshot merged_snapshot(const obs::MetricsRegistry& global,
                                     const std::vector<ShardState>& states) {
  obs::MetricsSnapshot merged = global.snapshot();
  for (const ShardState& state : states) {
    merged.merge(state.registry->snapshot());
  }
  return merged;
}

}  // namespace

ShardedCache::ShardedCache(const IntelligentCache& system)
    : system_(&system), trace_(&system.trace()) {}

RunResult ShardedCache::run(const RunConfig& config) const {
  if (config.capacity_bytes == 0) {
    throw std::invalid_argument("ShardedCache: zero capacity");
  }
  const std::size_t shards = config.shards;
  if (shards == 0) {
    throw std::invalid_argument("ShardedCache: zero shards");
  }
  const std::uint64_t shard_capacity = config.capacity_bytes / shards;
  if (shard_capacity == 0) {
    throw std::invalid_argument(
        "ShardedCache: capacity splits to zero bytes per shard");
  }

  RunResult result;
  const Trace& trace = *trace_;
  const NextAccessInfo& oracle = system_->oracle();
  const bool is_proposal = config.mode == AdmissionMode::proposal;

  // Criteria / cost are global properties of the trace and total capacity —
  // shards share one M and one cost matrix, exactly as the unsharded system.
  const bool needs_criteria =
      is_proposal || config.mode == AdmissionMode::ideal;
  if (needs_criteria) {
    const double h = config.hit_rate_estimate
                         ? *config.hit_rate_estimate
                         : system_->estimate_hit_rate(config.capacity_bytes);
    result.criteria = compute_criteria(trace, oracle, config.capacity_bytes, h,
                                       config.ota.criteria_iterations);
    if (config.policy == PolicyKind::lirs) {
      result.criteria.m =
          lirs_criteria(result.criteria.m, config.lirs_lir_fraction);
    }
    result.cost_v = system_->cost_v_for(config.capacity_bytes, config.ota);
  }

  // Keyspace partition, materialized as per-shard request streams so each
  // worker walks a dense array instead of filtering the whole trace.
  const std::vector<std::vector<ShardRequest>> streams =
      build_shard_streams(trace, shards);

  ServingConfig serving;
  std::size_t history_slice = 0;
  OtaConfig sampler_ota = config.ota;
  std::size_t model_arity = 0;
  if (is_proposal) {
    serving.feature_subset = config.ota.feature_subset;
    serving.m = result.criteria.m;
    serving.admit_before_first_model = config.ota.admit_before_first_model;
    const std::size_t history_total = history_table_capacity(
        result.criteria.m, result.criteria.h, result.criteria.p,
        config.ota.history_table_factor);
    history_slice = history_total / shards;
    if (history_slice == 0 && history_total > 0) history_slice = 1;
    // Each shard applies its 1/N slice of the per-minute sampling budget,
    // so the aggregate sampling rate matches the paper's §3.1.1 knob (and
    // shards=1 keeps the exact unsharded budget).
    const int rate = config.ota.sample_records_per_minute;
    sampler_ota.sample_records_per_minute =
        rate == 0 ? 0 : std::max(1, rate / static_cast<int>(shards));
    model_arity = config.ota.feature_subset.empty()
                      ? FeatureExtractor::kFeatureCount
                      : config.ota.feature_subset.size();
  }

  // Every photo lives in exactly one shard, so the shards' extractors
  // share one photo-indexed last-access array: each writes only its own
  // photos' slots.
  std::vector<std::int64_t> last_access;
  if (is_proposal) {
    // otac-lint: allow(hotpath-alloc)
    last_access.resize(trace.catalog.photo_count(),
                       FeatureExtractor::kNeverAccessed);
  }

  const LatencyModel latency{config.latency};
  const bool classified_path =
      is_proposal || config.mode == AdmissionMode::ideal;
  std::vector<ShardState> states(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    ShardState& state = states[s];
    state.policy = make_policy(config.policy, shard_capacity,
                               config.lirs_lir_fraction);
    // Cold: per-shard construction, once per run.
    // otac-lint: allow(hotpath-alloc)
    state.registry = std::make_unique<obs::MetricsRegistry>();
    state.recorder = obs::LatencyRecorder{
        state.registry->histogram(kLatencyHistogramName,
                                  LatencyModel::histogram_bounds_us()),
        latency.request_latency_us(true, classified_path),
        latency.request_latency_us(false, classified_path)};
    if (is_proposal) {
      // otac-lint: allow(hotpath-alloc)
      state.core = std::make_unique<ServingCore>(
          trace.catalog, oracle, serving, history_slice, last_access);
      state.core->bind_metrics(*state.registry);
      // otac-lint: allow(hotpath-alloc)
      state.sampler = std::make_unique<DailyTrainer>(
          oracle, sampler_ota, result.criteria.m, result.cost_v);
      state.batch_sizes = state.registry->histogram(
          kAdmissionBatchHistogramName, admission_batch_histogram_bounds());
      if (config.resilience.overload.enabled) {
        // otac-lint: allow(hotpath-alloc)
        state.queue = std::make_unique<ShardQueue>(config.resilience.overload);
      }
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    CacheStats* stats = &states[s].stats;  // states never reallocates now
    states[s].policy->set_eviction_callback(
        [stats](PhotoId key, std::uint32_t size) {
          stats->note_eviction(key, size);
        });
  }

  // The one shared mutable object: workers load it once per epoch, the
  // trainer swaps it at barriers. DegradationCounters for the trainer side
  // live outside the shards (merged into the result at the end), and so
  // does the trainer's registry — barriers are the only writers, so it
  // needs no synchronization either.
  ModelSlot model;
  DailyTrainer trainer{oracle, config.ota, result.criteria.m, result.cost_v};
  // Retrain supervision (core/trainer_watchdog.h). With the default
  // WatchdogConfig (inline, zero retries) this is exactly the historical
  // try/catch-once barrier, so default-config replays stay bit-identical.
  TrainerWatchdog watchdog{trainer, config.resilience.watchdog};
  DegradationCounters trainer_degradation;
  obs::MetricsRegistry global_registry;
  obs::FixedHistogram* fit_seconds = global_registry.histogram(
      kFitHistogramName, duration_histogram_bounds_s());
  obs::MetricsRegistry::Counter fits = global_registry.counter("trainer.fits");
  obs::MetricsRegistry::Counter fit_skipped =
      global_registry.counter("trainer.fit_skipped");
  obs::MetricsRegistry::Counter models_published =
      global_registry.counter("trainer.models_published");
  obs::MetricsRegistry::Counter samples_drained =
      global_registry.counter("trainer.samples_drained");
  obs::MetricsRegistry::Counter compiled_tree_swaps =
      global_registry.counter("trainer.compiled_tree_swaps");
  std::vector<std::uint64_t> triggers;
  // One slot per shard, refilled at every barrier.
  std::vector<const std::deque<TrainingSample>*> sample_buffers(shards);
  if (is_proposal) triggers = retrain_trigger_indices(trace, config.ota);

  const std::size_t hardware = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t threads =
      std::min(shards, config.threads != 0 ? config.threads : hardware);
  ThreadPool pool{threads};

  const std::uint64_t total_requests = trace.requests.size();
  const double criteria_m = result.criteria.m;
  std::uint64_t epoch_begin = 0;
  std::size_t next_trigger = 0;
  while (epoch_begin < total_requests) {
    const bool has_trigger = is_proposal && next_trigger < triggers.size();
    const std::uint64_t epoch_end =
        has_trigger ? triggers[next_trigger] + 1 : total_requests;

    pool.parallel_for(shards, [&](std::size_t s) {
      ShardState& state = states[s];
      const std::vector<ShardRequest>& mine = streams[s];

      if (!is_proposal) {
        for (; state.pos < mine.size() && mine[state.pos].index < epoch_end;
             ++state.pos) {
          if (state.pos + kOriginalLookahead < mine.size()) {
            prefetch_read(&trace.catalog.photo(
                mine[state.pos + kOriginalLookahead].photo));
          }
          const ShardRequest entry = mine[state.pos];
          const std::uint64_t i = entry.index;
          const PhotoMeta& photo = trace.catalog.photo(entry.photo);
          state.policy->set_next_access_hint(oracle.next[i]);
          const bool hit = state.policy->access(entry.photo, photo.size_bytes);
          state.stats.requests += 1;
          state.stats.request_bytes += photo.size_bytes;
          state.recorder.record(hit);
          if (hit) {
            state.stats.hits += 1;
            state.stats.hit_bytes += photo.size_bytes;
            continue;
          }
          bool admitted = false;
          switch (config.mode) {
            case AdmissionMode::original:
              admitted = true;
              break;
            case AdmissionMode::bypass:
              admitted = false;
              break;
            case AdmissionMode::ideal: {
              const std::uint64_t distance = oracle.reaccess_distance(i);
              admitted = distance != kNoNextAccess &&
                         static_cast<double>(distance) <= criteria_m;
              break;
            }
            case AdmissionMode::proposal:
              break;  // handled by the batched loop below
          }
          if (admitted) {
            if (state.policy->insert(entry.photo, photo.size_bytes)) {
              state.stats.insertions += 1;
              state.stats.inserted_bytes += photo.size_bytes;
            }
          } else {
            state.stats.rejected += 1;
            state.stats.rejected_bytes += photo.size_bytes;
          }
        }
        return;
      }

      // Proposal mode: micro-batched serving. One seqlock load per epoch —
      // the model is constant between retrain barriers, which matches the
      // unsharded visibility rule (a retrain inside observe(i) serves
      // requests from i+1 on).
      const ml::CompiledTree* tree =
          model.load(state.compiled) ? &state.compiled : nullptr;

      if (state.queue != nullptr) {
        // Overload-resilience loop (core/shard_queue.h): scalar serving
        // gated by the shard's degradation state machine. Only taken when
        // OverloadConfig::enabled — the default batched path below stays
        // byte-identical to the pre-resilience code. Per-request failpoint
        // evaluations (registry mutex + hash lookup) are acceptable here
        // by the same reasoning: the cost is confined to this opt-in path.
        const OverloadConfig& overload = config.resilience.overload;
        const int ssd_budget = config.resilience.ssd_write_max_retries;
        DegradationCounters& degradation = state.core->degradation;
        const auto insert_with_ssd_retry = [&](const Request& request,
                                               const PhotoMeta& photo) {
          // Transient SSD write faults retry in place (a re-evaluation of
          // the failpoint models the re-issued write); after the budget
          // the object is simply not cached — admission rejection, never
          // an error on the serving path.
          int attempt = 0;
          while (OTAC_FAILPOINT_ACTIVE("storage.ssd.write_error")) {
            if (attempt >= ssd_budget) {
              ++degradation.ssd_write_drops;
              state.stats.rejected += 1;
              state.stats.rejected_bytes += photo.size_bytes;
              return;
            }
            ++attempt;
            ++degradation.ssd_write_retries;
          }
          if (state.policy->insert(request.photo, photo.size_bytes)) {
            state.stats.insertions += 1;
            state.stats.inserted_bytes += photo.size_bytes;
          }
        };

        for (; state.pos < mine.size() && mine[state.pos].index < epoch_end;
             ++state.pos) {
          const std::uint64_t i = mine[state.pos].index;
          const Request& request = trace.requests[i];
          const PhotoMeta& photo = trace.catalog.photo(request.photo);
          if (OTAC_FAILPOINT_ACTIVE("chaos.flash_crowd")) {
            state.queue->inject(overload.flash_crowd_burst);
          }
          const OverloadState pressure = state.queue->on_request(
              static_cast<double>(request.time.seconds));
          state.stats.requests += 1;
          state.stats.request_bytes += photo.size_bytes;
          if (pressure == OverloadState::shedding) {
            // Dropped before any serving work — no cache lookup, no
            // feature extraction, no sample. Counted as a rejection so
            // the stats stay coherent (hits + insertions + rejected ==
            // requests); the shard-level shed total is snapshotted from
            // the queue after the epoch.
            state.stats.rejected += 1;
            state.stats.rejected_bytes += photo.size_bytes;
            state.recorder.record(false);
            continue;
          }
          if (pressure == OverloadState::degraded) {
            // The paper's Original policy as pressure relief: skip the
            // whole ML half (extraction, sampling, classification) and
            // admit every miss cheap.
            state.policy->set_next_access_hint(oracle.next[i]);
            const bool hit =
                state.policy->access(request.photo, photo.size_bytes);
            state.recorder.record(hit);
            if (hit) {
              state.stats.hits += 1;
              state.stats.hit_bytes += photo.size_bytes;
              continue;
            }
            ++degradation.degraded_admits;
            insert_with_ssd_retry(request, photo);
            continue;
          }
          // Normal: the full ML admission path as a batch of one —
          // identical semantics to the batched loop below, at scalar
          // granularity so the state machine can redirect the very next
          // request.
          state.core->begin_batch();
          state.sampler->offer(i, request, state.core->stage(request, photo));
          state.core->classify_staged(tree);
          state.batch_sizes->add(1.0);
          state.policy->set_next_access_hint(oracle.next[i]);
          const bool hit =
              state.policy->access(request.photo, photo.size_bytes);
          state.recorder.record(hit);
          if (hit) {
            state.stats.hits += 1;
            state.stats.hit_bytes += photo.size_bytes;
            continue;
          }
          if (state.core->admit_staged(0, i, request, photo)) {
            insert_with_ssd_retry(request, photo);
          } else {
            state.stats.rejected += 1;
            state.stats.rejected_bytes += photo.size_bytes;
          }
        }
        // Epoch-end snapshot of the queue's own counters into the shard's
        // DegradationCounters (assignment — cumulative, idempotent).
        degradation.shed_requests = state.queue->shed();
        degradation.overload_transitions = state.queue->transitions();
        return;
      }

      constexpr std::size_t kBatch = ServingCore::kAdmissionBatchCapacity;
      while (state.pos < mine.size() && mine[state.pos].index < epoch_end) {
        // Size the batch: up to kBatch requests, never crossing the epoch
        // barrier — batch boundaries therefore depend only on the trace
        // and the retrain schedule, keeping the replay deterministic and
        // the batch size invisible to results.
        std::size_t batch = 0;
        while (batch < kBatch && state.pos + batch < mine.size() &&
               mine[state.pos + batch].index < epoch_end) {
          ++batch;
        }

        // Warm the next batch's lines now, so they arrive while this batch
        // is served: its PhotoMeta, Request and oracle entries, and the
        // per-photo last-access slot and history bucket. The stream
        // supplies the photo id, so none of these loads waits on another.
        // Lines fetched past the epoch end are only hints; they change
        // nothing.
        const std::size_t ahead_end =
            std::min(mine.size(), state.pos + batch + kBatch);
        for (std::size_t a = state.pos + batch; a < ahead_end; ++a) {
          const ShardRequest ahead = mine[a];
          prefetch_read(&trace.catalog.photo(ahead.photo));
          prefetch_read(&trace.requests[ahead.index]);
          prefetch_read(&oracle.next[ahead.index]);
          prefetch_read(&last_access[ahead.photo]);
          state.core->history.prefetch(ahead.photo);
        }

        // Gather: warm the extractor's per-owner state (its address needs
        // the PhotoMeta) for the whole batch so those loads overlap too.
        std::array<const PhotoMeta*, kBatch> photos;
        for (std::size_t b = 0; b < batch; ++b) {
          const ShardRequest entry = mine[state.pos + b];
          photos[b] = &trace.catalog.photo(entry.photo);
          state.core->prefetch(trace.requests[entry.index], *photos[b]);
        }

        // Pass 1 — model-independent per-request work, in trace order:
        // feature extraction into the arena, the training-sample offer,
        // and the extractor advance (all inside/around stage()).
        state.core->begin_batch();
        for (std::size_t b = 0; b < batch; ++b) {
          const std::uint64_t i = mine[state.pos + b].index;
          const Request& request = trace.requests[i];
          state.sampler->offer(i, request,
                               state.core->stage(request, *photos[b]));
        }

        // Pass 2 — one branch-free batched tree walk for every staged row.
        // Predictions depend only on extractor state, never on the cache
        // or history, so classifying ahead of the sequential replay below
        // is bit-identical to predicting at each miss.
        state.core->classify_staged(tree);
        state.batch_sizes->add(static_cast<double>(batch));

        // Pass 3 — the strictly sequential cache replay, consuming the
        // precomputed verdicts on misses.
        for (std::size_t b = 0; b < batch; ++b) {
          const std::uint64_t i = mine[state.pos + b].index;
          const Request& request = trace.requests[i];
          const PhotoMeta& photo = *photos[b];
          state.policy->set_next_access_hint(oracle.next[i]);
          const bool hit =
              state.policy->access(request.photo, photo.size_bytes);
          state.stats.requests += 1;
          state.stats.request_bytes += photo.size_bytes;
          state.recorder.record(hit);
          if (hit) {
            state.stats.hits += 1;
            state.stats.hit_bytes += photo.size_bytes;
            continue;
          }
          if (state.core->admit_staged(b, i, request, photo)) {
            if (state.policy->insert(request.photo, photo.size_bytes)) {
              state.stats.insertions += 1;
              state.stats.inserted_bytes += photo.size_bytes;
            }
          } else {
            state.stats.rejected += 1;
            state.stats.rejected_bytes += photo.size_bytes;
          }
        }
        state.pos += batch;
      }
    });

    if (has_trigger) {
      const std::uint64_t trigger = triggers[next_trigger];
      ++next_trigger;
      // Drain the shard buffers into the global trainer, merged in trace
      // order so the training set (and its window pruning) is independent
      // of both shard count and scheduling.
      for (std::size_t s = 0; s < shards; ++s) {
        sample_buffers[s] = &states[s].sampler->samples();
      }
      std::vector<TrainingSample> drained =
          merge_trace_ordered(sample_buffers);
      for (ShardState& state : states) {
        state.sampler->restore({}, state.sampler->current_minute(),
                               state.sampler->minute_count());
      }
      *samples_drained += drained.size();
      const auto fit_started = std::chrono::steady_clock::now();
      const RetrainOutcome outcome = watchdog.retrain(
          std::move(drained), trigger, trace.requests[trigger].time);
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
            } else {
              // A tree too large for the slot is as unservable as one that
              // fails validation.
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
          // Shards keep serving the last-good generation; the watchdog has
          // buffered this barrier's samples for a later idle barrier.
          ++trainer_degradation.retrain_timeouts;
          break;
      }
      fit_seconds->add(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - fit_started)
                           .count());

      // Barrier snapshot: all shards are quiescent here (the parallel_for
      // above is a full join), so this merged view is a pure function of
      // trace position — the time-series the run report exports.
      populate_shard_registries(states, is_proposal);
      populate_degradation_metrics(global_registry, trainer_degradation);
      global_registry.set("trainer.trainings",
                          static_cast<std::uint64_t>(result.trainings));
      // Cold: retrain barrier (9 per replay), not the per-request loop.
      // otac-lint: allow(hotpath-alloc)
      result.obs.timeline.push_back(
          obs::BarrierSample{trigger, trace.requests[trigger].time.seconds,
                             merged_snapshot(global_registry, states)});
    }
    epoch_begin = epoch_end;
  }

  // Merge in shard order — deterministic, and for shards=1 the copy of
  // shard 0 keeps the eviction hash equal to the raw sequence hash.
  result.stats = states[0].stats;
  for (std::size_t s = 1; s < shards; ++s) {
    result.stats.merge(states[s].stats);
  }
  if (is_proposal) {
    result.degradation = trainer_degradation;
    std::map<std::int64_t, DayClassifierMetrics> daily;
    for (const ShardState& state : states) {
      result.history_capacity += state.core->history.capacity();
      result.degradation.merge(state.core->degradation);
      for (const DayClassifierMetrics& metrics : state.core->daily) {
        auto [it, inserted] = daily.try_emplace(metrics.day, metrics);
        if (!inserted) {
          it->second.raw.merge(metrics.raw);
          it->second.corrected.merge(metrics.corrected);
        }
      }
    }
    // Cold: end-of-run report assembly.
    // otac-lint: allow(hotpath-alloc)
    result.daily.reserve(daily.size());
    for (const auto& [day, metrics] : daily) {
      // otac-lint: allow(hotpath-alloc)
      result.daily.push_back(metrics);
    }
  }

  const double hit_rate = result.stats.file_hit_rate();
  result.mean_latency_us =
      config.mode == AdmissionMode::original ||
              config.mode == AdmissionMode::bypass
          ? latency.mean_access_time_original_us(hit_rate)
          : latency.mean_access_time_proposed_us(hit_rate);

  // Final report: end-of-run per-shard snapshots, the merged view, and an
  // end-of-trace timeline sample when the last barrier wasn't already the
  // final request (non-proposal modes have no barriers at all).
  populate_shard_registries(states, is_proposal);
  if (is_proposal) {
    populate_degradation_metrics(global_registry, trainer_degradation);
    global_registry.set("trainer.trainings",
                        static_cast<std::uint64_t>(result.trainings));
  }
  result.obs.mode = admission_mode_name(config.mode);
  result.obs.policy = policy_name(config.policy);
  result.obs.shards = shards;
  result.obs.threads = threads;
  // Cold: end-of-run report assembly.
  // otac-lint: allow(hotpath-alloc)
  result.obs.per_shard.reserve(shards);
  for (const ShardState& state : states) {
    // otac-lint: allow(hotpath-alloc)
    result.obs.per_shard.push_back(state.registry->snapshot());
  }
  result.obs.merged = merged_snapshot(global_registry, states);
  if (!trace.requests.empty()) {
    const std::uint64_t last = trace.requests.size() - 1;
    if (result.obs.timeline.empty() ||
        result.obs.timeline.back().request_index != last) {
      // otac-lint: allow(hotpath-alloc)
      result.obs.timeline.push_back(obs::BarrierSample{
          last, trace.requests.back().time.seconds, result.obs.merged});
    }
  }
  result.obs.derived =
      derived_run_metrics(result.stats, result.mean_latency_us);
  return result;
}

}  // namespace otac
