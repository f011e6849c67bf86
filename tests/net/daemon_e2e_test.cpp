// Loopback end-to-end suite for the serving daemon (label `concurrency`,
// so `scripts/ci.sh concurrency` runs it under TSan): the determinism
// contract — one connection, GET frames in trace order, blocking
// dispatch, inline watchdog — must reproduce ShardedCache::run's
// RunResult bit-for-bit, eviction hash included, with real sockets and
// real worker threads underneath. Plus the wire-facing behaviors no
// in-process test can cover: PUT serving, malformed frames answered with
// an ERROR frame and a closed connection, the SHUTDOWN handshake, and the
// batched transport's ordering rules — however the byte stream is cut
// into writes, every GET gets one RESULT, and a STATS or ERROR reply
// follows every RESULT of the frames before it.
#include "net/daemon.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_cache.h"
#include "net/frame_reader.h"
#include "net/loadgen.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "trace/trace_generator.h"

namespace otac::net {
namespace {

const Trace& test_trace() {
  static const Trace trace = [] {
    WorkloadConfig config;
    config.num_owners = 200;
    config.num_photos = 2500;
    config.seed = 7;
    return TraceGenerator{config}.generate();
  }();
  return trace;
}

const IntelligentCache& test_system() {
  static const IntelligentCache system{test_trace()};
  return system;
}

RunConfig serving_config(bool overload) {
  RunConfig config;
  config.policy = PolicyKind::lru;
  config.mode = AdmissionMode::proposal;
  config.capacity_bytes = 6 * 1024 * 1024;
  config.shards = 4;
  config.resilience.overload.enabled = overload;
  // Inline watchdog (timeout 0): retrains run on the barrier thread, the
  // deterministic configuration the daemon's contract is stated for.
  config.resilience.watchdog.timeout_s = 0.0;
  return config;
}

/// One full client session: every trace request in order, full speed
/// (offered_rps 0 disables pacing), then STATS + SHUTDOWN.
LoadgenResult drive(const Daemon& daemon, std::uint64_t put_every = 0) {
  LoadgenConfig config;
  config.port = daemon.port();
  config.offered_rps = 0.0;
  config.put_every = put_every;
  return run_loadgen(test_trace(), config);
}

RunResult serve_once(const RunConfig& config, LoadgenResult* client = nullptr,
                     std::uint64_t put_every = 0) {
  DaemonConfig daemon_config;
  daemon_config.run = config;
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  const LoadgenResult result = drive(daemon, put_every);
  EXPECT_EQ(result.errors, 0u) << result.error_text;
  daemon.stop();
  if (client != nullptr) *client = result;
  return daemon.result();
}

/// GET frames for trace requests [0, count), back to back.
std::vector<std::uint8_t> get_stream(std::uint64_t count) {
  std::vector<std::uint8_t> stream(count * kGetFrameBytes);
  for (std::uint64_t i = 0; i < count; ++i) {
    const Request& request = test_trace().requests[i];
    GetPayload get;
    get.index = i;
    get.time_seconds = request.time.seconds;
    get.photo = request.photo;
    get.terminal = static_cast<std::uint8_t>(request.terminal);
    encode_get_frame(stream.data() + i * kGetFrameBytes, i, get);
  }
  return stream;
}

void append_control(std::vector<std::uint8_t>& stream, FrameType type,
                    std::uint64_t sequence) {
  const std::vector<std::uint8_t> frame = encode_frame(type, sequence, {});
  stream.insert(stream.end(), frame.begin(), frame.end());
}

/// What a raw client session saw, in arrival order.
struct WireLog {
  std::vector<std::uint32_t> replies_per_get;  ///< RESULTs per sequence
  std::uint64_t results = 0;
  std::uint64_t retries = 0;
  std::optional<SummaryPayload> summary;
  std::uint64_t results_before_summary = 0;
  std::string error;
  std::uint64_t results_before_error = 0;
  bool closed = false;  ///< the server closed the connection
};

/// Write `stream` in `piece`-byte sends (0 = one send) while a second
/// thread reads replies until SHUTDOWN's ack or the server closes.
WireLog exchange(const Daemon& daemon, const std::vector<std::uint8_t>& stream,
                 std::uint64_t gets, std::size_t piece = 0) {
  UniqueFd fd = tcp_connect("127.0.0.1", daemon.port());
  WireLog log;
  log.replies_per_get.assign(gets, 0);
  std::thread receiver([&] {
    FrameReader reader{fd.get()};
    try {
      while (const std::optional<FrameView> frame = reader.next()) {
        switch (frame->header.type) {
          case FrameType::result: {
            ++log.results;
            if (decode_result(frame->payload, frame->number).status ==
                ResultStatus::retry) {
              ++log.retries;
            }
            if (frame->header.sequence < gets) {
              ++log.replies_per_get[frame->header.sequence];
            }
            break;
          }
          case FrameType::summary:
            log.summary = decode_summary(frame->payload, frame->number);
            log.results_before_summary = log.results;
            break;
          case FrameType::error:
            log.error.assign(frame->payload.begin(), frame->payload.end());
            log.results_before_error = log.results;
            break;
          case FrameType::shutdown_ack:
            return;
          default:
            log.error = "unexpected reply frame";
            return;
        }
      }
      log.closed = true;
    } catch (const std::exception& error) {
      log.error = error.what();
    }
  });
  const std::size_t step = piece == 0 ? stream.size() : piece;
  for (std::size_t begin = 0; begin < stream.size(); begin += step) {
    const std::size_t size = std::min(step, stream.size() - begin);
    if (!send_all(fd.get(), stream.data() + begin, size)) break;
  }
  receiver.join();
  return log;
}

bool every_get_answered_once(const WireLog& log) {
  return std::all_of(log.replies_per_get.begin(), log.replies_per_get.end(),
                     [](std::uint32_t replies) { return replies == 1; });
}

TEST(DaemonE2e, SameSeedSameScheduleTwiceIsIdentical) {
  const RunConfig config = serving_config(/*overload=*/true);
  const RunResult first = serve_once(config);
  const RunResult second = serve_once(config);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.stats.eviction_hash, second.stats.eviction_hash);
  EXPECT_EQ(first.degradation.shed_requests,
            second.degradation.shed_requests);
  EXPECT_EQ(first.degradation.degraded_admits,
            second.degradation.degraded_admits);
}

TEST(DaemonE2e, MatchesInProcessReplayIncludingEvictionHash) {
  const RunConfig config = serving_config(/*overload=*/false);
  const RunResult over_the_wire = serve_once(config);
  const RunResult in_process = ShardedCache{test_system()}.run(config);
  EXPECT_TRUE(over_the_wire == in_process);
  EXPECT_EQ(over_the_wire.stats.eviction_hash,
            in_process.stats.eviction_hash);
  EXPECT_EQ(over_the_wire.stats.hits, in_process.stats.hits);
  EXPECT_EQ(over_the_wire.trainings, in_process.trainings);
}

TEST(DaemonE2e, OverloadLadderMatchesInProcessShardQueueReplay) {
  // Same arrival schedule through the daemon's per-shard fluid queues and
  // through ShardedCache::run's: shed/degraded accounting must agree in
  // sum (the merged DegradationCounters are part of RunResult equality).
  const RunConfig config = serving_config(/*overload=*/true);
  LoadgenResult client;
  const RunResult over_the_wire = serve_once(config, &client);
  const RunResult in_process = ShardedCache{test_system()}.run(config);
  EXPECT_TRUE(over_the_wire == in_process);
  EXPECT_EQ(over_the_wire.degradation.shed_requests,
            in_process.degradation.shed_requests);
  EXPECT_EQ(over_the_wire.degradation.degraded_admits,
            in_process.degradation.degraded_admits);
  EXPECT_EQ(over_the_wire.degradation.overload_transitions,
            in_process.degradation.overload_transitions);
  // Every shed decision the server took was also reported to the client.
  EXPECT_EQ(client.shed, over_the_wire.degradation.shed_requests);
}

TEST(DaemonE2e, ServerSummaryMatchesClientTallies) {
  const RunConfig config = serving_config(/*overload=*/true);
  LoadgenResult client;
  const RunResult server = serve_once(config, &client);
  EXPECT_EQ(client.requests, test_trace().requests.size());
  EXPECT_EQ(client.replies, client.requests + client.puts);
  EXPECT_EQ(client.server.requests, server.stats.requests);
  EXPECT_EQ(client.server.hits, server.stats.hits);
  EXPECT_EQ(client.server.eviction_hash, server.stats.eviction_hash);
  EXPECT_EQ(client.hits, server.stats.hits);
}

TEST(DaemonE2e, PutFramesInsertAndAreAcknowledged) {
  const RunConfig config = serving_config(/*overload=*/false);
  LoadgenResult client;
  (void)serve_once(config, &client, /*put_every=*/50);
  EXPECT_GT(client.puts, 0u);
  EXPECT_EQ(client.put_oks, client.puts);
  EXPECT_EQ(client.replies, client.requests + client.puts);
}

TEST(DaemonE2e, MalformedFrameGetsErrorReplyAndConnectionClose) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  {
    UniqueFd fd = tcp_connect("127.0.0.1", daemon.port());
    std::array<std::uint8_t, kGetFrameBytes> frame{};
    encode_get_frame(frame.data(), 0, GetPayload{});
    frame[3] = 0x58;  // corrupt the magic
    ASSERT_TRUE(send_all(fd.get(), frame.data(), frame.size()));

    FrameReader reader{fd.get()};
    const std::optional<FrameView> reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->header.type == FrameType::error);
    EXPECT_EQ(std::string(reply->payload.begin(), reply->payload.end()),
              "frame 1: bad magic 0x5841544F");

    // The daemon drops the connection after a protocol error: the next
    // read must see EOF, not a hung socket.
    EXPECT_FALSE(reader.next().has_value());
  }
  daemon.stop();
  EXPECT_EQ(daemon.wire_stats().protocol_errors, 1u);
  EXPECT_EQ(daemon.result().stats.requests, 0u);
}

TEST(DaemonE2e, OversizedHeaderRejectedBeforePayload) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  {
    UniqueFd fd = tcp_connect("127.0.0.1", daemon.port());
    // A GET header declaring a 1 GiB payload; the daemon must reject it
    // from the header alone instead of trying to read (or allocate) it.
    std::array<std::uint8_t, kHeaderBytes> head{};
    encode_header(head.data(), FrameType::get_request, 0, {});
    put_u32(head.data() + 16, 1u << 30);
    ASSERT_TRUE(send_all(fd.get(), head.data(), head.size()));

    FrameReader reader{fd.get()};
    const std::optional<FrameView> reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->header.type == FrameType::error);
    EXPECT_EQ(std::string(reply->payload.begin(), reply->payload.end()),
              "frame 1: oversized payload 1073741824 bytes (max 8388608)");
  }
  daemon.stop();
  EXPECT_EQ(daemon.wire_stats().protocol_errors, 1u);
}

TEST(DaemonE2e, StreamCutIntoAnyWritesMatchesInProcessReplay) {
  // The whole GET stream in one write, then cut into 23-byte pieces
  // (frames straddle every read) and 1-byte pieces (every header and
  // payload split): the server must see the same request stream.
  const RunConfig config = serving_config(/*overload=*/false);
  const RunResult in_process = ShardedCache{test_system()}.run(config);
  const std::uint64_t gets = test_trace().requests.size();
  std::vector<std::uint8_t> stream = get_stream(gets);
  append_control(stream, FrameType::stats_request, gets);
  append_control(stream, FrameType::shutdown_request, gets + 1);
  for (const std::size_t piece : {std::size_t{0}, std::size_t{23},
                                  std::size_t{1}}) {
    SCOPED_TRACE("piece " + std::to_string(piece));
    DaemonConfig daemon_config;
    daemon_config.run = config;
    Daemon daemon{test_system(), daemon_config};
    daemon.start();
    const WireLog log = exchange(daemon, stream, gets, piece);
    daemon.stop();
    EXPECT_EQ(log.error, "");
    EXPECT_TRUE(every_get_answered_once(log));
    ASSERT_TRUE(log.summary.has_value());
    EXPECT_EQ(log.results_before_summary, gets);
    EXPECT_EQ(log.summary->eviction_hash, in_process.stats.eviction_hash);
    EXPECT_TRUE(daemon.result() == in_process);
    EXPECT_EQ(daemon.result().stats.eviction_hash,
              in_process.stats.eviction_hash);
    EXPECT_GT(daemon.wire_stats().socket_reads, 0u);
  }
}

TEST(DaemonE2e, CorruptFrameAfterValidGetsAnswersThemFirst) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  constexpr std::uint64_t kGets = 100;
  std::vector<std::uint8_t> stream = get_stream(kGets + 1);
  stream[kGets * kGetFrameBytes + 3] = 0x58;  // corrupt the last magic
  const WireLog log = exchange(daemon, stream, kGets);
  daemon.stop();
  EXPECT_TRUE(every_get_answered_once(log));
  EXPECT_EQ(log.error, "frame 101: bad magic 0x5841544F");
  EXPECT_EQ(log.results_before_error, kGets);
  EXPECT_TRUE(log.closed);
  EXPECT_EQ(daemon.wire_stats().protocol_errors, 1u);
  EXPECT_EQ(daemon.result().stats.requests, kGets);
}

TEST(DaemonE2e, StatsAfterBurstFollowsEveryResult) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/true);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  constexpr std::uint64_t kGets = 500;
  std::vector<std::uint8_t> stream = get_stream(kGets);
  append_control(stream, FrameType::stats_request, kGets);
  append_control(stream, FrameType::shutdown_request, kGets + 1);
  const WireLog log = exchange(daemon, stream, kGets);
  daemon.stop();
  EXPECT_EQ(log.error, "");
  ASSERT_TRUE(log.summary.has_value());
  EXPECT_EQ(log.results_before_summary, kGets);
  EXPECT_EQ(log.summary->requests, kGets);
  EXPECT_TRUE(every_get_answered_once(log));
  // One read carried the burst and both control frames; the replies went
  // out in gathers, far fewer writes than frames.
  const DaemonWireStats wire = daemon.wire_stats();
  EXPECT_EQ(wire.frames_sent, kGets + 2);
  EXPECT_LT(wire.socket_writes, wire.frames_sent);
}

TEST(DaemonE2e, QuietClientStillGetsItsResults) {
  // A closed-loop client: GETs, then nothing until their RESULTs arrive.
  // The reader must queue what it staged before it blocks in recv().
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  {
    UniqueFd fd = tcp_connect("127.0.0.1", daemon.port());
    timeval timeout{};
    timeout.tv_sec = 5;  // a stranded request fails the test, not hangs it
    ASSERT_EQ(::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    constexpr std::uint64_t kGets = 10;
    const std::vector<std::uint8_t> stream = get_stream(kGets);
    ASSERT_TRUE(send_all(fd.get(), stream.data(), stream.size()));
    FrameReader reader{fd.get()};
    for (std::uint64_t i = 0; i < kGets; ++i) {
      const std::optional<FrameView> reply = reader.next();
      ASSERT_TRUE(reply.has_value()) << "reply " << i;
      EXPECT_TRUE(reply->header.type == FrameType::result);
    }
  }
  daemon.stop();
  EXPECT_EQ(daemon.result().stats.requests, 10u);
}

TEST(DaemonE2e, RetryWhenFullAnswersEveryGetOnce) {
  // A one-slot queue under a burst refuses most of each staged run; the
  // refused tail is answered RETRY, everything queued is served.
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  daemon_config.retry_when_full = true;
  daemon_config.queue_capacity = 1;
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  const std::uint64_t gets = test_trace().requests.size();
  std::vector<std::uint8_t> stream = get_stream(gets);
  append_control(stream, FrameType::stats_request, gets);
  append_control(stream, FrameType::shutdown_request, gets + 1);
  const WireLog log = exchange(daemon, stream, gets);
  daemon.stop();
  EXPECT_EQ(log.error, "");
  EXPECT_TRUE(every_get_answered_once(log));
  EXPECT_GT(log.retries, 0u);
  ASSERT_TRUE(log.summary.has_value());
  EXPECT_EQ(log.summary->requests + log.retries, gets);
  EXPECT_EQ(daemon.wire_stats().retry_replies, log.retries);
}

TEST(DaemonE2e, ShutdownHandshakeUnblocksWaiters) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  {
    UniqueFd fd = tcp_connect("127.0.0.1", daemon.port());
    const std::vector<std::uint8_t> request =
        encode_frame(FrameType::shutdown_request, 1, {});
    ASSERT_TRUE(send_all(fd.get(), request.data(), request.size()));
    FrameReader reader{fd.get()};
    const std::optional<FrameView> reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->header.type == FrameType::shutdown_ack);
  }
  // Returns because of the SHUTDOWN frame, not a stop() call.
  daemon.wait_for_shutdown();
  daemon.stop();
  EXPECT_EQ(daemon.result().stats.requests, 0u);
}

TEST(DaemonE2e, ResultBeforeStopThrows) {
  DaemonConfig daemon_config;
  daemon_config.run = serving_config(/*overload=*/false);
  Daemon daemon{test_system(), daemon_config};
  daemon.start();
  EXPECT_THROW((void)daemon.result(), std::logic_error);
  daemon.stop();
  EXPECT_NO_THROW((void)daemon.result());
}

}  // namespace
}  // namespace otac::net
