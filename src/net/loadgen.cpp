#include "net/loadgen.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/frame_reader.h"
#include "net/socket.h"

namespace otac::net {

namespace {

/// PUT frames reuse the request index as sequence with the top bit set so
/// they never collide with GET sequences (plain trace indices).
constexpr std::uint64_t kPutSequenceBit = 1ULL << 63;

/// Requests coalesced into one write when several are due at once, and
/// the bytes one request can put on the wire (a PUT plus its GET).
constexpr std::uint64_t kMaxRequestsPerWrite = 256;
constexpr std::size_t kRequestFramesBytes = kPutFrameBytes + kGetFrameBytes;

double quantile_us(const std::vector<std::int64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ns.size()));
  const std::size_t clamped = std::min(rank, sorted_ns.size() - 1);
  return static_cast<double>(sorted_ns[clamped]) / 1000.0;
}

}  // namespace

LoadgenResult run_loadgen(const Trace& trace, const LoadgenConfig& config) {
  const std::uint64_t total = trace.requests.size();
  const std::uint64_t n =
      config.requests == 0 ? total : std::min(config.requests, total);
  if (n == 0) {
    throw std::invalid_argument("loadgen: no requests to send");
  }

  UniqueFd fd = tcp_connect(config.host, config.port);

  LoadgenResult result;
  result.offered_rps = config.offered_rps;

  // Send timestamps, written by the sender with release and read by the
  // receiver with acquire: the socket round-trip provides no C++-level
  // happens-before edge, so the pairing must synchronize on the slot
  // itself (this is what keeps the loadgen TSan-clean).
  std::vector<std::atomic<std::int64_t>> send_ns(n);
  std::vector<std::int64_t> latencies_ns;
  latencies_ns.reserve(n);
  std::atomic<std::int64_t> last_reply_ns{0};

  const auto epoch = std::chrono::steady_clock::now();
  const auto now_ns = [&epoch] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  };

  std::thread receiver([&] {
    FrameReader reader{fd.get()};
    bool running = true;
    while (running) {
      try {
        const std::optional<FrameView> frame = reader.next();
        if (!frame) break;  // server closed
        const FrameHeader& header = frame->header;
        const std::span<const std::uint8_t> payload = frame->payload;
        switch (header.type) {
          case FrameType::result: {
            const ResultPayload reply = decode_result(payload, frame->number);
            const std::int64_t t = now_ns();
            last_reply_ns.store(t, std::memory_order_relaxed);
            ++result.replies;
            if (reply.degraded != 0) ++result.degraded;
            switch (reply.status) {
              case ResultStatus::hit: ++result.hits; break;
              case ResultStatus::miss_admitted: ++result.admitted; break;
              case ResultStatus::miss_rejected: ++result.rejected; break;
              case ResultStatus::shed: ++result.shed; break;
              case ResultStatus::retry: ++result.retries; break;
              case ResultStatus::put_ok: ++result.put_oks; break;
            }
            if (reply.status != ResultStatus::put_ok &&
                header.sequence < n) {
              const std::int64_t sent =
                  send_ns[header.sequence].load(std::memory_order_acquire);
              if (sent != 0) latencies_ns.push_back(t - sent);
            }
            break;
          }
          case FrameType::summary:
            result.server = decode_summary(payload, frame->number);
            break;
          case FrameType::report:
            result.server_report_json.assign(payload.begin(), payload.end());
            break;
          case FrameType::shutdown_ack:
            running = false;
            break;
          case FrameType::error:
            ++result.errors;
            if (result.error_text.empty()) {
              result.error_text.assign(payload.begin(), payload.end());
            }
            running = false;
            break;
          default:
            ++result.errors;
            if (result.error_text.empty()) {
              result.error_text = "unexpected frame from server";
            }
            running = false;
            break;
        }
      } catch (const std::exception& error) {
        ++result.errors;
        if (result.error_text.empty()) result.error_text = error.what();
        running = false;
      }
    }
  });

  // Sender (this thread): the trace's arrival process compressed so the
  // mean rate is offered_rps — burst shape preserved, pace independent of
  // replies (open loop).
  const std::int64_t t0 = trace.requests[0].time.seconds;
  const double sim_span = static_cast<double>(
      trace.requests[n - 1].time.seconds - t0);
  const double target_span = config.offered_rps > 0.0
                                 ? static_cast<double>(n) / config.offered_rps
                                 : 0.0;
  const double compression =
      sim_span > 0.0 && target_span > 0.0 ? target_span / sim_span : 0.0;

  // Every request due by now goes out in one write (a PUT ahead of its
  // GET when put_every selects it), so an unpaced or lagging sender costs
  // one syscall per batch, not per frame.
  const auto start = std::chrono::steady_clock::now();
  const auto due_of = [&](std::uint64_t i) {
    const double offset_s =
        static_cast<double>(trace.requests[i].time.seconds - t0) *
        compression;
    return start + std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  std::array<std::uint8_t, kMaxRequestsPerWrite * kRequestFramesBytes>
      batch{};
  bool send_failed = false;
  std::uint64_t i = 0;
  while (i < n) {
    if (compression > 0.0) std::this_thread::sleep_until(due_of(i));
    const auto now = std::chrono::steady_clock::now();
    const std::int64_t sent_ns = now_ns();
    std::size_t bytes = 0;
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    do {
      const Request& request = trace.requests[i];
      if (config.put_every != 0 && i % config.put_every == 0) {
        PutPayload put;
        put.time_seconds = request.time.seconds;
        put.photo = request.photo;
        encode_put_frame(batch.data() + bytes, kPutSequenceBit | i, put);
        bytes += kPutFrameBytes;
        ++puts;
      }
      GetPayload get;
      get.index = i;
      get.time_seconds = request.time.seconds;
      get.photo = request.photo;
      get.terminal = static_cast<std::uint8_t>(request.terminal);
      send_ns[i].store(sent_ns, std::memory_order_release);
      encode_get_frame(batch.data() + bytes, i, get);
      bytes += kGetFrameBytes;
      ++gets;
      ++i;
    } while (i < n && gets < kMaxRequestsPerWrite &&
             (compression <= 0.0 || due_of(i) <= now));
    if (!send_all(fd.get(), batch.data(), bytes)) {
      send_failed = true;
      break;
    }
    result.puts += puts;
    result.requests += gets;
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // End-of-stream control frames; the server's connection reader handles
  // frames in order, so STATS summarizes after every GET above is served.
  if (!send_failed) {
    std::array<std::uint8_t, 3 * kHeaderBytes> control{};
    std::size_t bytes = 0;
    encode_header(control.data(), FrameType::stats_request, n, {});
    bytes += kHeaderBytes;
    if (config.fetch_report) {
      encode_header(control.data() + bytes, FrameType::report_request, n + 1,
                    {});
      bytes += kHeaderBytes;
    }
    encode_header(control.data() + bytes, FrameType::shutdown_request, n + 2,
                  {});
    bytes += kHeaderBytes;
    send_failed = !send_all(fd.get(), control.data(), bytes);
  }
  if (send_failed) {
    // Unblock the receiver (it may be mid-recv on a dead server).
    fd.shutdown_both();
  }
  receiver.join();
  if (send_failed && result.error_text.empty()) {
    ++result.errors;
    result.error_text = "send failed (server closed the connection)";
  }

  std::sort(latencies_ns.begin(), latencies_ns.end());
  result.p50_us = quantile_us(latencies_ns, 0.50);
  result.p99_us = quantile_us(latencies_ns, 0.99);
  result.p999_us = quantile_us(latencies_ns, 0.999);
  const double last_s =
      static_cast<double>(last_reply_ns.load(std::memory_order_relaxed)) /
      1e9;
  result.achieved_rps =
      last_s > 0.0 ? static_cast<double>(result.replies) / last_s : 0.0;
  return result;
}

}  // namespace otac::net
