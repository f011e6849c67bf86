#include "client.h"

#include <sys/socket.h>

#include <array>
#include <cstring>
#include <exception>
#include <thread>

#include "measure.h"
#include "net/socket.h"

namespace otac::perfbench {

namespace {

/// GET frames coalesced into one write when several are due at once.
constexpr std::size_t kMaxFramesPerWrite = 256;

/// Receiver: reads the socket in large chunks and decodes every complete
/// frame in the buffer; all frames of one read share its arrival time.
void receive_replies(int fd, const std::vector<std::int64_t>& due_ns,
                     Clock::time_point start, ClientResult& out,
                     std::int64_t& last_reply_ns) {
  std::vector<std::uint8_t> buffer(1U << 16);
  std::vector<std::uint8_t> replied(due_ns.size(), 0);
  std::size_t have = 0;
  std::uint64_t frames = 0;
  bool running = true;
  while (running) {
    if (have == buffer.size()) buffer.resize(buffer.size() * 2);
    const ssize_t got =
        ::recv(fd, buffer.data() + have, buffer.size() - have, 0);
    if (got <= 0) break;  // server closed the connection
    have += static_cast<std::size_t>(got);
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count();
    std::size_t offset = 0;
    try {
      while (running && have - offset >= net::kHeaderBytes) {
        const net::FrameHeader header = net::decode_header(
            std::span<const std::uint8_t>(buffer.data() + offset,
                                          net::kHeaderBytes),
            frames + 1);
        const std::size_t frame_bytes =
            net::kHeaderBytes + header.payload_size;
        if (have - offset < frame_bytes) {
          if (frame_bytes > buffer.size()) buffer.resize(frame_bytes);
          break;
        }
        const std::span<const std::uint8_t> payload(
            buffer.data() + offset + net::kHeaderBytes, header.payload_size);
        net::verify_payload(header, payload, frames + 1);
        ++frames;
        offset += frame_bytes;
        switch (header.type) {
          case net::FrameType::result: {
            const net::ResultPayload reply =
                net::decode_result(payload, frames);
            const std::uint64_t seq = header.sequence;
            if (seq >= due_ns.size() || replied[seq] != 0) {
              ++out.duplicates;
              break;
            }
            replied[seq] = 1;
            ++out.replies;
            last_reply_ns = now_ns;
            out.latency_us[seq] =
                static_cast<double>(now_ns - due_ns[seq]) / 1e3;
            switch (reply.status) {
              case net::ResultStatus::hit: ++out.hits; break;
              case net::ResultStatus::shed: ++out.shed; break;
              case net::ResultStatus::retry: ++out.retries; break;
              case net::ResultStatus::miss_admitted:
              case net::ResultStatus::miss_rejected: break;
              case net::ResultStatus::put_ok: ++out.errors; break;
            }
            break;
          }
          case net::FrameType::summary:
            out.server = net::decode_summary(payload, frames);
            out.got_summary = true;
            break;
          case net::FrameType::shutdown_ack:
            running = false;
            break;
          case net::FrameType::error:
            ++out.errors;
            if (out.error_text.empty()) {
              out.error_text.assign(payload.begin(), payload.end());
            }
            running = false;
            break;
          default:
            ++out.errors;
            if (out.error_text.empty()) {
              out.error_text = "unexpected frame from server";
            }
            running = false;
            break;
        }
      }
    } catch (const std::exception& error) {
      ++out.errors;
      if (out.error_text.empty()) out.error_text = error.what();
      running = false;
    }
    std::memmove(buffer.data(), buffer.data() + offset, have - offset);
    have -= offset;
  }
}

}  // namespace

ClientResult run_open_loop(const Trace& trace, const ClientConfig& config) {
  const std::size_t n = trace.requests.size();
  ClientResult out;
  if (n == 0) return out;
  out.latency_us.assign(n, -1.0);

  // Due times: the trace's arrival process compressed so the mean rate is
  // offered_rps (burst shape kept), or all due at once when unpaced.
  std::vector<std::int64_t> due_ns(n, 0);
  const std::int64_t t0 = trace.requests.front().time.seconds;
  const double sim_span =
      static_cast<double>(trace.requests.back().time.seconds - t0);
  if (config.offered_rps > 0.0 && sim_span > 0.0) {
    const double ns_per_sim_second =
        static_cast<double>(n) / config.offered_rps / sim_span * 1e9;
    for (std::size_t i = 0; i < n; ++i) {
      due_ns[i] = static_cast<std::int64_t>(
          static_cast<double>(trace.requests[i].time.seconds - t0) *
          ns_per_sim_second);
    }
    out.lag_us.reserve(n);
  }

  net::UniqueFd fd = net::tcp_connect("127.0.0.1", config.port);
  const auto start = Clock::now();
  std::int64_t last_reply_ns = 0;
  double receiver_cpu_s = 0.0;
  std::thread receiver([&] {
    receive_replies(fd.get(), due_ns, start, out, last_reply_ns);
    receiver_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  });
  const double sender_cpu_start = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);

  std::vector<std::uint8_t> batch(kMaxFramesPerWrite * net::kGetFrameBytes);
  bool send_failed = false;
  std::size_t i = 0;
  while (i < n && !send_failed) {
    const auto due = start + std::chrono::nanoseconds(due_ns[i]);
    if (due > Clock::now()) std::this_thread::sleep_until(due);
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count();
    std::size_t frames = 0;
    while (i < n && frames < kMaxFramesPerWrite && due_ns[i] <= now_ns) {
      const Request& request = trace.requests[i];
      net::GetPayload get;
      get.index = i;
      get.time_seconds = request.time.seconds;
      get.photo = request.photo;
      get.terminal = static_cast<std::uint8_t>(request.terminal);
      net::encode_get_frame(batch.data() + frames * net::kGetFrameBytes, i,
                            get);
      if (config.offered_rps > 0.0) {
        out.lag_us.push_back(static_cast<double>(now_ns - due_ns[i]) / 1e3);
      }
      ++frames;
      ++i;
    }
    send_failed =
        !net::send_all(fd.get(), batch.data(), frames * net::kGetFrameBytes);
  }

  // STATS quiesces every shard before replying, so the summary covers every
  // GET above; SHUTDOWN's acknowledgement ends the receiver.
  if (!send_failed) {
    std::array<std::uint8_t, net::kHeaderBytes> control{};
    net::encode_header(control.data(), net::FrameType::stats_request, n, {});
    send_failed = !net::send_all(fd.get(), control.data(), control.size());
    if (!send_failed) {
      net::encode_header(control.data(), net::FrameType::shutdown_request,
                         n + 1, {});
      send_failed = !net::send_all(fd.get(), control.data(), control.size());
    }
  }
  if (send_failed) fd.shutdown_both();
  const double sender_cpu_s =
      cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - sender_cpu_start;
  receiver.join();
  out.cpu_s = sender_cpu_s + receiver_cpu_s;
  if (send_failed) {
    ++out.errors;
    if (out.error_text.empty()) out.error_text = "send failed";
  }
  out.wall_s = static_cast<double>(last_reply_ns) / 1e9;
  return out;
}

}  // namespace otac::perfbench
