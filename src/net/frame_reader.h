// Chunked frame reader over a stream socket — the inbound half of both the
// daemon's connection readers (net/daemon.cpp) and the load generator's
// reply receiver (net/loadgen.cpp).
//
// One recv() fills a fixed 64 KB buffer and next() then decodes every
// complete frame in it before touching the socket again, so a burst of
// small frames costs one syscall instead of two per frame. The optional
// header check runs on the 24-byte header before the reader waits for that
// frame's payload: the daemon passes check_client_frame, so a header
// declaring a wrong or oversized payload is rejected from the header alone.
// Errors keep the codec's exact frame-numbered text (net/protocol.h),
// including a stream that ends mid-frame ("truncated header"/"truncated
// payload"). A frame larger than the buffer (a REPORT reply) is assembled
// in a side buffer; client->server frames never are.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/protocol.h"

namespace otac::net {

/// One decoded frame; `payload` is valid until the next call to next().
struct FrameView {
  FrameHeader header;
  std::span<const std::uint8_t> payload;
  std::uint64_t number = 0;  ///< 1-based position in the stream
};

class FrameReader {
 public:
  /// Pre-payload validation hook (check_client_frame's signature).
  using HeaderCheck = void (*)(const FrameHeader&, std::uint64_t);
  static constexpr std::size_t kBufferBytes = 64 * 1024;

  explicit FrameReader(int fd, HeaderCheck check = nullptr) noexcept
      : fd_(fd), check_(check) {}

  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// Next frame with its CRC verified, calling recv() only when the buffer
  /// holds no complete frame. Returns nullopt on EOF (or a socket error)
  /// at a frame boundary; throws the codec's decode errors, including the
  /// truncation error when the stream ends mid-frame.
  [[nodiscard]] std::optional<FrameView> next();

  /// True when next() can return a frame (or throw) without calling
  /// recv() — callers flush staged work before a read that may block.
  [[nodiscard]] bool frame_buffered() const noexcept;

  /// recv() calls made so far, including the one that saw EOF.
  [[nodiscard]] std::uint64_t socket_reads() const noexcept { return reads_; }

 private:
  [[nodiscard]] bool fill();
  [[nodiscard]] std::span<const std::uint8_t> buffered() const noexcept {
    return {buffer_.data() + begin_, end_ - begin_};
  }
  [[nodiscard]] std::optional<FrameView> read_large(const FrameHeader& header,
                                                    std::uint64_t number);

  int fd_;
  HeaderCheck check_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t reads_ = 0;
  std::array<std::uint8_t, kBufferBytes> buffer_;
  std::vector<std::uint8_t> large_;  ///< frames larger than buffer_ only
};

}  // namespace otac::net
