// otac-lint: hotpath-file
#include "net/frame_reader.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

namespace otac::net {

namespace {

/// One recv() retried across EINTR; the byte count, or 0 on EOF/error.
std::size_t recv_some(int fd, std::uint8_t* data, std::size_t size,
                      std::uint64_t& reads) noexcept {
  ssize_t n = 0;
  do {
    ++reads;
    n = ::recv(fd, data, size, 0);
  } while (n < 0 && errno == EINTR);
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

}  // namespace

bool FrameReader::fill() {
  // Only a partial frame remains when next() refills, so the move is
  // shorter than one frame and leaves room for at least one more byte.
  std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
  const std::size_t got = recv_some(fd_, buffer_.data() + end_,
                                    buffer_.size() - end_, reads_);
  end_ += got;
  return got > 0;
}

bool FrameReader::frame_buffered() const noexcept {
  const std::size_t have = end_ - begin_;
  if (have < kHeaderBytes) return false;
  // Raw size field: a corrupt header reads as "not buffered", which only
  // costs the caller an early flush before next() throws.
  return have - kHeaderBytes >= read_u32(buffer_.data() + begin_ + 16);
}

std::optional<FrameView> FrameReader::next() {
  const std::uint64_t number = frames_ + 1;
  while (end_ - begin_ < kHeaderBytes) {
    if (!fill()) {
      if (begin_ == end_) return std::nullopt;  // clean EOF
      // The stream ended mid-header: the codec's "truncated header".
      (void)decode_header(buffered(), number);
    }
  }
  const FrameHeader header = decode_header(buffered(), number);
  if (check_ != nullptr) check_(header, number);
  const std::size_t frame_bytes = kHeaderBytes + header.payload_size;
  if (frame_bytes > buffer_.size()) return read_large(header, number);
  while (end_ - begin_ < frame_bytes) {
    if (!fill()) {
      // The stream ended mid-payload: the codec's "truncated payload".
      verify_payload(header, buffered().subspan(kHeaderBytes), number);
    }
  }
  const std::span<const std::uint8_t> payload =
      buffered().subspan(kHeaderBytes, header.payload_size);
  verify_payload(header, payload, number);
  begin_ += frame_bytes;
  ++frames_;
  return FrameView{header, payload, number};
}

std::optional<FrameView> FrameReader::read_large(const FrameHeader& header,
                                                 std::uint64_t number) {
  // Cold: a reply bigger than the buffer (a RunReport document) is read
  // straight into a side buffer sized from the bound-checked header.
  const std::size_t frame_bytes = kHeaderBytes + header.payload_size;
  // otac-lint: allow(hotpath-alloc)
  large_.resize(frame_bytes);
  std::size_t have = end_ - begin_;
  std::memcpy(large_.data(), buffer_.data() + begin_, have);
  begin_ = 0;
  end_ = 0;
  while (have < frame_bytes) {
    const std::size_t got = recv_some(fd_, large_.data() + have,
                                      frame_bytes - have, reads_);
    if (got == 0) break;
    have += got;
  }
  const std::span<const std::uint8_t> payload(large_.data() + kHeaderBytes,
                                              have - kHeaderBytes);
  verify_payload(header, payload, number);
  ++frames_;
  return FrameView{header, payload, number};
}

}  // namespace otac::net
