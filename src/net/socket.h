// Minimal POSIX TCP helpers shared by the daemon (net/daemon.h) and the
// load generator (net/loadgen.h): an RAII fd, listen/connect on loopback,
// and exact-length send. No framing here — protocol.h encodes frames and
// frame_reader.h reads them — and no portability layer: the serving tier
// targets Linux.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace otac::net {

/// Move-only owning file descriptor; closes on destruction.
class UniqueFd {
 public:
  UniqueFd() noexcept = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept;
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd();

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1) noexcept;
  /// shutdown(2) both directions — unblocks a thread parked in recv().
  void shutdown_both() noexcept;

 private:
  int fd_ = -1;
};

/// Bind + listen on `host:port` (port 0 = kernel-assigned). Throws
/// std::runtime_error with the errno text on failure.
[[nodiscard]] UniqueFd tcp_listen(const std::string& host,
                                  std::uint16_t port);

/// Connect to `host:port`. Throws std::runtime_error on failure.
[[nodiscard]] UniqueFd tcp_connect(const std::string& host,
                                   std::uint16_t port);

/// Port actually bound (resolves a port-0 listen).
[[nodiscard]] std::uint16_t local_port(int fd);

/// Write exactly `size` bytes; false on any error (peer gone).
[[nodiscard]] bool send_all(int fd, const std::uint8_t* data,
                            std::size_t size) noexcept;

}  // namespace otac::net
