#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace otac::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw std::runtime_error("invalid IPv4 address: " + host);
  }
  return address;
}

}  // namespace

UniqueFd& UniqueFd::operator=(UniqueFd&& other) noexcept {
  if (this != &other) reset(other.release());
  return *this;
}

UniqueFd::~UniqueFd() { reset(); }

void UniqueFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

void UniqueFd::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

UniqueFd tcp_listen(const std::string& host, std::uint16_t port) {
  UniqueFd fd{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in address = make_address(host, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    throw_errno("bind " + host);
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) throw_errno("listen");
  return fd;
}

UniqueFd tcp_connect(const std::string& host, std::uint16_t port) {
  UniqueFd fd{::socket(AF_INET, SOCK_STREAM, 0)};
  if (!fd.valid()) throw_errno("socket");
  const sockaddr_in address = make_address(host, port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in address{};
  socklen_t size = sizeof(address);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &size) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(address.sin_port);
}

bool send_all(int fd, const std::uint8_t* data, std::size_t size) noexcept {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace otac::net
