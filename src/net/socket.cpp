#include "net/socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "net/chaos/chaos.h"

namespace lfbs::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (address.empty() || address == "0.0.0.0") {
    addr.sin_addr.s_addr = INADDR_ANY;
  } else if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw SocketError("cannot parse IPv4 address '" + address + "'");
  }
  return addr;
}

}  // namespace

void FdHandle::reset() {
  if (fd_ >= 0) {
    if (ChaosEngine* chaos = chaos_engine()) chaos->untrack(fd_);
    ::close(fd_);
  }
  fd_ = -1;
}

TcpListener::TcpListener(const std::string& bind_address,
                         std::uint16_t port, int backlog) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = make_addr(bind_address, port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind " + bind_address + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) < 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    throw_errno("getsockname");
  }
  set_nonblocking(fd.get());
  port_ = ntohs(bound.sin_port);
  fd_ = std::move(fd);
}

FdHandle TcpListener::accept() {
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) return FdHandle{};
  FdHandle handle(fd);
  set_nonblocking(fd);
  const int one = 1;
  // Frames are small and latency-sensitive; never wait for Nagle.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (ChaosEngine* chaos = chaos_engine()) {
    if (chaos->config().on_accept) chaos->track(fd);
  }
  return handle;
}

TcpConnection::TcpConnection(FdHandle fd) : fd_(std::move(fd)) {}

TcpConnection TcpConnection::connect(const std::string& host,
                                     std::uint16_t port, Seconds timeout) {
  ChaosEngine* chaos = chaos_engine();
  if (chaos && chaos->config().on_connect) {
    const std::string where = host + ":" + std::to_string(port);
    if (chaos->connect_refused(where)) {
      throw SocketError("connect " + where + ": refused (chaos)");
    }
  }
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  set_nonblocking(fd.get());
  sockaddr_in addr = make_addr(host.empty() ? "127.0.0.1" : host, port);
  const int rc =
      ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  if (rc < 0) {
    // Await writability with the caller's budget, then read the outcome.
    pollfd p{fd.get(), POLLOUT, 0};
    const int timeout_ms =
        timeout > 0 ? static_cast<int>(timeout * 1e3) : -1;
    int ready;
    do {
      ready = ::poll(&p, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      throw SocketError("connect " + host + ":" + std::to_string(port) +
                        ": timed out");
    }
    if (ready < 0) throw_errno("poll(connect)");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      throw_errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      throw SocketError("connect " + host + ":" + std::to_string(port) +
                        ": " + std::strerror(err));
    }
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (chaos && chaos->config().on_connect) chaos->track(fd.get());
  return TcpConnection(std::move(fd));
}

std::ptrdiff_t TcpConnection::read_some(std::uint8_t* buf, std::size_t n) {
  if (ChaosEngine* chaos = chaos_engine()) {
    // May cap n (truncation): the real read below then returns a prefix,
    // keeping the byte stream itself intact.
    switch (chaos->before_read(fd_.get(), n)) {
      case ChaosEngine::Verdict::kDead:
        return 0;  // injected reset reads as EOF, like the real thing
      case ChaosEngine::Verdict::kBlocked:
        return -1;  // stall / inbound partition: nothing arrived
      case ChaosEngine::Verdict::kPass:
        break;
    }
  }
  for (;;) {
    const ssize_t rc = ::recv(fd_.get(), buf, n, 0);
    if (rc >= 0) {
      if (rc > 0) {
        if (ChaosEngine* chaos = chaos_engine()) {
          chaos->after_read(fd_.get(), buf, static_cast<std::size_t>(rc));
        }
      }
      return rc;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return 0;  // connection reset and friends read as EOF
  }
}

std::ptrdiff_t TcpConnection::write_some(const std::uint8_t* buf,
                                         std::size_t n) {
  if (ChaosEngine* chaos = chaos_engine()) {
    switch (chaos->before_write(fd_.get(), n)) {
      case ChaosEngine::Verdict::kDead:
        return 0;  // injected reset: dead connection, like a broken pipe
      case ChaosEngine::Verdict::kBlocked:
        return -1;  // stall / outbound partition: send buffer "full"
      case ChaosEngine::Verdict::kPass:
        break;
    }
  }
  for (;;) {
    const ssize_t rc = ::send(fd_.get(), buf, n, MSG_NOSIGNAL);
    if (rc >= 0) return rc;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return 0;  // broken pipe: surfaces as an unwritable dead connection
  }
}

void TcpConnection::set_send_buffer(std::size_t bytes) {
  const int value = static_cast<int>(bytes);
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDBUF, &value, sizeof(value));
}

bool write_all(TcpConnection& conn, const std::vector<std::uint8_t>& bytes,
               const std::atomic<bool>* stop) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    const std::ptrdiff_t n =
        conn.write_some(bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n == -1) {
      std::vector<PollItem> items{{conn.fd(), false, true}};
      poll_fds(items, 100);
    } else {
      return false;
    }
  }
  return true;
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) < 0) throw_errno("pipe");
  read_ = FdHandle(fds[0]);
  write_ = FdHandle(fds[1]);
  set_nonblocking(read_.get());
  set_nonblocking(write_.get());
}

void WakePipe::wake() {
  const std::uint8_t byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] const ssize_t rc =
      ::write(write_.get(), &byte, sizeof(byte));
}

void WakePipe::drain() {
  std::uint8_t buf[64];
  while (::read(read_.get(), buf, sizeof(buf)) > 0) {
  }
}

int poll_fds(std::vector<PollItem>& items, int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(items.size());
  for (const PollItem& item : items) {
    short events = 0;
    if (item.want_read) events |= POLLIN;
    if (item.want_write) events |= POLLOUT;
    fds.push_back({item.fd, events, 0});
  }
  int ready;
  do {
    ready = ::poll(fds.data(), fds.size(), timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) throw_errno("poll");
  for (std::size_t i = 0; i < items.size(); ++i) {
    const short re = fds[i].revents;
    items[i].readable = (re & (POLLIN | POLLHUP)) != 0;
    items[i].writable = (re & POLLOUT) != 0;
    items[i].error = (re & (POLLERR | POLLNVAL)) != 0;
  }
  if (ChaosEngine* chaos = chaos_engine()) {
    // Hide readiness on fds inside a stall/partition window, else event
    // loops would spin on a readable fd whose read_some keeps refusing.
    bool masked = false;
    for (PollItem& item : items) {
      if (item.readable || item.writable) {
        if (chaos->mask_poll(item.fd, item.readable, item.writable)) {
          masked = true;
          if (!item.readable && !item.writable && !item.error) --ready;
        }
      }
    }
    if (masked && ready <= 0) {
      // Everything ready was masked: nap briefly so the caller's retry
      // loop idles instead of hot-spinning while the window runs down.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ready = std::max(ready, 0);
    }
  }
  return ready;
}

}  // namespace lfbs::net
