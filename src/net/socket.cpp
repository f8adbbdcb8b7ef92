#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace mca2a::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_sockaddr(const std::string& host, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (host.empty()) {
    sa.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    const std::string ip = resolve_ipv4(host);
    if (::inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1) {
      throw std::runtime_error("net: cannot parse address " + host);
    }
  }
  return sa;
}

/// Abstract-namespace address: sun_path holds a NUL byte, then `name`
/// (not NUL-terminated; the length passed to bind/connect ends it).
std::pair<sockaddr_un, socklen_t> make_unix_sockaddr(const std::string& name) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (name.size() + 1 > sizeof(sa.sun_path)) {
    throw std::invalid_argument("net: socket name too long: " + name);
  }
  std::memcpy(sa.sun_path + 1, name.data(), name.size());
  return {sa, static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                     name.size())};
}

/// One read of at most `len` bytes into `p`: the count, or 0 after EINTR.
/// Throws on EOF or error.
std::size_t read_some(int fd, char* p, std::size_t len) {
  const ssize_t n = ::read(fd, p, len);
  if (n == 0) {
    throw std::runtime_error("net: unexpected EOF");
  }
  if (n < 0) {
    if (errno == EINTR) {
      return 0;
    }
    throw_errno("net: read");
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Address parse_address(const std::string& s) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    throw std::invalid_argument("net: expected host:port, got '" + s + "'");
  }
  Address a;
  a.host = s.substr(0, colon);
  const long p = std::strtol(s.c_str() + colon + 1, nullptr, 10);
  if (p <= 0 || p > 65535) {
    throw std::invalid_argument("net: bad port in '" + s + "'");
  }
  a.port = static_cast<std::uint16_t>(p);
  return a;
}

std::string resolve_ipv4(const std::string& host) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 ||
      res == nullptr) {
    throw std::runtime_error("net: cannot resolve host " + host);
  }
  char buf[INET_ADDRSTRLEN] = {};
  const auto* sa = reinterpret_cast<const sockaddr_in*>(res->ai_addr);
  ::inet_ntop(AF_INET, &sa->sin_addr, buf, sizeof(buf));
  ::freeaddrinfo(res);
  return buf;
}

std::pair<Fd, std::uint16_t> listen_tcp(const std::string& host,
                                        std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw_errno("net: socket");
  }
  int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa = make_sockaddr(host, port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    throw_errno("net: bind");
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw_errno("net: listen");
  }
  return {std::move(fd), local_address(fd.get()).port};
}

Fd connect_tcp(const Address& addr, double timeout_s) {
  const sockaddr_in sa = make_sockaddr(addr.host, addr.port);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
      throw_errno("net: socket");
    }
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa),
                  sizeof(sa)) == 0) {
      set_nodelay(fd.get());
      return fd;
    }
    // The peer's listener (typically the rendezvous root) may simply not
    // be up yet; back off briefly and retry until the deadline.
    if ((errno != ECONNREFUSED && errno != ETIMEDOUT && errno != EINTR) ||
        std::chrono::steady_clock::now() >= deadline) {
      throw std::system_error(errno, std::generic_category(),
                              "net: connect to " + addr.host + ":" +
                                  std::to_string(addr.port));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Fd accept_conn(int listen_fd) {
  for (;;) {
    sockaddr_storage peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd >= 0) {
      if (peer.ss_family == AF_INET) {
        set_nodelay(fd);
      }
      return Fd(fd);
    }
    if (errno != EINTR) {
      throw_errno("net: accept");
    }
  }
}

std::string unix_name(const Address& a) {
  return "mca2a." + a.host + ":" + std::to_string(a.port);
}

Fd listen_unix(const std::string& name, int backlog) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return fd;
  }
  const auto [sa, len] = make_unix_sockaddr(name);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&sa), len) != 0) {
    if (errno == EADDRINUSE) {
      throw std::runtime_error("net: local socket name @" + name +
                               " is held by another process");
    }
    throw_errno("net: bind AF_UNIX");
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw_errno("net: listen AF_UNIX");
  }
  return fd;
}

Fd connect_unix(const std::string& name, double timeout_s) {
  const auto [sa, len] = make_unix_sockaddr(name);
  const Deadline deadline = deadline_in(timeout_s);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      throw std::runtime_error("net: connect to @" + name + " timed out");
    }
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
      return fd;  // no AF_UNIX here: TCP-only, as listen_unix
    }
    // A connect that finds the listener's backlog full sleeps until there
    // is room, bounded only by SO_SNDTIMEO (it then fails with EAGAIN).
    const timeval tv{static_cast<time_t>(left.count() / 1000000),
                     static_cast<suseconds_t>(left.count() % 1000000)};
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa), len) ==
        0) {
      const timeval none{};
      (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &none,
                         sizeof(none));
      return fd;
    }
    if (errno == ECONNREFUSED) {
      return Fd{};
    }
    if (errno != EINTR && errno != EAGAIN) {
      throw std::system_error(errno, std::generic_category(),
                              "net: connect to @" + name);
    }
  }
}

bool is_unix(int fd) {
  int domain = 0;
  socklen_t len = sizeof(domain);
  return ::getsockopt(fd, SOL_SOCKET, SO_DOMAIN, &domain, &len) == 0 &&
         domain == AF_UNIX;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("net: fcntl O_NONBLOCK");
  }
}

Deadline deadline_in(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

void wait_readable(int fd, Deadline deadline,
                   const std::string& timeout_what) {
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      throw std::runtime_error(timeout_what);
    }
    const auto left_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    pollfd p{fd, POLLIN, 0};
    const int n =
        ::poll(&p, 1, static_cast<int>(std::clamp<long long>(left_ms, 1, 200)));
    if (n > 0) {
      return;
    }
    if (n < 0 && errno != EINTR) {
      throw_errno("net: poll");
    }
  }
}

void write_all(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that died mid-exchange must surface as EPIPE,
    // never as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("net: write");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

void read_all(int fd, void* buf, std::size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    const std::size_t n = read_some(fd, p, len);
    p += n;
    len -= n;
  }
}

void read_all(int fd, void* buf, std::size_t len, Deadline deadline,
              const std::string& timeout_what) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    wait_readable(fd, deadline, timeout_what);
    const std::size_t n = read_some(fd, p, len);
    p += n;
    len -= n;
  }
}

Address local_address(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    throw_errno("net: getsockname");
  }
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf));
  return Address{buf, ntohs(sa.sin_port)};
}

}  // namespace mca2a::net
