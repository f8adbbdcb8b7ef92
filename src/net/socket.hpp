#pragma once
/// \file socket.hpp
/// Thin RAII and address helpers over POSIX stream sockets — TCP, and
/// abstract-namespace AF_UNIX for peers in this network namespace —
/// shared by the bootstrap (blocking, sequential) and the progress engine
/// (nonblocking, epoll-driven). Nothing here knows about frames or ranks.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

namespace mca2a::net {

/// Owning file descriptor. Closing is best-effort (destructors must not
/// throw); every other error surfaces as std::system_error at the call
/// site that hit it.
class Fd {
 public:
  Fd() noexcept = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  /// Release ownership without closing.
  int release() noexcept { return std::exchange(fd_, -1); }
  /// Close now (idempotent).
  void reset() noexcept;

 private:
  int fd_ = -1;
};

/// IPv4 endpoint as the bootstrap protocol exchanges it.
struct Address {
  std::string host;  ///< dotted-quad or resolvable name
  std::uint16_t port = 0;
};

/// Parse "host:port". Throws std::invalid_argument on malformed input.
Address parse_address(const std::string& s);

/// Resolve `host` (name or dotted quad) to a dotted-quad IPv4 string.
/// Throws std::runtime_error when resolution fails.
std::string resolve_ipv4(const std::string& host);

/// Create a listening TCP socket bound to `host` (empty = INADDR_ANY) and
/// `port` (0 = ephemeral). Returns the socket and the actually-bound port.
std::pair<Fd, std::uint16_t> listen_tcp(const std::string& host,
                                        std::uint16_t port, int backlog);

/// Blocking connect with retry until `timeout_s` (the peer's listener may
/// come up later during bootstrap). TCP_NODELAY is set on the result.
Fd connect_tcp(const Address& addr, double timeout_s);

/// Blocking accept on a TCP or AF_UNIX listener; TCP_NODELAY is set on a
/// TCP result. Throws on error.
Fd accept_conn(int listen_fd);

/// Abstract AF_UNIX socket name of the rank whose first advertised TCP
/// address is `a`: "mca2a.<ip>:<port>" (without the leading NUL byte that
/// puts it in the abstract namespace). An abstract name lives only in its
/// network namespace, and the (ip, port) in it is unique there while its
/// owner holds that TCP listener, so no file is created and none is left
/// behind by a crash.
std::string unix_name(const Address& a);

/// Create a listening AF_UNIX stream socket bound to the abstract `name`.
/// Returns an invalid Fd when this process cannot create an AF_UNIX socket
/// (it then runs TCP-only, and its peers fall back). Throws
/// std::runtime_error when the name is taken: another process holds it and
/// would receive the connections meant for this one.
Fd listen_unix(const std::string& name, int backlog);

/// Blocking connect to the abstract `name`. Returns an invalid Fd when no
/// socket listens on it (ECONNREFUSED: the owner is on another host or in
/// another network namespace) or when this process cannot create an
/// AF_UNIX socket; the caller then takes TCP. A full backlog blocks the
/// connect; it waits at most `timeout_s`, then throws. Any other failure
/// throws.
Fd connect_unix(const std::string& name, double timeout_s);

/// True when `fd` is an AF_UNIX socket.
bool is_unix(int fd);

/// Switch the descriptor to nonblocking mode.
void set_nonblocking(int fd);

/// Monotonic deadline of a blocking bootstrap step.
using Deadline = std::chrono::steady_clock::time_point;

/// The deadline `seconds` from now.
Deadline deadline_in(double seconds);

/// Block until `fd` is readable; once `deadline` passes, throw
/// std::runtime_error(`timeout_what`). Every bootstrap read from a peer
/// waits here first, so a client that connects and goes silent turns into
/// that error instead of an eternal blocking read.
void wait_readable(int fd, Deadline deadline, const std::string& timeout_what);

/// Write exactly `len` bytes (blocking socket). Throws on error/EOF.
void write_all(int fd, const void* buf, std::size_t len);
/// Read exactly `len` bytes (blocking socket). Throws on error/EOF.
void read_all(int fd, void* buf, std::size_t len);
/// read_all that waits for every piece with wait_readable.
void read_all(int fd, void* buf, std::size_t len, Deadline deadline,
              const std::string& timeout_what);

/// Local address of a connected/bound socket as dotted quad + port.
/// Launchers picking an ephemeral rendezvous port bind with listen_tcp
/// (port 0), read the port from here, and KEEP the listener open, passing
/// it to rank 0 (NetOptions::rendezvous_fd) — closing and re-binding would
/// race against any other process grabbing the port in between.
Address local_address(int fd);

}  // namespace mca2a::net
