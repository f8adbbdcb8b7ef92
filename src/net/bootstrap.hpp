#pragma once
/// \file bootstrap.hpp
/// Out-of-band bootstrap for the net backend.
///
/// Before any collective traffic can flow, every rank must learn where
/// every other rank listens. The scheme is the classic rendezvous-server
/// one (what `tools/a2arun` arranges):
///
///  1. Every rank opens one TCP data listener per configured local
///     interface (A2A_NET_IFACE, comma-separated; one INADDR_ANY listener
///     otherwise) on an ephemeral port, plus one AF_UNIX listener on the
///     abstract name derived from its first TCP address (unix_name).
///  2. Rank 0 listens on the rendezvous address (A2A_NET_REND=host:port).
///     Peers connect to it and send a registration line
///     `a2a-reg <rank> <naddr> <ip> <port> [<ip> <port> ...]`.
///  3. Once all `size` registrations are in (rank 0 adds its own locally),
///     rank 0 replies to every peer with the full table and closes the
///     connection. The exchange is newline-delimited text — trivially
///     debuggable with `nc`.
///  4. Each rank then opens `rails` connections to every lower-ranked
///     peer and accepts the corresponding connections from higher-ranked
///     peers. A rail first connects to the peer's derived AF_UNIX name,
///     which exists only in the peer's network namespace; when that is
///     refused (another host or namespace) it takes TCP, rail k targeting
///     the peer's address k mod naddr — distinct NICs when the peer
///     advertised several, parallel streams otherwise. Because every
///     listener exists before any table is published, the connect phase
///     never needs the accept phase of the same rank to be running: lower
///     ranks' listen backlogs absorb the connects, so "connect to all
///     lower, then accept from all higher" is deadlock-free. A connection
///     that sends no kHello within A2A_NET_TIMEOUT fails the bootstrap.

#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace mca2a::net {

/// Backend configuration, usually parsed from the environment the
/// launcher sets (options_from_env); tests fill it directly.
struct NetOptions {
  int rank = -1;
  int size = 0;
  Address rendezvous;           ///< rank 0 binds it, everyone else connects
  /// Rank 0 only: an already-bound, already-listening rendezvous socket
  /// inherited from the launcher (A2A_NET_REND_FD). Launchers that pick an
  /// ephemeral port keep the listener open and pass it down so the port
  /// cannot be claimed by another process between pick and bind; -1 means
  /// rank 0 binds `rendezvous` itself. rendezvous_exchange takes ownership.
  int rendezvous_fd = -1;
  int rails = 2;                ///< connections per peer pair (A2A_NET_RAILS)
  std::size_t eager_max = 16 * 1024;    ///< eager/rendezvous switch (bytes)
  std::size_t stripe_min = 256 * 1024;  ///< stripe-across-rails threshold
  std::vector<std::string> ifaces;      ///< local addresses to bind/advertise
  double timeout_s = 60.0;              ///< bootstrap + shutdown deadline

  void validate() const;  ///< throws std::invalid_argument on nonsense
};

/// Parse A2A_NET_RANK / A2A_NET_SIZE / A2A_NET_REND / A2A_NET_REND_FD /
/// A2A_NET_RAILS / A2A_NET_EAGER / A2A_NET_STRIPE / A2A_NET_IFACE /
/// A2A_NET_TIMEOUT.
/// Throws std::runtime_error when the three mandatory variables are
/// missing (i.e. the process was not started by a launcher).
NetOptions options_from_env();
/// True when A2A_NET_RANK is present (cheap "was I launched?" probe).
bool env_configured() noexcept;

/// One rank's advertised data listeners.
struct PeerInfo {
  int rank = -1;
  std::vector<Address> addrs;
};

/// Run the rendezvous exchange: rank 0 serves, everyone else registers.
/// `self` describes this rank's listeners. Returns the table indexed by
/// rank. Blocking; throws on timeout, duplicate ranks or protocol errors.
std::vector<PeerInfo> rendezvous_exchange(const NetOptions& opts,
                                          const PeerInfo& self);

}  // namespace mca2a::net
