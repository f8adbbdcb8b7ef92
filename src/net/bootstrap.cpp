#include "net/bootstrap.hpp"

#include <climits>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "runtime/env.hpp"

namespace mca2a::net {

namespace {

/// Read one '\n'-terminated line from a blocking socket, polling before
/// every byte so a silent peer cannot stall the exchange past `deadline`
/// (bootstrap only; byte-at-a-time is fine for a dozen short lines).
std::string read_line(int fd, Deadline deadline) {
  std::string line;
  char c = 0;
  for (;;) {
    read_all(fd, &c, 1, deadline,
             "net: rendezvous timed out reading a registration line");
    if (c == '\n') {
      return line;
    }
    line.push_back(c);
    if (line.size() > 1 << 16) {
      throw std::runtime_error("net: oversized bootstrap line");
    }
  }
}

void write_line(int fd, const std::string& line) {
  const std::string out = line + "\n";
  write_all(fd, out.data(), out.size());
}

PeerInfo parse_reg(const std::string& line, int size) {
  std::istringstream is(line);
  std::string word;
  PeerInfo p;
  std::size_t naddr = 0;
  if (!(is >> word >> p.rank >> naddr) || word != "a2a-reg") {
    throw std::runtime_error("net: malformed registration '" + line + "'");
  }
  if (p.rank < 0 || p.rank >= size || naddr == 0 || naddr > 64) {
    throw std::runtime_error("net: registration out of range: " + line);
  }
  for (std::size_t i = 0; i < naddr; ++i) {
    Address a;
    if (!(is >> a.host >> a.port)) {
      throw std::runtime_error("net: truncated registration: " + line);
    }
    p.addrs.push_back(std::move(a));
  }
  return p;
}

std::string format_reg(const PeerInfo& p) {
  std::ostringstream os;
  os << "a2a-reg " << p.rank << ' ' << p.addrs.size();
  for (const Address& a : p.addrs) {
    os << ' ' << a.host << ' ' << a.port;
  }
  return os.str();
}

}  // namespace

void NetOptions::validate() const {
  if (size < 1) {
    throw std::invalid_argument("net: world size must be >= 1");
  }
  if (rank < 0 || rank >= size) {
    throw std::invalid_argument("net: rank out of range");
  }
  if (rails < 1 || rails > 64) {
    throw std::invalid_argument("net: rails must be in [1, 64]");
  }
  if (size > 1 && (rendezvous.host.empty() || rendezvous.port == 0)) {
    throw std::invalid_argument("net: rendezvous address required");
  }
  if (stripe_min == 0 || timeout_s <= 0.0) {
    throw std::invalid_argument("net: bad stripe threshold or timeout");
  }
}

bool env_configured() noexcept {
  return rt::env::is_set("A2A_NET_RANK");
}

NetOptions options_from_env() {
  const auto rend = rt::env::get_string("A2A_NET_REND");
  if (!rt::env::is_set("A2A_NET_RANK") || !rt::env::is_set("A2A_NET_SIZE") ||
      !rend) {
    throw std::runtime_error(
        "net: A2A_NET_RANK/A2A_NET_SIZE/A2A_NET_REND not set — launch this "
        "program with tools/a2arun");
  }
  NetOptions o;
  o.size = static_cast<int>(rt::env::get_int("A2A_NET_SIZE", 1, 1, 1 << 20));
  o.rank =
      static_cast<int>(rt::env::get_int("A2A_NET_RANK", 0, 0, o.size - 1));
  o.rendezvous = parse_address(rend->c_str());
  o.rendezvous_fd = static_cast<int>(
      rt::env::get_int("A2A_NET_REND_FD", o.rendezvous_fd, -1, INT_MAX));
  o.rails = static_cast<int>(rt::env::get_int("A2A_NET_RAILS", o.rails, 1, 64));
  o.eager_max = rt::env::get_size("A2A_NET_EAGER", o.eager_max, 0,
                                  std::size_t{1} << 40);
  o.stripe_min = rt::env::get_size("A2A_NET_STRIPE", o.stripe_min, 1,
                                   std::size_t{1} << 40);
  o.timeout_s = rt::env::get_double("A2A_NET_TIMEOUT", o.timeout_s, 1e-3, 1e6);
  o.ifaces = rt::env::get_list("A2A_NET_IFACE");
  o.validate();
  return o;
}

std::vector<PeerInfo> rendezvous_exchange(const NetOptions& opts,
                                          const PeerInfo& self) {
  std::vector<PeerInfo> table(static_cast<std::size_t>(opts.size));
  if (opts.size == 1) {
    Fd{opts.rendezvous_fd};  // consume an inherited listener, if any
    table[0] = self;
    return table;
  }

  const Deadline deadline = deadline_in(opts.timeout_s);

  if (opts.rank == 0) {
    // Serve: collect size-1 registrations, then publish the table. A
    // launcher that already bound the rendezvous port hands the listener
    // down as an inherited fd (closing the race between picking a port
    // and re-binding it); otherwise bind it here.
    Fd listener(opts.rendezvous_fd);
    if (!listener.valid()) {
      listener = std::move(
          listen_tcp("", opts.rendezvous.port, opts.size + 8).first);
    }
    table[0] = self;
    std::vector<Fd> conns;
    conns.reserve(static_cast<std::size_t>(opts.size) - 1);
    std::vector<int> conn_rank(static_cast<std::size_t>(opts.size) - 1, -1);
    for (int i = 0; i < opts.size - 1; ++i) {
      wait_readable(listener.get(), deadline,
                    "net: rendezvous timed out waiting for rank registrations");
      Fd c = accept_conn(listener.get());
      PeerInfo p = parse_reg(read_line(c.get(), deadline), opts.size);
      if (!table[static_cast<std::size_t>(p.rank)].addrs.empty() ||
          p.rank == 0) {
        throw std::runtime_error("net: duplicate registration for rank " +
                                 std::to_string(p.rank));
      }
      conn_rank[static_cast<std::size_t>(i)] = p.rank;
      table[static_cast<std::size_t>(p.rank)] = std::move(p);
      conns.push_back(std::move(c));
    }
    std::ostringstream os;
    os << "a2a-table " << opts.size << "\n";
    for (const PeerInfo& p : table) {
      os << format_reg(p) << "\n";
    }
    const std::string blob = os.str();
    for (Fd& c : conns) {
      write_all(c.get(), blob.data(), blob.size());
    }
    return table;
  }

  // Register, then read the table back. Rank 0 legitimately waits for the
  // slowest rank before publishing, so the table read gets its own
  // timeout_s window starting after our connect succeeded.
  Fd c = connect_tcp(opts.rendezvous, opts.timeout_s);
  write_line(c.get(), format_reg(self));
  const Deadline table_deadline = deadline_in(opts.timeout_s);
  const std::string head = read_line(c.get(), table_deadline);
  std::istringstream is(head);
  std::string word;
  int n = 0;
  if (!(is >> word >> n) || word != "a2a-table" || n != opts.size) {
    throw std::runtime_error("net: bad rendezvous table header '" + head +
                             "'");
  }
  for (int i = 0; i < n; ++i) {
    PeerInfo p = parse_reg(read_line(c.get(), table_deadline), opts.size);
    table[static_cast<std::size_t>(p.rank)] = std::move(p);
  }
  return table;
}

}  // namespace mca2a::net
