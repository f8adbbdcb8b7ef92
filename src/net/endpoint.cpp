#include "net/endpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/env.hpp"

namespace mca2a::net {

namespace {

/// Truncation diagnostic: enough context to identify the offending message
/// (matching site, comm-rank source, tag, sizes) from the thrown error.
std::string trunc_msg(const char* site, int src, int tag, std::uint64_t bytes,
                      std::size_t buf_len) {
  return "message truncation: receive buffer smaller than incoming message (" +
         std::string(site) + ": src " + std::to_string(src) + " tag " +
         std::to_string(tag) + ", " + std::to_string(bytes) + " B into " +
         std::to_string(buf_len) + " B)";
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Local IPv4 this host would use to reach `toward` (the classic
/// UDP-connect trick; no packet is sent).
std::string route_source_ip(const Address& toward) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) {
    return "127.0.0.1";
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(toward.port == 0 ? 9 : toward.port);
  const std::string ip = resolve_ipv4(toward.host);
  if (::inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1 ||
      ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
          0) {
    return "127.0.0.1";
  }
  return local_address(fd.get()).host;
}

/// True when `local_ranks` processes fit the CPUs the calling thread may
/// run on, i.e. a polling wait takes no CPU from another rank.
bool ranks_fit_cpus(int local_ranks) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return false;
  }
  return local_ranks <= CPU_COUNT(&set);
}

}  // namespace

Endpoint::Endpoint(NetOptions opts)
    : opts_(std::move(opts)), epoch_(std::chrono::steady_clock::now()) {
  opts_.validate();
  epoll_ = Fd(::epoll_create1(0));
  if (!epoll_.valid()) {
    throw std::runtime_error("net: epoll_create1 failed");
  }

  // Observability: per-rail counters registered once; one flight-recorder
  // stream for this process's rank (wall-clock domain).
  obs::MetricsRegistry& reg = obs::metrics();
  for (int r = 0; r < opts_.rails; ++r) {
    const std::string base = "net.rail." + std::to_string(r) + ".";
    rail_tx_.push_back(&reg.counter(base + "tx_bytes"));
    rail_rx_.push_back(&reg.counter(base + "rx_bytes"));
    rail_retry_.push_back(&reg.counter(base + "tx_retries"));
  }
  tx_calls_ = &reg.counter("net.tx_calls");
  rx_calls_ = &reg.counter("net.rx_calls");
  frames_tx_ = &reg.counter("net.frames_tx");
  frames_rx_ = &reg.counter("net.frames_rx");
  eager_tx_ = &reg.counter("net.eager_tx");
  rndv_tx_ = &reg.counter("net.rndv_tx");
  rtr_tx_ = &reg.counter("net.rtr_tx");
  rtr_used_ = &reg.counter("net.rtr_used");
  if (obs::TraceRecorder* rec = obs::active_recorder()) {
    trace_rec_ = rec;
    trace_session_ = rec->begin_session("net");
    tracer_ = rec->open_stream(trace_session_, opts_.rank);
    tracer_->set_clock([this] { return now(); });
    tracer_->set_world_rank(opts_.rank);
    sync_period_s_ =
        rt::env::get_double("A2A_TRACE_SYNC", 0.0, 0.0, 86400.0);
  }

  build_mesh();
  reg.gauge("net.busy_poll").set(busy_poll_ ? 1 : 0);
}

Endpoint::~Endpoint() {
  shutdown();
  if (trace_rec_ != nullptr) {
    trace_rec_->end_session(trace_session_);
    // The clock lambda captures `this`; unbind it so nothing dangling
    // survives into the exit-time writers.
    tracer_->set_clock({});
  }
}

double Endpoint::now() const {
  const auto d = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(d).count();
}

// --- bootstrap ---------------------------------------------------------------

void Endpoint::build_mesh() {
  const double t_start = now();
  obs::Span bootstrap_sp(tracer_, "net.bootstrap", "net", 0,
                         {{"ranks", opts_.size}, {"rails", opts_.rails}});
  peers_.resize(static_cast<std::size_t>(opts_.size));
  for (Peer& p : peers_) {
    p.conns.assign(static_cast<std::size_t>(opts_.rails), -1);
  }
  if (opts_.size == 1) {
    Fd{opts_.rendezvous_fd};  // consume an inherited listener, if any
    opts_.rendezvous_fd = -1;
    busy_poll_ = ranks_fit_cpus(1);
    return;  // all traffic is self-delivery
  }

  // Data listeners: one per configured interface, or one wildcard
  // listener advertised as the address this host uses to reach the
  // rendezvous server.
  PeerInfo self;
  self.rank = opts_.rank;
  const int backlog = std::max(64, opts_.size * opts_.rails + 8);
  {
    obs::Span sp(tracer_, "net.listen", "net", 0);
    if (opts_.ifaces.empty()) {
      auto [fd, port] = listen_tcp("", 0, backlog);
      listeners_.push_back(std::move(fd));
      self.addrs.push_back(Address{route_source_ip(opts_.rendezvous), port});
    } else {
      for (const std::string& iface : opts_.ifaces) {
        const std::string ip = resolve_ipv4(iface);
        auto [fd, port] = listen_tcp(ip, 0, backlog);
        listeners_.push_back(std::move(fd));
        self.addrs.push_back(Address{ip, port});
      }
    }
    // Peers in this network namespace connect to the name derived from our
    // first TCP address instead. It is bound while we hold that address,
    // so no other rank following this rule can hold the same name.
    if (Fd fd = listen_unix(unix_name(self.addrs.front()), backlog);
        fd.valid()) {
      listeners_.push_back(std::move(fd));
    }
  }

  std::vector<PeerInfo> table;
  {
    // Register with the rendezvous server and block for the full table —
    // the startup phase that scales with job size and server placement.
    obs::Span sp(tracer_, "net.rendezvous", "net", 0,
                 {{"ranks", opts_.size}});
    table = rendezvous_exchange(opts_, self);
  }
  opts_.rendezvous_fd = -1;  // rendezvous_exchange owned and closed it

  // Progress mode: poll when every rank on this host (same first
  // advertised address as ours) can have a CPU of our affinity mask;
  // an oversubscribed host keeps its waiters asleep in epoll_wait.
  const std::string& host = self.addrs.front().host;
  const auto local_ranks =
      std::count_if(table.begin(), table.end(), [&](const PeerInfo& p) {
        return !p.addrs.empty() && p.addrs.front().host == host;
      });
  busy_poll_ = ranks_fit_cpus(static_cast<int>(local_ranks));

  // Connect to every lower-ranked peer (all rails), then accept from every
  // higher-ranked one. Every listener already existed before the table was
  // published, so the connect phase completes against listen backlogs and
  // the strict connect-then-accept order cannot deadlock. A rail first
  // tries the peer's derived AF_UNIX name, which exists only when the peer
  // shares our network namespace; a refused name means another host or
  // namespace, and the rail takes TCP.
  for (int q = 0; q < opts_.rank; ++q) {
    const PeerInfo& peer = table[static_cast<std::size_t>(q)];
    if (peer.addrs.empty()) {
      throw std::runtime_error("net: rank " + std::to_string(q) +
                               " missing from rendezvous table");
    }
    obs::Span sp(tracer_, "net.connect", "net", 0,
                 {{"peer", q}, {"rails", opts_.rails}});
    const std::string local_name = unix_name(peer.addrs.front());
    for (int r = 0; r < opts_.rails; ++r) {
      const Address& a = peer.addrs[static_cast<std::size_t>(r) %
                                    peer.addrs.size()];
      Fd fd = connect_unix(local_name, opts_.timeout_s);
      if (!fd.valid()) {
        fd = connect_tcp(a, opts_.timeout_s);
      }
      FrameHeader hello;
      hello.kind = FrameKind::kHello;
      hello.src = opts_.rank;
      hello.rail = static_cast<std::uint32_t>(r);
      std::byte hdr[kHeaderBytes];
      encode(hello, hdr);
      write_all(fd.get(), hdr, kHeaderBytes);
      register_conn(std::move(fd), q, r);
    }
  }

  int expected = (opts_.size - 1 - opts_.rank) * opts_.rails;
  obs::Span accept_sp(tracer_, "net.accept", "net", 0,
                      {{"expected", expected}});
  std::vector<pollfd> pfds;
  for (const Fd& l : listeners_) {
    pfds.push_back(pollfd{l.get(), POLLIN, 0});
  }
  const Deadline deadline = deadline_in(opts_.timeout_s);
  const std::string timed_out = "net: timed out accepting peer connections";
  while (expected > 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error(timed_out);
    }
    const int n = ::poll(pfds.data(), pfds.size(), 200);
    if (n < 0 && errno != EINTR) {
      throw std::runtime_error("net: poll failed during bootstrap");
    }
    for (pollfd& p : pfds) {
      if ((p.revents & POLLIN) == 0) {
        continue;
      }
      // Any process in this namespace (the AF_UNIX name) or able to reach
      // the port may connect; one that never sends its hello meets the
      // deadline instead of blocking the mesh build.
      Fd fd = accept_conn(p.fd);
      std::byte hdr[kHeaderBytes];
      read_all(fd.get(), hdr, kHeaderBytes, deadline, timed_out);
      const FrameHeader h = decode(hdr);
      if (h.kind != FrameKind::kHello || h.src <= opts_.rank ||
          h.src >= opts_.size ||
          h.rail >= static_cast<std::uint32_t>(opts_.rails)) {
        throw std::runtime_error("net: bad hello during bootstrap");
      }
      if (peers_[static_cast<std::size_t>(h.src)]
              .conns[static_cast<std::size_t>(h.rail)] != -1) {
        throw std::runtime_error("net: duplicate rail connection");
      }
      register_conn(std::move(fd), h.src, static_cast<int>(h.rail));
      --expected;
    }
  }
  accept_sp.close();
  listeners_.clear();  // the mesh is complete; nobody else will connect
  obs::metrics().counter("net.connections").add(conns_.size());
  obs::metrics().counter("net.connections_unix").add(static_cast<std::uint64_t>(
      std::count_if(conns_.begin(), conns_.end(),
                    [](const Conn& c) { return is_unix(c.fd.get()); })));

  // Clock calibration against rank 0 rides the freshly built mesh; only
  // meaningful (and only paid for) when the flight recorder is on.
  if (tracer_ != nullptr) {
    run_calibration();
  }
  bootstrap_sp.close();
  obs::metrics()
      .counter("net.bootstrap_micros")
      .add(static_cast<std::uint64_t>((now() - t_start) * 1e6));
}

void Endpoint::run_calibration() {
  last_sync_s_ = now();
  if (opts_.size <= 1 || opts_.rank == 0 || fatal_ || shut_down_) {
    return;
  }
  Peer& ref = peers_[0];
  if (ref.dead || ref.bye_seen || ref.finished) {
    return;
  }
  obs::Span sp(tracer_, "net.calibrate", "net", 0);
  constexpr int kProbes = 16;
  std::vector<obs::ProbeSample> samples;
  samples.reserve(kProbes);
  // Rank 0 serves pings reactively whenever it progresses (a wait, a
  // shutdown drain), so a probe answers as soon as the reference rank
  // touches the engine. If it never does — it exited, or sits in compute —
  // bail at the deadline and keep the previous calibration.
  const double deadline = now() + std::min(2.0, opts_.timeout_s);
  for (int i = 0; i < kProbes; ++i) {
    FrameHeader ping;
    ping.kind = FrameKind::kPing;
    ping.token = ++ping_token_;
    pong_pending_ = true;
    const double t_send = now();
    enqueue(ref.conns[0], ping, rt::ConstView{}, {}, UINT32_MAX);
    while (pong_pending_) {
      if (fatal_ || ref.dead || ref.bye_seen || now() >= deadline) {
        pong_pending_ = false;
        return;
      }
      progress(1);
    }
    samples.push_back(obs::ProbeSample{t_send, pong_remote_s_, now()});
  }
  const obs::ClockCalibration round = obs::estimate_offset(samples);
  if (!round.valid) {
    return;
  }
  calib_rounds_.push_back(round);
  tracer_->set_calibration(obs::fit_drift(calib_rounds_));
}

std::uint64_t Endpoint::flow_of(std::uint64_t comm_key, int src_world,
                                int dst_world, int tag,
                                std::uint64_t seq) const {
  return tracer_ != nullptr
             ? obs::flow_id(comm_key, src_world, dst_world, tag, seq)
             : 0;
}

int Endpoint::register_conn(Fd fd, int peer, int rail) {
  set_nonblocking(fd.get());
  const int ci = static_cast<int>(conns_.size());
  Conn& c = conns_.emplace_back();
  c.fd = std::move(fd);
  c.peer = peer;
  c.rail = rail;
  c.open = true;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = static_cast<std::uint32_t>(ci);
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, c.fd.get(), &ev) != 0) {
    throw std::runtime_error("net: epoll_ctl ADD failed");
  }
  peers_[static_cast<std::size_t>(peer)]
      .conns[static_cast<std::size_t>(rail)] = ci;
  return ci;
}

// --- op pool -----------------------------------------------------------------

std::uint32_t Endpoint::alloc_op() {
  std::uint32_t slot;
  if (!free_ops_.empty()) {
    slot = free_ops_.back();
    free_ops_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(ops_.size());
    ops_.emplace_back();
  }
  Op& op = ops_[slot];
  const std::uint32_t serial = op.serial;
  op = Op{};
  op.serial = serial;
  op.in_use = true;
  return slot;
}

Endpoint::Op& Endpoint::op_checked(const rt::Request& r) {
  if (r.slot >= ops_.size()) {
    throw std::logic_error("net: request refers to unknown operation");
  }
  Op& op = ops_[r.slot];
  if (!op.in_use || op.serial != r.serial) {
    throw std::logic_error("net: request already completed (stale)");
  }
  return op;
}

Endpoint::Conn& Endpoint::rail0(int peer) {
  return conns_[static_cast<std::size_t>(
      peers_[static_cast<std::size_t>(peer)].conns[0])];
}

Endpoint::CommState& Endpoint::comm_state(std::uint64_t key) {
  return comms_.try_emplace(key, match_pool_).first->second;
}

Endpoint::Pair& Endpoint::pair(CommState& cs, int peer_world) {
  if (cs.pairs.empty()) {
    cs.pairs.resize(static_cast<std::size_t>(opts_.size));
  }
  return cs.pairs[static_cast<std::size_t>(peer_world)];
}

rt::SubcommRegistry::Creation Endpoint::create_comm(rt::RankSet parent,
                                                    rt::RankSet members,
                                                    int caller,
                                                    std::uint64_t* key) {
  const rt::SubcommRegistry::Creation c =
      subcomms_.create(parent, members, caller);
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, static_cast<std::uint64_t>(c.world_ranks.size()));
  if (c.world.is_progression()) {
    // A canonical list has at least three members, so it never hashes the
    // same words as a progression.
    h = fnv1a(h, static_cast<std::uint64_t>(c.world.first()));
    h = fnv1a(h, static_cast<std::uint64_t>(c.world.stride()));
  } else {
    for (int m : c.world_ranks) {
      h = fnv1a(h, static_cast<std::uint64_t>(m));
    }
  }
  *key = fnv1a(h, c.occurrence);
  return c;
}

// --- posting -----------------------------------------------------------------

rt::Request Endpoint::post_send(std::uint64_t comm_key,
                                std::span<const int> members, int me,
                                int dst, int tag, rt::ConstView buf) {
  if (fatal_) {
    throw std::runtime_error(fatal_msg_);
  }
  if (buf.is_virtual()) {
    throw std::invalid_argument(
        "net: the socket backend moves real bytes; virtual payloads are only "
        "meaningful on the simulator");
  }
  const int dst_world = members[static_cast<std::size_t>(dst)];
  if (dst_world == opts_.rank) {
    deliver_eager_local(comm_key, me, tag, buf);
    return rt::Request{};  // locally delivered: already complete
  }
  Peer& peer = peers_[static_cast<std::size_t>(dst_world)];
  if (peer.dead || peer.bye_seen || peer.finished) {
    throw std::runtime_error("net: send to rank " + std::to_string(dst_world) +
                             " which already shut down");
  }
  Pair& pr = pair(comm_state(comm_key), dst_world);
  const std::uint64_t seq = pr.tx_seq++;
  const std::uint64_t flow = flow_of(comm_key, opts_.rank, dst_world, tag, seq);
  // Every offer held names this frame: a rendezvous body may use the one
  // for its tag if it fits, and the rest go stale.
  std::uint64_t offer = 0;
  for (const Offer& o : pr.offers) {
    if (o.tag == tag && buf.len > opts_.eager_max && buf.len <= o.capacity) {
      offer = o.token;
      break;
    }
  }
  pr.offers.clear();

  if (buf.len <= opts_.eager_max) {
    FrameHeader h;
    h.kind = FrameKind::kEager;
    h.tag = tag;
    h.comm_key = comm_key;
    h.src = me;
    h.bytes = buf.len;
    std::vector<std::byte> owned;
    if (buf.len > 0) {
      owned.assign(buf.ptr, buf.ptr + buf.len);
    }
    eager_tx_->add(1);
    enqueue(peer.conns[0], h, rt::ConstView{}, std::move(owned), UINT32_MAX,
            buf.len > 0 ? flow : 0);
    return rt::Request{};  // buffered: complete on return
  }

  const std::uint32_t slot = alloc_op();
  Op& op = ops_[slot];
  op.kind = Op::Kind::kSend;
  op.sbuf = buf;
  op.dst_world = dst_world;
  op.comm_key = comm_key;
  op.tag = tag;
  op.seq = seq;
  // The RTS is the matching-relevant frame: its flow arrow starts later,
  // from the first data chunk's net.send span.
  op.flow_id = flow;
  FrameHeader h;
  h.kind = FrameKind::kRts;
  h.tag = tag;
  h.comm_key = comm_key;
  h.src = me;
  h.bytes = buf.len;
  h.token = slot;
  rndv_tx_->add(1);
  // With an offer the body follows its kRts in the same flush.
  enqueue(peer.conns[0], h, rt::ConstView{}, {}, UINT32_MAX, 0, offer == 0);
  if (offer != 0) {
    rtr_used_->add(1);
    send_data_frames(slot, offer, true);
  } else {
    pr.unanswered.emplace_back(seq, slot);
  }
  return rt::Request{slot, op.serial};
}

rt::Request Endpoint::post_recv(std::uint64_t comm_key,
                                std::span<const int> members, int src,
                                int tag, rt::MutView buf) {
  if (fatal_) {
    throw std::runtime_error(fatal_msg_);
  }
  if (buf.is_virtual()) {
    throw std::invalid_argument("net: virtual receive buffer");
  }
  const std::uint32_t slot = alloc_op();
  Op& op = ops_[slot];
  op.kind = Op::Kind::kRecv;
  op.rbuf = buf;
  op.comm_key = comm_key;
  op.src = src;
  op.src_world =
      src == rt::kAnySource ? -1 : members[static_cast<std::size_t>(src)];
  op.tag = tag;

  CommState& cs = comm_state(comm_key);
  if (const std::optional<Unexpected> u = cs.match.take_unexpected(src, tag)) {
    if (u->rndv) {
      start_rndv_recv(slot, u->peer_world, u->sender_token, u->bytes,
                      u->flow_id);
    } else {
      deliver(op, "unexpected", u->src, u->tag,
              rt::ConstView{u->payload.data(), u->bytes});
    }
    return rt::Request{slot, op.serial};
  }
  // A receive from an already-departed peer can never match more than the
  // unexpected queue we just searched.
  if (op.src_world >= 0) {
    const Peer& peer = peers_[static_cast<std::size_t>(op.src_world)];
    if (op.src_world != opts_.rank && (peer.finished || peer.dead)) {
      op.complete = true;
      op.error = true;
      op.error_msg = "net: receive posted for rank " +
                     std::to_string(op.src_world) +
                     " which already shut down";
      return rt::Request{slot, op.serial};
    }
  }
  maybe_offer(cs, slot);
  cs.match.post(src, tag, slot);
  return rt::Request{slot, op.serial};
}

void Endpoint::maybe_offer(CommState& cs, std::uint32_t recv_op) {
  Op& op = ops_[recv_op];
  if (op.src_world < 0 || op.src_world == opts_.rank ||
      op.tag == rt::kAnyTag || op.rbuf.len <= opts_.eager_max ||
      op.rbuf.len >= opts_.stripe_min ||
      cs.match.has_posted_for(op.src, op.tag)) {
    return;
  }
  // An eager frame of this communicator still streaming in unmatched
  // takes the earliest eligible receive when it completes, maybe this one.
  const Conn& in = rail0(op.src_world);
  if (in.rx_in_payload && in.rx_frame.kind == FrameKind::kEager &&
      in.rx_recv_op == UINT32_MAX && in.rx_frame.comm_key == op.comm_key) {
    return;
  }
  op.seq = pair(cs, op.src_world).rx_seq;
  op.offer_token = next_rndv_token_++;
  FrameHeader h;
  h.kind = FrameKind::kRtr;
  h.tag = op.tag;
  h.comm_key = op.comm_key;
  h.bytes = op.rbuf.len;
  h.token = op.offer_token;
  h.token2 = op.seq;
  rtr_tx_->add(1);
  enqueue(peers_[static_cast<std::size_t>(op.src_world)].conns[0], h,
          rt::ConstView{}, {}, UINT32_MAX, 0, /*flush=*/false);
}

void Endpoint::on_offer(Pair& pr, const FrameHeader& h) {
  if (h.token2 == pr.tx_seq) {
    pr.offers.push_back(Offer{h.tag, h.bytes, h.token});
    return;
  }
  // The frame the offer names is queued already. Offers arrive in frame
  // order, so no older unanswered kRts can get one any more; the kRts it
  // names takes it if the tag matches and the body fits.
  auto& un = pr.unanswered;
  un.erase(un.begin(),
           std::find_if(un.begin(), un.end(),
                        [&](const auto& e) { return e.first >= h.token2; }));
  if (un.empty() || un.front().first != h.token2) {
    return;
  }
  const std::uint32_t send_op = un.front().second;
  const Op& op = ops_[send_op];
  if (op.tag == h.tag && op.sbuf.len <= h.bytes) {
    un.erase(un.begin());
    rtr_used_->add(1);
    send_data_frames(send_op, h.token, true);
  }
}

void Endpoint::deliver_eager_local(std::uint64_t comm_key, int src, int tag,
                                   rt::ConstView payload) {
  CommState& cs = comm_state(comm_key);
  if (const std::optional<std::uint32_t> opid =
          cs.match.take_posted(src, tag)) {
    deliver(ops_[*opid], "self", src, tag, payload);
    return;
  }
  Unexpected u{.src = src, .tag = tag, .bytes = payload.len};
  if (payload.len > 0) {
    u.payload.assign(payload.ptr, payload.ptr + payload.len);
  }
  cs.match.park(src, tag, std::move(u));
}

void Endpoint::deliver(Op& op, const char* site, int src, int tag,
                       rt::ConstView payload) {
  op.received = std::min<std::size_t>(payload.len, op.rbuf.len);
  if (payload.len > op.rbuf.len) {
    op.error = true;
    op.error_msg = trunc_msg(site, src, tag, payload.len, op.rbuf.len);
  }
  if (op.received > 0) {
    std::memcpy(op.rbuf.ptr, payload.ptr, op.received);
  }
  op.complete = true;
}

void Endpoint::start_rndv_recv(std::uint32_t recv_op, int peer_world,
                               std::uint64_t sender_token,
                               std::uint64_t bytes, std::uint64_t flow,
                               std::uint64_t offered) {
  Op& op = ops_[recv_op];
  Peer& peer = peers_[static_cast<std::size_t>(peer_world)];
  if (peer.dead || peer.finished) {
    op.complete = true;
    op.error = true;
    op.error_msg = "net: rendezvous peer " + std::to_string(peer_world) +
                   " shut down before sending";
    return;
  }
  const std::uint64_t token = offered != 0 ? offered : next_rndv_token_++;
  RndvRecv rr;
  rr.op = recv_op;
  rr.bytes = bytes;
  rr.remaining = bytes;
  rr.peer_world = peer_world;
  rr.flow_id = flow;
  rr.overflow = bytes > op.rbuf.len;
  rr.dest = rt::MutView{op.rbuf.ptr,
                        std::min<std::size_t>(bytes, op.rbuf.len)};
  op.received = rr.dest.len;
  if (rr.overflow) {
    op.error = true;
    op.error_msg = trunc_msg("rndv", op.src, op.tag, bytes, op.rbuf.len);
  }
  rndv_recvs_.emplace(token, rr);
  if (offered != 0) {
    return;  // the sender streams to the offered token unasked
  }
  FrameHeader h;
  h.kind = FrameKind::kCts;
  h.token = sender_token;
  h.token2 = token;
  enqueue(peer.conns[0], h, rt::ConstView{}, {}, UINT32_MAX);
}

void Endpoint::send_data_frames(std::uint32_t send_op,
                                std::uint64_t recv_token, bool offered) {
  Op& op = ops_[send_op];
  op.cts_seen = true;
  Peer& peer = peers_[static_cast<std::size_t>(op.dst_world)];
  const std::size_t bytes = op.sbuf.len;
  const int rails = opts_.rails;
  if (!offered && bytes >= opts_.stripe_min && rails > 1) {
    // Stripe: one contiguous chunk per rail, so a single large message
    // (the locality algorithms' aggregated leader exchange) drives every
    // connection of the pair at once.
    const std::size_t chunk =
        (bytes + static_cast<std::size_t>(rails) - 1) /
        static_cast<std::size_t>(rails);
    // Count the chunks BEFORE enqueueing: enqueue flushes synchronously,
    // and a frame that completes while frames_left undercounts would
    // complete (and release) the send operation with stripes still queued.
    op.frames_left = static_cast<std::uint32_t>((bytes + chunk - 1) / chunk);
    std::size_t off = 0;
    int rail = 0;
    while (off < bytes) {
      const std::size_t n = std::min(chunk, bytes - off);
      FrameHeader h;
      h.kind = FrameKind::kData;
      h.bytes = n;
      h.token = recv_token;
      h.token2 = off;
      enqueue(peer.conns[static_cast<std::size_t>(rail)], h,
              op.sbuf.sub(off, n), {}, send_op,
              off == 0 ? op.flow_id : 0);
      off += n;
      ++rail;
    }
  } else {
    // An offered body goes whole, behind its kRts on rail 0: the receiver
    // activates the offered token only when it parses that kRts.
    const int rail =
        offered ? 0
                : static_cast<int>(peer.next_rail++ %
                                   static_cast<std::uint64_t>(rails));
    FrameHeader h;
    h.kind = FrameKind::kData;
    h.bytes = bytes;
    h.token = recv_token;
    h.token2 = 0;
    op.frames_left = 1;
    enqueue(peer.conns[static_cast<std::size_t>(rail)], h, op.sbuf, {},
            send_op, op.flow_id);
  }
}

// --- waiting -----------------------------------------------------------------

void Endpoint::wait(std::span<const rt::Request> reqs) {
  // Periodic re-sync (A2A_TRACE_SYNC): refresh the clock calibration at
  // the first wait past the period — the engine is between frames here,
  // and the probes ride the same progress loop the wait is about to spin.
  if (tracer_ != nullptr && sync_period_s_ > 0.0 && opts_.rank != 0 &&
      !shut_down_ && !fatal_ && now() - last_sync_s_ >= sync_period_s_) {
    run_calibration();
  }
  drive_until(
      [&] {
        for (const rt::Request& r : reqs) {
          if (r.valid() && !op_checked(r).complete) {
            return false;
          }
        }
        return true;
      },
      "wait");
  bool failed = false;
  std::string msg;
  for (const rt::Request& r : reqs) {
    if (!r.valid()) {
      continue;
    }
    Op& op = op_checked(r);
    if (op.error && !failed) {
      failed = true;
      msg = op.error_msg;
    }
    ++op.serial;
    op.in_use = false;
    free_ops_.push_back(r.slot);
  }
  if (failed) {
    throw std::runtime_error(msg);
  }
}

void Endpoint::drive_until(const std::function<bool()>& done,
                           const char* what) {
  while (!done()) {
    if (fatal_) {
      throw std::runtime_error(fatal_msg_ + std::string(" (during ") + what +
                               ")");
    }
    progress(busy_poll_ ? 0 : 200);
  }
}

void Endpoint::progress(int timeout_ms) {
  // Frames queued without a flush (offers) leave before anything new is
  // parsed.
  while (!unflushed_.empty()) {
    const int ci = unflushed_.back();
    unflushed_.pop_back();
    if (!conns_[static_cast<std::size_t>(ci)].want_out) {
      handle_writable(ci);
    }
  }
  epoll_event events[64];
  const int n =
      ::epoll_wait(epoll_.get(), events, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) {
      return;
    }
    fail("net: epoll_wait failed");
    return;
  }
  for (int i = 0; i < n; ++i) {
    const int ci = static_cast<int>(events[i].data.u32);
    if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
      handle_readable(ci);
    }
    if ((events[i].events & EPOLLOUT) != 0) {
      handle_writable(ci);
    }
  }
}

// --- receive path ------------------------------------------------------------

void Endpoint::handle_readable(int ci) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  while (c.open) {
    // A frame that still owes its destination half a staging buffer or
    // more is read straight into it, so large bodies are not copied twice;
    // everything else goes through staging, one read taking whatever the
    // socket holds.
    const std::size_t due = c.rx_in_payload && c.rx_payload_got < c.rx_dest.len
                                ? c.rx_dest.len - c.rx_payload_got
                                : 0;
    const bool direct = due >= kStageBytes / 2;
    std::byte* dst =
        direct ? c.rx_dest.ptr + c.rx_payload_got : rx_stage_.get();
    const std::size_t want = direct ? due : kStageBytes;
    const ssize_t n = ::read(c.fd.get(), dst, want);
    rx_calls_->add(1);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (n <= 0) {
      conn_lost(ci);
      return;
    }
    const auto got = static_cast<std::size_t>(n);
    rail_rx_[static_cast<std::size_t>(c.rail)]->add(got);
    if (direct) {
      c.rx_payload_got += got;
      if (c.rx_payload_got == c.rx_frame.bytes) {
        finish_rx(ci);
      }
    } else {
      consume(ci, dst, got);
    }
    if (got < want) {
      return;  // short read: drained; epoll reports later bytes again
    }
  }
}

void Endpoint::consume(int ci, const std::byte* p, std::size_t n) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  while (n > 0 && c.open) {
    std::size_t take;
    if (!c.rx_in_payload) {
      take = std::min(n, kHeaderBytes - c.rx_header_got);
      std::memcpy(c.rx_header + c.rx_header_got, p, take);
      c.rx_header_got += take;
      if (c.rx_header_got == kHeaderBytes) {
        on_frame(ci);
      }
    } else {
      // Payload bytes land in the matched destination while it lasts and
      // are dropped beyond it, so a truncated receive stays framed.
      take = std::min<std::size_t>(n, c.rx_frame.bytes - c.rx_payload_got);
      if (c.rx_payload_got < c.rx_dest.len) {
        std::memcpy(c.rx_dest.ptr + c.rx_payload_got, p,
                    std::min(take, c.rx_dest.len - c.rx_payload_got));
      }
      c.rx_payload_got += take;
      if (c.rx_payload_got == c.rx_frame.bytes) {
        finish_rx(ci);
      }
    }
    p += take;
    n -= take;
  }
}

void Endpoint::on_frame(int ci) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  FrameHeader h;
  try {
    h = decode(c.rx_header);
  } catch (const std::exception& e) {
    reject_frame(ci, e.what());
    return;
  }
  frames_rx_->add(1);
  c.rx_header_got = 0;
  c.rx_frame = h;
  c.rx_payload_got = 0;
  c.rx_dest = rt::MutView{};
  c.rx_recv_op = UINT32_MAX;
  c.rx_flow_id = 0;

  // A matching frame's source and tag go to the matcher, which keeps
  // negative values for its wildcards and free slots. Its sequence number
  // is drawn at arrival, in the wire order the sender counted.
  CommState* cs = nullptr;
  std::uint64_t seq = 0;
  if (h.kind == FrameKind::kEager || h.kind == FrameKind::kRts) {
    if (h.src < 0 || h.src >= opts_.size || h.tag < 0) {
      reject_frame(ci, "net: matching frame from rank " +
                           std::to_string(c.peer) + " names source " +
                           std::to_string(h.src) + " and tag " +
                           std::to_string(h.tag) +
                           " (a source is a rank below the world size " +
                           std::to_string(opts_.size) + ", a tag is >= 0)");
      return;
    }
    cs = &comm_state(h.comm_key);
    seq = pair(*cs, c.peer).rx_seq++;
  }

  switch (h.kind) {
    case FrameKind::kHello: {
      reject_frame(ci, "net: unexpected hello after bootstrap");
      return;
    }
    case FrameKind::kBye: {
      peers_[static_cast<std::size_t>(c.peer)].bye_seen = true;
      return;
    }
    case FrameKind::kEager: {
      if (h.bytes > opts_.eager_max) {
        reject_frame(ci, "net: eager frame of " + std::to_string(h.bytes) +
                             " B from rank " + std::to_string(c.peer) +
                             " exceeds this rank's eager limit of " +
                             std::to_string(opts_.eager_max) +
                             " B (every rank must use the same "
                             "A2A_NET_EAGER)");
        return;
      }
      const std::optional<std::uint32_t> opid =
          cs->match.take_posted(h.src, h.tag);
      if (h.bytes == 0) {
        if (opid) {
          deliver(ops_[*opid], "eager", h.src, h.tag, rt::ConstView{});
        } else {
          cs->match.park(h.src, h.tag, Unexpected{.src = h.src, .tag = h.tag});
        }
        return;
      }
      if (opid) {
        Op& op = ops_[*opid];
        op.received = std::min<std::size_t>(h.bytes, op.rbuf.len);
        if (h.bytes > op.rbuf.len) {
          op.error = true;
          op.error_msg =
              trunc_msg("eager", h.src, h.tag, h.bytes, op.rbuf.len);
        }
        c.rx_dest = rt::MutView{op.rbuf.ptr, op.received};
        c.rx_recv_op = *opid;
      } else {
        c.rx_owned.resize(h.bytes);
        c.rx_dest = rt::MutView{c.rx_owned.data(), h.bytes};
      }
      c.rx_in_payload = true;
      c.rx_flow_id = flow_of(h.comm_key, c.peer, opts_.rank, h.tag, seq);
      if (tracer_ != nullptr) {
        c.rx_span_open = tracer_->begin(
            "net.recv", "net", ci + 1,
            {{"bytes", static_cast<std::int64_t>(h.bytes)},
             {"peer", c.peer},
             {"rail", c.rail}});
      }
      return;
    }
    case FrameKind::kRts: {
      const std::uint64_t flow =
          flow_of(h.comm_key, c.peer, opts_.rank, h.tag, seq);
      if (const std::optional<std::uint32_t> opid =
              cs->match.take_posted(h.src, h.tag)) {
        // The sender used the receive's offer exactly when this is the
        // frame it named and the body fits (its rule in post_send).
        const Op& op = ops_[*opid];
        const bool offered = op.offer_token != 0 && op.seq == seq &&
                             h.bytes > opts_.eager_max &&
                             h.bytes <= op.rbuf.len;
        start_rndv_recv(*opid, c.peer, h.token, h.bytes, flow,
                        offered ? op.offer_token : 0);
      } else {
        cs->match.park(h.src, h.tag,
                       Unexpected{.src = h.src, .tag = h.tag, .rndv = true,
                                  .bytes = h.bytes, .peer_world = c.peer,
                                  .sender_token = h.token, .flow_id = flow});
      }
      return;
    }
    case FrameKind::kCts: {
      if (h.token >= ops_.size() || !ops_[h.token].in_use ||
          ops_[h.token].kind != Op::Kind::kSend ||
          ops_[h.token].dst_world != c.peer || ops_[h.token].cts_seen) {
        reject_frame(ci, "net: CTS frame for no waiting send operation");
        return;
      }
      const auto send_op = static_cast<std::uint32_t>(h.token);
      const Op& op = ops_[send_op];
      // Every offer for frames up to this one arrived before its kCts
      // (both ride the receiver's rail 0), so none is still to come.
      auto& un = pair(comm_state(op.comm_key), op.dst_world).unanswered;
      un.erase(un.begin(),
               std::find_if(un.begin(), un.end(),
                            [&](const auto& e) { return e.first > op.seq; }));
      send_data_frames(send_op, h.token2, false);
      return;
    }
    case FrameKind::kRtr: {
      Pair& pr = pair(comm_state(h.comm_key), c.peer);
      if (h.tag < 0 || h.token == 0 || h.bytes == 0 || h.token2 > pr.tx_seq) {
        reject_frame(ci, "net: offer frame out of bounds from rank " +
                             std::to_string(c.peer) + " (tag " +
                             std::to_string(h.tag) + ", token " +
                             std::to_string(h.token) + ", " +
                             std::to_string(h.bytes) + " B, frame " +
                             std::to_string(h.token2) + " of " +
                             std::to_string(pr.tx_seq) + " sent)");
        return;
      }
      on_offer(pr, h);
      return;
    }
    case FrameKind::kData: {
      auto it = rndv_recvs_.find(h.token);
      if (it == rndv_recvs_.end()) {
        reject_frame(ci, "net: data frame for unknown rendezvous token");
        return;
      }
      RndvRecv& rr = it->second;
      const std::uint64_t off = h.token2;
      // A sender cuts a body into one fixed layout: the whole body at
      // offset 0, or stripes of ceil(bytes / rails) with a shorter last
      // one (send_data_frames). A chunk off that layout, or one whose
      // slot was already claimed, is rejected: an overlapping or repeated
      // chunk could complete the receive with bytes never written, and an
      // oversized one could make `remaining` wrap so it never completes.
      const auto rails = static_cast<std::uint64_t>(opts_.rails);
      const std::uint64_t stripe =  // ceil without overflow: any kRts size
          rr.bytes / rails + (rr.bytes % rails != 0 ? 1 : 0);
      std::uint64_t claim = 0;  // layout slots this chunk fills
      if (off == 0 && h.bytes == rr.bytes) {
        claim = ~std::uint64_t{0};
      } else if (off < rr.bytes && off % stripe == 0 &&
                 h.bytes == std::min(stripe, rr.bytes - off)) {
        claim = std::uint64_t{1} << (off / stripe);
      }
      if (h.bytes == 0 || claim == 0 || (rr.seen & claim) != 0) {
        reject_frame(ci, "net: data frame out of bounds (" +
                             std::to_string(h.bytes) + " B at offset " +
                             std::to_string(off) + " of a " +
                             std::to_string(rr.bytes) + " B message, " +
                             std::to_string(rr.remaining) +
                             " B due): not a fresh chunk of the body");
        return;
      }
      rr.seen |= claim;
      std::size_t avail = 0;
      if (off < rr.dest.len) {
        avail = std::min<std::size_t>(h.bytes, rr.dest.len -
                                                   static_cast<std::size_t>(
                                                       off));
      }
      c.rx_dest = rt::MutView{
          avail > 0 ? rr.dest.ptr + off : nullptr, avail};
      c.rx_in_payload = true;
      if (tracer_ != nullptr) {
        c.rx_span_open = tracer_->begin(
            "net.recv", "net", ci + 1,
            {{"bytes", static_cast<std::int64_t>(h.bytes)},
             {"peer", c.peer},
             {"rail", c.rail}});
      }
      return;
    }
    case FrameKind::kPing: {
      // Clock-calibration probe: echo the token with our clock reading.
      // Served reactively (not gated on tracer_ — the prober's tracing
      // state is what matters) unless this side already half-closed.
      if (c.open && !c.shut_wr) {
        FrameHeader pong;
        pong.kind = FrameKind::kPong;
        pong.token = h.token;
        pong.token2 = static_cast<std::uint64_t>(now() * 1e9);
        enqueue(ci, pong, rt::ConstView{}, {}, UINT32_MAX);
      }
      return;
    }
    case FrameKind::kPong: {
      // Stale pongs (an abandoned earlier probe) fail the token check.
      if (pong_pending_ && h.token == ping_token_) {
        pong_remote_s_ = static_cast<double>(h.token2) * 1e-9;
        pong_pending_ = false;
      }
      return;
    }
  }
}

void Endpoint::finish_rx(int ci) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  const FrameHeader& h = c.rx_frame;
  // Arrow head first, still inside the net.recv span (Perfetto binds the
  // "f" event to its enclosing slice); the span closes after bookkeeping.
  if (c.rx_span_open && h.kind == FrameKind::kEager && c.rx_flow_id != 0) {
    tracer_->flow_end(c.rx_flow_id, ci + 1);
  }
  if (h.kind == FrameKind::kEager) {
    if (c.rx_recv_op != UINT32_MAX) {
      ops_[c.rx_recv_op].complete = true;
    } else {
      // The receive may have been posted while this payload was still
      // streaming into the staging buffer; it must match NOW — parking
      // unmatched would let the pair's next frame overtake this one.
      CommState& cs = comm_state(h.comm_key);
      if (const std::optional<std::uint32_t> opid =
              cs.match.take_posted(h.src, h.tag)) {
        deliver(ops_[*opid], "late-eager", h.src, h.tag,
                rt::ConstView{c.rx_owned.data(), h.bytes});
        c.rx_owned.clear();
      } else {
        cs.match.park(h.src, h.tag,
                Unexpected{.src = h.src, .tag = h.tag,
                           .payload = std::exchange(c.rx_owned, {}),
                           .bytes = h.bytes});
      }
    }
  } else if (h.kind == FrameKind::kData) {
    auto it = rndv_recvs_.find(h.token);
    // The token is guaranteed live: it is only erased below, after its
    // last data byte, and on_frame validated it and the chunk's bounds.
    RndvRecv& rr = it->second;
    rr.remaining -= h.bytes;
    if (rr.remaining == 0) {
      // The completing chunk hosts the arrow head: the message is only
      // semantically received once every stripe landed.
      if (c.rx_span_open && rr.flow_id != 0) {
        tracer_->flow_end(rr.flow_id, ci + 1);
      }
      ops_[rr.op].complete = true;
      rndv_recvs_.erase(it);
    }
  }
  if (c.rx_span_open) {
    tracer_->end(ci + 1);
    c.rx_span_open = false;
  }
  c.rx_in_payload = false;
  c.rx_header_got = 0;
  c.rx_payload_got = 0;
  c.rx_dest = rt::MutView{};
  c.rx_recv_op = UINT32_MAX;
  c.rx_flow_id = 0;
}

// --- transmit path -----------------------------------------------------------

void Endpoint::enqueue(int ci, const FrameHeader& h, rt::ConstView payload,
                       std::vector<std::byte> owned, std::uint32_t send_op,
                       std::uint64_t flow, bool flush) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  if (!c.open) {
    if (send_op != UINT32_MAX) {
      Op& op = ops_[send_op];
      op.complete = true;
      op.error = true;
      op.error_msg = "net: connection to rank " + std::to_string(c.peer) +
                     " is closed";
    }
    return;
  }
  TxFrame f;
  encode(h, f.header);
  f.owned = std::move(owned);
  f.payload = f.owned.empty() ? payload
                              : rt::ConstView{f.owned.data(), f.owned.size()};
  f.send_op = send_op;
  f.flow_id = flow;
  c.txq.push_back(std::move(f));
  frames_tx_->add(1);
  // Opportunistic flush, unless the socket is known full: then EPOLLOUT
  // is armed and a write now would only return EAGAIN.
  if (c.want_out) {
    return;
  }
  if (flush) {
    handle_writable(ci);
  } else {
    unflushed_.push_back(ci);
  }
}

void Endpoint::handle_writable(int ci) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  while (c.open && !c.txq.empty()) {
    // Gather the unsent header and payload of the queued frames, oldest
    // first, into one sendmsg. A traced flush stops before a second
    // payload frame: a net.send span opens before its frame's first byte
    // leaves (its flow arrow starts inside it) and spans on one lane only
    // nest, so at most one may be open at a time.
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t want = 0;
    bool traced = false;
    for (TxFrame& f : c.txq) {
      if (niov + 2 > kMaxIov) {
        break;
      }
      if (tracer_ != nullptr && f.payload.len > 0) {
        if (traced) {
          break;
        }
        traced = true;
        if (!f.span_open && f.sent == 0) {
          f.span_open = tracer_->begin(
              "net.send", "net", ci + 1,
              {{"bytes", static_cast<std::int64_t>(f.payload.len)},
               {"peer", c.peer},
               {"rail", c.rail}});
          if (f.span_open && f.flow_id != 0) {
            tracer_->flow_start(f.flow_id, ci + 1);
            f.flow_id = 0;  // one arrow per message, even across retries
          }
        }
      }
      if (f.sent < kHeaderBytes) {
        iov[niov++] = iovec{f.header + f.sent, kHeaderBytes - f.sent};
      }
      const std::size_t body_sent =
          f.sent > kHeaderBytes ? f.sent - kHeaderBytes : 0;
      if (body_sent < f.payload.len) {
        iov[niov++] =
            iovec{const_cast<std::byte*>(f.payload.ptr) + body_sent,
                  f.payload.len - body_sent};
      }
      want += kHeaderBytes + f.payload.len - f.sent;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    // MSG_NOSIGNAL everywhere we write a socket: a dead peer must come
    // back as EPIPE -> conn_lost() -> the documented runtime_error, not
    // as a SIGPIPE that kills the whole rank process.
    const ssize_t n = ::sendmsg(c.fd.get(), &msg, MSG_NOSIGNAL);
    tx_calls_->add(1);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      conn_lost(ci);
      return;
    }
    const std::size_t sent = n < 0 ? 0 : static_cast<std::size_t>(n);
    if (sent > 0) {
      rail_tx_[static_cast<std::size_t>(c.rail)]->add(sent);
    }
    // Advance the frames by the bytes the kernel took.
    for (std::size_t left = sent; left > 0;) {
      TxFrame& f = c.txq.front();
      const std::size_t rest = kHeaderBytes + f.payload.len - f.sent;
      if (left < rest) {
        f.sent += left;
        break;
      }
      left -= rest;
      // Frame fully handed to the kernel.
      if (f.span_open) {
        tracer_->end(ci + 1);
      }
      if (f.send_op != UINT32_MAX) {
        Op& op = ops_[f.send_op];
        if (op.frames_left > 0) {
          --op.frames_left;
        }
        if (op.cts_seen && op.frames_left == 0) {
          op.complete = true;
        }
      }
      c.txq.pop_front();
    }
    if (sent < want) {
      // Short write: the socket is full. Wait for EPOLLOUT rather than
      // spend another call just to see EAGAIN.
      rail_retry_[static_cast<std::size_t>(c.rail)]->add(1);
      break;
    }
  }
  const bool need_out = c.open && !c.txq.empty();
  if (need_out != c.want_out) {
    c.want_out = need_out;
    update_epoll(ci);
  }
  if (c.open && c.txq.empty() && shut_down_ && !c.shut_wr) {
    ::shutdown(c.fd.get(), SHUT_WR);
    c.shut_wr = true;
  }
}

void Endpoint::update_epoll(int ci) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  if (!c.open) {
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | (c.want_out ? EPOLLOUT : 0u);
  ev.data.u32 = static_cast<std::uint32_t>(ci);
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
}

// --- failure and teardown ----------------------------------------------------

void Endpoint::fail(std::string msg) {
  if (!fatal_) {
    fatal_ = true;
    fatal_msg_ = std::move(msg);
  }
}

void Endpoint::reject_frame(int ci, std::string msg) {
  fail(std::move(msg));
  conn_lost(ci);  // the stream past a bad frame cannot be trusted
}

void Endpoint::conn_lost(int ci) {
  Conn& c = conns_[static_cast<std::size_t>(ci)];
  if (!c.open) {
    return;
  }
  if (c.rx_span_open) {
    tracer_->end(ci + 1);
    c.rx_span_open = false;
  }
  c.open = false;
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, c.fd.get(), nullptr);
  c.fd.reset();
  // Queued frames die with the connection; fail their send operations.
  for (TxFrame& f : c.txq) {
    if (f.span_open) {
      tracer_->end(ci + 1);
      f.span_open = false;
    }
    if (f.send_op != UINT32_MAX) {
      Op& op = ops_[f.send_op];
      op.complete = true;
      op.error = true;
      op.error_msg =
          "net: connection to rank " + std::to_string(c.peer) + " lost";
    }
  }
  c.txq.clear();

  Peer& peer = peers_[static_cast<std::size_t>(c.peer)];
  if (!peer.bye_seen && !shut_down_) {
    mark_peer_dead(c.peer);
    return;
  }
  // Orderly close: once every rail is gone the peer is finished.
  bool all_closed = true;
  for (int conn : peer.conns) {
    if (conn >= 0 && conns_[static_cast<std::size_t>(conn)].open) {
      all_closed = false;
      break;
    }
  }
  if (all_closed && !peer.finished) {
    peer.finished = true;
    on_peer_finished(c.peer);
  }
}

void Endpoint::mark_peer_dead(int peer_rank) {
  Peer& peer = peers_[static_cast<std::size_t>(peer_rank)];
  if (peer.dead) {
    return;
  }
  peer.dead = true;
  // A peer vanished mid-run: no pending or future operation can be trusted
  // to complete, so the whole endpoint fails loudly instead of hanging.
  fail("net: connection to rank " + std::to_string(peer_rank) +
       " lost (peer closed mid-message or crashed)");
  for (int conn : peer.conns) {
    if (conn >= 0) {
      conn_lost(conn);
    }
  }
}

void Endpoint::on_peer_finished(int peer_rank) {
  // The peer exited cleanly; any receive still expecting data from it is
  // an application-level mismatch — error it rather than hang.
  for (auto& [key, cs] : comms_) {
    cs.match.erase_posted_if([&](std::uint32_t id) {
      Op& op = ops_[id];
      if (op.src_world != peer_rank) {
        return false;
      }
      op.complete = true;
      op.error = true;
      op.error_msg = "net: rank " + std::to_string(peer_rank) +
                     " finished while a receive from it was pending";
      return true;
    });
  }
  for (auto it = rndv_recvs_.begin(); it != rndv_recvs_.end();) {
    if (it->second.peer_world == peer_rank) {
      Op& op = ops_[it->second.op];
      op.complete = true;
      op.error = true;
      op.error_msg = "net: rank " + std::to_string(peer_rank) +
                     " finished mid-rendezvous";
      it = rndv_recvs_.erase(it);
    } else {
      ++it;
    }
  }
}

void Endpoint::shutdown() noexcept {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  try {
    // Announce Bye on every open rail (so an EOF on any of them reads as
    // orderly), flush, half-close, then drain until every connection saw
    // its peer's EOF — an implicit barrier that guarantees all in-flight
    // frames were delivered before any socket disappears.
    for (std::size_t p = 0; p < peers_.size(); ++p) {
      Peer& peer = peers_[p];
      if (peer.dead) {
        continue;
      }
      for (int conn : peer.conns) {
        if (conn >= 0 && conns_[static_cast<std::size_t>(conn)].open) {
          FrameHeader bye;
          bye.kind = FrameKind::kBye;
          enqueue(conn, bye, rt::ConstView{}, {}, UINT32_MAX);
        }
      }
      peer.bye_sent = true;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(opts_.timeout_s);
    for (;;) {
      bool any_open = false;
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        Conn& c = conns_[ci];
        if (!c.open) {
          continue;
        }
        any_open = true;
        if (c.txq.empty() && !c.shut_wr) {
          ::shutdown(c.fd.get(), SHUT_WR);
          c.shut_wr = true;
        }
      }
      if (!any_open) {
        break;
      }
      // A failed endpoint just closes up: its waits threw, so the buffers
      // of its pending receives may be gone, and a drain would write into
      // them.
      if (fatal_ || std::chrono::steady_clock::now() >= deadline) {
        break;  // force-close below rather than hang forever
      }
      progress(100);
    }
  } catch (...) {
    // Destructor context: fall through to the force-close.
  }
  for (Conn& c : conns_) {
    c.open = false;
    c.txq.clear();
    c.fd.reset();
  }
  listeners_.clear();
  epoll_.reset();
}

void Endpoint::abort_for_test() noexcept {
  // Simulate a crash: drop every socket on the floor, no Bye, no flush.
  for (Conn& c : conns_) {
    c.open = false;
    c.txq.clear();
    c.fd.reset();
  }
  listeners_.clear();
  epoll_.reset();
  shut_down_ = true;  // the destructor must not attempt a handshake
}

}  // namespace mca2a::net
