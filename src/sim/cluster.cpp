#include "sim/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

#include "sim/sim_comm.hpp"

namespace mca2a::sim {

using topo::Level;

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), machine_(cfg_.machine), rng_(cfg_.noise_seed) {
  model::validate(cfg_.net);
  const int n = machine_.total_ranks();
  ranks_.resize(n);
  place_.reserve(n);
  for (int r = 0; r < n; ++r) {
    place_.push_back(machine_.placement(r));
  }
  nic_in_.assign(machine_.nodes(), 0.0);
  nic_out_.assign(machine_.nodes(), 0.0);
  mem_chan_.assign(machine_.nodes() * machine_.desc().numa_per_node(), 0.0);

  // Communicator 0 is the world.
  add_comm(rt::RankSet::progression(0, n, 1), 1.0);

  world_comms_.reserve(n);
  for (int r = 0; r < n; ++r) {
    world_comms_.push_back(std::make_unique<SimComm>(*this, 0u, r, n));
  }

  // Wire accounting: one counter pair per locality level, resolved once so
  // isend_impl pays two relaxed adds per message.
  for (int l = 0; l < topo::kNumLevels; ++l) {
    const std::string prefix =
        std::string("sim.level.") + topo::to_string(static_cast<Level>(l));
    level_metrics_[l].messages = &obs::metrics().counter(prefix + ".messages");
    level_metrics_[l].bytes = &obs::metrics().counter(prefix + ".bytes");
  }

  // Flight recorder: one session per cluster, one stream per world rank,
  // each stamped with this rank's *virtual* clock. The clock closure only
  // reads rank state — tracing never advances virtual time.
  if (obs::TraceRecorder* rec = obs::active_recorder()) {
    trace_rec_ = rec;
    trace_session_ = rec->begin_session("sim");
    tracers_.resize(static_cast<std::size_t>(n), nullptr);
    for (int r = 0; r < n; ++r) {
      obs::TraceBuffer* tb = rec->open_stream(trace_session_, r);
      tb->set_clock([this, r] { return ranks_[static_cast<std::size_t>(r)].clock; });
      tracers_[static_cast<std::size_t>(r)] = tb;
    }
  }
}

Cluster::~Cluster() {
  if (trace_rec_ != nullptr) {
    trace_rec_->end_session(trace_session_);
  }
}

rt::Comm& Cluster::world(int world_rank) {
  return *world_comms_.at(world_rank);
}

double Cluster::rank_clock(int world_rank) const {
  return ranks_.at(world_rank).clock;
}

double Cluster::max_clock() const {
  double t = 0.0;
  for (const RankState& r : ranks_) {
    t = std::max(t, r.clock);
  }
  return t;
}

double Cluster::lognormal() {
  const double sigma = cfg_.net.noise_sigma;
  return std::exp(sigma * normal_(rng_) - 0.5 * sigma * sigma);
}

// --------------------------------------------------------------------------
// Pools
// --------------------------------------------------------------------------

std::uint32_t Cluster::alloc_op() {
  if (free_op_ != kNil) {
    std::uint32_t id = free_op_;
    free_op_ = ops_[id].next_free;
    OpRec& op = ops_[id];
    std::uint32_t serial = op.serial;  // preserved across reuse
    op = OpRec{};
    op.serial = serial;
    return id;
  }
  ops_.emplace_back();
  return static_cast<std::uint32_t>(ops_.size() - 1);
}

void Cluster::release_op(std::uint32_t id) {
  OpRec& op = ops_[id];
  ++op.serial;  // invalidate outstanding Requests
  op.next_free = free_op_;
  free_op_ = id;
}

std::uint32_t Cluster::alloc_msg() {
  if (free_msg_ != kNil) {
    std::uint32_t id = free_msg_;
    free_msg_ = msgs_[id].next_free;
    msgs_[id] = MsgRec{};
    return id;
  }
  msgs_.emplace_back();
  return static_cast<std::uint32_t>(msgs_.size() - 1);
}

void Cluster::release_msg(std::uint32_t id) {
  MsgRec& m = msgs_[id];
  m.payload.reset();
  m.next_free = free_msg_;
  free_msg_ = id;
}

std::uint32_t Cluster::alloc_waiter() {
  if (free_waiter_ != kNil) {
    std::uint32_t id = free_waiter_;
    free_waiter_ = waiters_[id].next_free;
    waiters_[id] = Waiter{};
    return id;
  }
  waiters_.emplace_back();
  return static_cast<std::uint32_t>(waiters_.size() - 1);
}

void Cluster::release_waiter(std::uint32_t id) {
  waiters_[id].next_free = free_waiter_;
  waiters_[id].handle = {};
  free_waiter_ = id;
}

Cluster::OpRec& Cluster::op_checked(const rt::Request& r) {
  if (r.slot >= ops_.size()) {
    throw std::logic_error("SimComm: request refers to unknown operation");
  }
  OpRec& op = ops_[r.slot];
  if (op.serial != r.serial) {
    throw std::logic_error("SimComm: request already completed (stale)");
  }
  return op;
}

// --------------------------------------------------------------------------
// Communicators
// --------------------------------------------------------------------------

void Cluster::add_comm(rt::RankSet world, double cost_scale) {
  comm_worlds_.push_back(world);
  CommEntry& entry = comms_.emplace_back();
  entry.world_ranks.resize(world.size());
  entry.endpoints.reserve(world.size());
  for (std::size_t r = 0; r < world.size(); ++r) {
    entry.world_ranks[r] = world[r];
    entry.endpoints.emplace_back(match_pool_);
  }
  entry.cost_scale = cost_scale;
}

// --------------------------------------------------------------------------
// Point-to-point
// --------------------------------------------------------------------------

rt::Request Cluster::isend_impl(std::uint32_t comm_id, int my_rank_in_comm,
                                rt::ConstView buf, int dst, int tag) {
  CommEntry& entry = comms_[comm_id];
  const int src_world = entry.world_ranks[my_rank_in_comm];
  const int dst_world = entry.world_ranks[dst];
  // machine_.level(src_world, dst_world), from the placement table.
  const Level level =
      src_world == dst_world
          ? Level::kSelf
          : topo::level_between(place_[src_world], place_[dst_world]);
  const model::NetParams& net = cfg_.net;
  const double scale = entry.cost_scale;
  RankState& rs = ranks_[src_world];

  ++stats_msgs_;
  stats_bytes_ += buf.len;
  level_metrics_[static_cast<int>(level)].messages->add();
  level_metrics_[static_cast<int>(level)].bytes->add(buf.len);
  if (obs::TraceBuffer* tb = tracer_for(src_world)) {
    // One instant per injected message, on the lane of the tag's stream so
    // it lines up with the collective span that sent it.
    tb->instant("send", "sim.net", rt::tags::stream_of(tag),
                {{"bytes", static_cast<std::int64_t>(buf.len)},
                 {"dst", dst_world},
                 {"level", static_cast<std::int64_t>(level)},
                 {"tag", tag}});
  }

  const std::uint32_t op_id = alloc_op();
  OpRec& op = ops_[op_id];
  op.rank_world = src_world;

  const std::uint32_t msg_id = alloc_msg();
  MsgRec& m = msgs_[msg_id];
  m.comm = comm_id;
  m.src_in_comm = my_rank_in_comm;
  m.dst_in_comm = dst;
  m.tag = tag;
  m.bytes = buf.len;
  m.src_world = src_world;
  m.dst_world = dst_world;
  m.level = level;
  m.rendezvous = model::is_rendezvous(net, buf.len) && level != Level::kSelf;

  // Sender CPU: per-message overhead plus the copy in/out of the transport
  // (network DMA rate vs shared-memory copy rate).
  rs.clock += noise() * scale * net.at(level).o_send +
              scale * model::cpu_copy_time(net, level, buf.len);

  if (m.rendezvous) {
    // Payload stays in the user buffer (valid until the send completes, per
    // MPI semantics); only the RTS control message travels now.
    m.src_view = buf;
    m.send_op = op_id;
    engine_.schedule(rs.clock + noise() * net.at(level).alpha,
                     EventKind::kRtsArrival, msg_id);
  } else {
    if (cfg_.carry_data && buf.len > 0) {
      if (buf.ptr != nullptr) {
        m.payload = std::make_unique<std::byte[]>(buf.len);
        std::memcpy(m.payload.get(), buf.ptr, buf.len);
      }
      // A virtual source in a carrying cluster delivers no bytes: the
      // receiver's buffer is left untouched.
    }
    // Cut-through: the wire streams behind the injection serialization, so
    // only the rate difference (if the wire is slower) adds to the time at
    // which the last byte reaches the destination NIC.
    double depart = rs.clock;
    double chan_rate = 0.0;
    if (level == Level::kNetwork) {
      double& r = nic_in_[place_[src_world].node];
      const double service = model::nic_inject_time(net, buf.len);
      depart = std::max(depart, r) + service;
      r = depart;
      chan_rate = buf.len > 0 ? service / static_cast<double>(buf.len) : 0.0;
    } else if (level != Level::kSelf) {
      double& c = mem_chan_[place_[src_world].numa];
      const double service = model::mem_channel_time(net, buf.len);
      depart = std::max(depart, c) + service;
      c = depart;
      chan_rate = buf.len > 0 ? service / static_cast<double>(buf.len) : 0.0;
    }
    // Eager sends complete once the payload has left the rank.
    op.complete = true;
    op.completion_time = depart;
    const double wire_tail =
        static_cast<double>(buf.len) *
        std::max(0.0, net.at(level).beta - chan_rate);
    engine_.schedule(depart + noise() * net.at(level).alpha + wire_tail,
                     EventKind::kMsgArrival, msg_id);
  }
  return rt::Request{op_id, ops_[op_id].serial};
}

rt::Request Cluster::irecv_impl(std::uint32_t comm_id, int my_rank_in_comm,
                                rt::MutView buf, int src, int tag) {
  CommEntry& entry = comms_[comm_id];
  const int me_world = entry.world_ranks[my_rank_in_comm];
  const model::NetParams& net = cfg_.net;
  const double scale = entry.cost_scale;
  RankState& rs = ranks_[me_world];
  Endpoint& ep = entry.endpoints[my_rank_in_comm];

  // Posting cost (queue insertion / descriptor setup).
  rs.clock += scale * net.match_base;

  const std::uint32_t op_id = alloc_op();
  OpRec& op = ops_[op_id];
  op.rank_world = me_world;
  op.buf = buf;
  op.post_time = rs.clock;

  const std::uint32_t scanned = ep.unexpected();
  if (const std::optional<std::uint32_t> msg_id =
          ep.take_unexpected(src, tag)) {
    MsgRec& m = msgs_[*msg_id];
    if (m.rendezvous) {
      // Matched a waiting RTS: return the CTS and start the transfer.
      m.matched_recv = op_id;
      const double cts_at_sender =
          std::max(rs.clock, m.deliver_time) +
          scale * model::match_time(net, scanned) +
          noise() * net.at(m.level).alpha;
      start_rendezvous_transfer(*msg_id, cts_at_sender);
    } else {
      complete_recv(op_id, *msg_id, model::match_time(net, scanned));
    }
  } else {
    ep.post(src, tag, op_id);
  }
  return rt::Request{op_id, ops_[op_id].serial};
}

// --------------------------------------------------------------------------
// Completion
// --------------------------------------------------------------------------

void Cluster::complete_recv(std::uint32_t op_id, std::uint32_t msg_id,
                            double match_cost) {
  OpRec& op = ops_[op_id];
  MsgRec& m = msgs_[msg_id];
  if (op.buf.len < m.bytes) {
    throw std::runtime_error(
        "message truncation: receive buffer smaller than incoming message");
  }
  const model::NetParams& net = cfg_.net;
  const double scale = comms_[m.comm].cost_scale;

  if (cfg_.carry_data && m.bytes > 0 && op.buf.ptr != nullptr) {
    if (m.payload != nullptr) {
      std::memcpy(op.buf.ptr, m.payload.get(), m.bytes);
    } else if (m.src_view.ptr != nullptr) {
      std::memcpy(op.buf.ptr, m.src_view.ptr, m.bytes);
    }
  }

  // Receive-side CPU costs serialize on the receiver's core: processing
  // cannot start before the payload is here, the receive is posted, and the
  // core has finished the previous message (and any foreground work).
  RankState& rr = ranks_[op.rank_world];
  const double start = std::max(std::max(m.deliver_time, op.post_time),
                                std::max(rr.cpu_free, rr.clock));
  const double t = start + scale * match_cost +
                   noise() * scale * net.at(m.level).o_recv +
                   scale * model::cpu_copy_time(net, m.level, m.bytes);
  rr.cpu_free = t;
  release_msg(msg_id);
  complete_op(op_id, t);
}

void Cluster::complete_op(std::uint32_t op_id, double t) {
  OpRec& op = ops_[op_id];
  op.complete = true;
  op.completion_time = t;
  if (op.waiter == kNil) {
    return;
  }
  const std::uint32_t wid = op.waiter;
  Waiter& w = waiters_[wid];
  w.resume_time = std::max(w.resume_time, t);
  release_op(op_id);
  if (--w.remaining == 0) {
    RankState& rs = ranks_[w.rank_world];
    rs.clock = std::max(rs.clock, w.resume_time);
    std::coroutine_handle<> h = w.handle;
    release_waiter(wid);
    h.resume();  // may reentrantly schedule events / complete further ops
  }
}

bool Cluster::wait_try_impl(int world_rank,
                            std::span<const rt::Request> reqs) {
  for (const rt::Request& r : reqs) {
    if (!r.valid()) {
      continue;
    }
    if (!op_checked(r).complete) {
      return false;
    }
  }
  RankState& rs = ranks_[world_rank];
  for (const rt::Request& r : reqs) {
    if (!r.valid()) {
      continue;
    }
    OpRec& op = op_checked(r);
    rs.clock = std::max(rs.clock, op.completion_time);
    release_op(r.slot);
  }
  return true;
}

void Cluster::wait_suspend_impl(int world_rank,
                                std::span<const rt::Request> reqs,
                                std::coroutine_handle<> h) {
  const std::uint32_t wid = alloc_waiter();
  Waiter& w = waiters_[wid];
  w.handle = h;
  w.rank_world = world_rank;
  w.resume_time = ranks_[world_rank].clock;
  int remaining = 0;
  for (const rt::Request& r : reqs) {
    if (!r.valid()) {
      continue;
    }
    OpRec& op = op_checked(r);
    if (op.complete) {
      w.resume_time = std::max(w.resume_time, op.completion_time);
      release_op(r.slot);
    } else {
      op.waiter = wid;
      ++remaining;
    }
  }
  if (remaining == 0) {
    // wait_try (await_ready) runs immediately before wait_suspend with no
    // events in between, so this cannot happen in a single-threaded sim.
    throw std::logic_error(
        "wait_suspend: all requests completed between poll and suspend");
  }
  w.remaining = remaining;
}

// --------------------------------------------------------------------------
// Events
// --------------------------------------------------------------------------

void Cluster::handle(const Event& e) {
  switch (e.kind) {
    case EventKind::kMsgArrival:
      on_eager_arrival(e.msg);
      break;
    case EventKind::kRtsArrival:
      on_rts_arrival(e.msg);
      break;
    case EventKind::kDataArrival:
      on_data_arrival(e.msg);
      break;
  }
}

void Cluster::on_eager_arrival(std::uint32_t msg_id) {
  MsgRec& m = msgs_[msg_id];
  // Ejection is pipelined behind the wire: an idle NIC delivers at arrival
  // time; a contended one spaces deliveries by its service time.
  double deliver = engine_.now();
  if (m.level == Level::kNetwork) {
    double& r = nic_out_[place_[m.dst_world].node];
    deliver = std::max(deliver, r + model::nic_eject_time(cfg_.net, m.bytes));
    r = deliver;
  }
  m.deliver_time = deliver;

  Endpoint& ep = comms_[m.comm].endpoints[m.dst_in_comm];
  const std::uint32_t scanned = ep.posted();
  if (const std::optional<std::uint32_t> op_id =
          ep.take_posted(m.src_in_comm, m.tag)) {
    complete_recv(*op_id, msg_id, model::match_time(cfg_.net, scanned));
  } else {
    ep.park(m.src_in_comm, m.tag, msg_id);
  }
}

void Cluster::on_rts_arrival(std::uint32_t msg_id) {
  MsgRec& m = msgs_[msg_id];
  m.deliver_time = engine_.now();
  Endpoint& ep = comms_[m.comm].endpoints[m.dst_in_comm];
  const double scale = comms_[m.comm].cost_scale;
  const std::uint32_t scanned = ep.posted();
  if (const std::optional<std::uint32_t> op_id =
          ep.take_posted(m.src_in_comm, m.tag)) {
    m.matched_recv = *op_id;
    // The CTS leaves no earlier than both the RTS arrival and the logical
    // time the receiver posted the matching receive.
    const double cts_at_sender =
        std::max(engine_.now(), ops_[*op_id].post_time) +
        scale * model::match_time(cfg_.net, scanned) +
        noise() * cfg_.net.at(m.level).alpha;
    start_rendezvous_transfer(msg_id, cts_at_sender);
  } else {
    ep.park(m.src_in_comm, m.tag, msg_id);
  }
}

void Cluster::start_rendezvous_transfer(std::uint32_t msg_id, double t_ready) {
  MsgRec& m = msgs_[msg_id];
  const model::NetParams& net = cfg_.net;
  double depart = t_ready;
  double chan_rate = 0.0;
  if (m.level == Level::kNetwork) {
    double& r = nic_in_[place_[m.src_world].node];
    const double service = model::nic_inject_time(net, m.bytes);
    depart = std::max(depart, r) + service;
    r = depart;
    chan_rate = m.bytes > 0 ? service / static_cast<double>(m.bytes) : 0.0;
  } else if (m.level != Level::kSelf) {
    double& c = mem_chan_[place_[m.src_world].numa];
    const double service = model::mem_channel_time(net, m.bytes);
    depart = std::max(depart, c) + service;
    c = depart;
    chan_rate = m.bytes > 0 ? service / static_cast<double>(m.bytes) : 0.0;
  }
  if (m.send_op != kNil) {
    // Completing the send releases the user buffer (MPI semantics), but the
    // simulated bytes only land at the data-arrival event — and completing
    // the op can reentrantly resume the sender's coroutine, which may free
    // the buffer src_view points into. Stage the payload first.
    if (cfg_.carry_data && m.bytes > 0 && m.src_view.ptr != nullptr &&
        m.payload == nullptr) {
      m.payload = std::make_unique<std::byte[]>(m.bytes);
      std::memcpy(m.payload.get(), m.src_view.ptr, m.bytes);
      m.src_view = rt::ConstView{};
    }
    complete_op(m.send_op, depart);
    m.send_op = kNil;
  }
  const double wire_tail = static_cast<double>(m.bytes) *
                           std::max(0.0, net.at(m.level).beta - chan_rate);
  engine_.schedule(depart + noise() * net.at(m.level).alpha + wire_tail,
                   EventKind::kDataArrival, msg_id);
}

void Cluster::on_data_arrival(std::uint32_t msg_id) {
  MsgRec& m = msgs_[msg_id];
  double deliver = engine_.now();
  if (m.level == Level::kNetwork) {
    double& r = nic_out_[place_[m.dst_world].node];
    deliver = std::max(deliver, r + model::nic_eject_time(cfg_.net, m.bytes));
    r = deliver;
  }
  m.deliver_time = deliver;
  assert(m.matched_recv != kNil);
  // Matching cost was charged when the RTS met the receive.
  complete_recv(m.matched_recv, msg_id, /*match_cost=*/0.0);
}

// --------------------------------------------------------------------------
// Sub-communicators, misc
// --------------------------------------------------------------------------

rt::SubcommRegistry::Creation Cluster::subcomm_impl(
    std::uint32_t parent_id, int my_rank_in_parent, rt::RankSet members) {
  const rt::SubcommRegistry::Creation c = subcomms_.create(
      comm_worlds_[parent_id], members, my_rank_in_parent);
  if (c.fresh) {
    assert(c.comm == comms_.size());
    add_comm(c.world, comms_[parent_id].cost_scale);
  }
  return c;
}

double add_repeated(double clock, double each, std::size_t times) noexcept {
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  while (times > 0) {
    if (std::isnormal(clock) && clock > 0.0 && each > 0.0) {
      int ex = 0;
      std::frexp(clock, &ex);  // clock in [2^(ex-1), 2^ex): ulp 2^(ex-53)
      const double ulps = std::ldexp(each, 53 - ex);  // exact: a 2^k scale
      if (ulps < 0x1p53) {
        const double whole = std::floor(ulps);
        const double frac = ulps - whole;
        if (frac != 0.5) {
          const auto step =
              static_cast<std::uint64_t>(whole) + (frac > 0.5 ? 1 : 0);
          if (step == 0) {
            return clock;  // below half an ulp: every addition is a no-op
          }
          const auto bits = std::bit_cast<std::uint64_t>(clock);
          const std::uint64_t room = kMantissa - (bits & kMantissa);
          const std::uint64_t n = std::min<std::uint64_t>(times, room / step);
          if (n > 0) {
            clock = std::bit_cast<double>(bits + n * step);
            times -= n;
            continue;
          }
        }
      }
    }
    clock += each;
    --times;
  }
  return clock;
}

void Cluster::charge_copies_impl(int world_rank, std::size_t bytes,
                                 std::size_t times) {
  // Bit-identical to a chain of `times` charge_copy calls.
  const double each = model::pack_time(cfg_.net, bytes);
  double& clock = ranks_[world_rank].clock;
  clock = add_repeated(clock, each, times);
}

void Cluster::set_cost_scale_impl(std::uint32_t comm_id, double scale) {
  if (scale <= 0.0) {
    throw std::invalid_argument("cost scale must be > 0");
  }
  comms_[comm_id].cost_scale = scale;
}

// --------------------------------------------------------------------------
// Run loop
// --------------------------------------------------------------------------

double Cluster::run(const std::function<rt::Task<void>(rt::Comm&)>& rank_main) {
  const int n = machine_.total_ranks();
  // Start every rank together: ranks that finished a previous run early
  // would otherwise schedule events behind the engine's clock.
  const double start = std::max(max_clock(), engine_.now());
  for (RankState& r : ranks_) {
    r.clock = start;
  }
  std::vector<rt::Task<void>> tasks;
  tasks.reserve(n);
  live_ = n;
  for (int r = 0; r < n; ++r) {
    tasks.push_back(rank_main(*world_comms_[r]));
  }
  for (int r = 0; r < n; ++r) {
    tasks[r].start(&live_);
  }
  engine_.drain([this](const Event& e) { handle(e); });

  std::exception_ptr first_error;
  for (auto& t : tasks) {
    if (t.done()) {
      try {
        t.result();
      } catch (...) {
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
  if (live_ > 0) {
    throw SimDeadlockError(
        "simulation deadlock: " + std::to_string(live_) + " of " +
            std::to_string(n) + " ranks still waiting with no events pending",
        live_);
  }
  return max_clock();
}

}  // namespace mca2a::sim
