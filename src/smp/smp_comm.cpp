#include "smp/smp_comm.hpp"

#include <stdexcept>

namespace mca2a::smp {

SmpCluster::SmpCluster(int world_size)
    : SmpCluster(world_size, MailboxConfig::from_env()) {}

SmpCluster::SmpCluster(int world_size, const MailboxConfig& cfg)
    : world_size_(world_size),
      mailbox_cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()) {
  if (world_size < 1) {
    throw std::invalid_argument("SmpCluster: world size must be >= 1");
  }
  CommEntry& world_entry = comms_.emplace_back();
  world_entry.world = rt::RankSet::progression(0, world_size, 1);
  world_entry.world_ranks.resize(world_size);
  for (int r = 0; r < world_size; ++r) {
    world_entry.world_ranks[r] = r;
  }
  for (int r = 0; r < world_size; ++r) {
    world_entry.mailboxes.emplace_back(world_size, mailbox_cfg_);
  }

  // Flight recorder: one stream per rank thread, stamped with wall-clock
  // seconds since this cluster's epoch (a separate clock domain from the
  // simulator's virtual time; the two never share a file). Opened before
  // the world endpoints exist so their flow keys see the session id.
  if (obs::TraceRecorder* rec = obs::active_recorder()) {
    trace_rec_ = rec;
    trace_session_ = rec->begin_session("smp");
    tracers_.resize(static_cast<std::size_t>(world_size), nullptr);
    for (int r = 0; r < world_size; ++r) {
      obs::TraceBuffer* tb = rec->open_stream(trace_session_, r);
      tb->set_clock([this] {
        const auto d = std::chrono::steady_clock::now() - epoch_;
        return std::chrono::duration<double>(d).count();
      });
      tb->set_world_rank(r);
      tracers_[static_cast<std::size_t>(r)] = tb;
    }
  }
  install_trace(world_entry, 0u);

  world_comms_.reserve(world_size);
  for (int r = 0; r < world_size; ++r) {
    world_comms_.push_back(std::make_unique<SmpComm>(*this, 0u, r, world_size));
  }
}

void SmpCluster::install_trace(CommEntry& entry, std::uint32_t comm_id) {
  if (tracers_.empty()) {
    return;
  }
  // Session-salted key: sequential clusters in one process must not reuse
  // flow ids (+1 keeps the key nonzero even for session 0, comm 0).
  const std::uint64_t key =
      (static_cast<std::uint64_t>(trace_session_ + 1) << 32) | comm_id;
  for (std::size_t r = 0; r < entry.world_ranks.size(); ++r) {
    MailboxTraceContext ctx;
    ctx.tracer =
        tracers_[static_cast<std::size_t>(entry.world_ranks[r])];
    ctx.comm_key = key;
    ctx.world_ranks = &entry.world_ranks;
    ctx.owner = static_cast<int>(r);
    entry.mailboxes[r].set_trace(ctx);
  }
}

SmpCluster::~SmpCluster() {
  if (trace_rec_ != nullptr) {
    trace_rec_->end_session(trace_session_);
  }
}

rt::Comm& SmpCluster::world(int rank) { return *world_comms_.at(rank); }

std::pair<std::uint32_t, int> SmpCluster::create_comm(
    const CommEntry& parent, int caller, rt::RankSet members) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const rt::SubcommRegistry::Creation c =
      subcomms_.create(parent.world, members, caller);
  if (c.fresh) {
    CommEntry& entry = comms_.emplace_back();
    entry.world = c.world;
    entry.world_ranks.assign(c.world_ranks.begin(), c.world_ranks.end());
    const int comm_size = static_cast<int>(entry.world_ranks.size());
    for (int r = 0; r < comm_size; ++r) {
      entry.mailboxes.emplace_back(comm_size, mailbox_cfg_);
    }
    // Stitching contexts land before the id is published (we still hold
    // registry_mu_): no rank can send through an uninstrumented mailbox.
    install_trace(entry, c.comm);
  }
  return {c.comm, c.rank};
}

SmpComm::SmpComm(SmpCluster& cluster, std::uint32_t comm_id, int rank,
                 int size)
    : rt::Comm(rank, size), cluster_(&cluster) {
  // Resolve the registry entry once, under the same mutex intern_comm
  // appends under; afterwards the message path never touches comms_.
  std::lock_guard<std::mutex> lock(cluster.registry_mu_);
  entry_ = &cluster.comms_[comm_id];
  if (!cluster.tracers_.empty()) {
    // Must match SmpCluster::install_trace's salt formula exactly.
    flow_comm_key_ =
        (static_cast<std::uint64_t>(cluster.trace_session_ + 1) << 32) |
        comm_id;
  }
}

Mailbox& SmpComm::mailbox(int rank_in_comm) const {
  return entry_->mailboxes[static_cast<std::size_t>(rank_in_comm)];
}

rt::Request SmpComm::do_isend(rt::ConstView buf, int dst, int tag) {
  if (flow_comm_key_ != 0 && buf.len > 0 && dst != rank_) {
    // Arrow source inside an smp.send span; the receiving mailbox derives
    // the identical id at accept() time from its mirrored counter.
    const std::uint64_t seq = flow_tx_seq_[{dst, tag}]++;
    const std::uint64_t id = obs::flow_id(
        flow_comm_key_, world_rank(),
        entry_->world_ranks[static_cast<std::size_t>(dst)], tag, seq);
    obs::TraceBuffer* tb = tracer();
    obs::Span sp(tb, "smp.send", "smp", 0,
                 {{"bytes", static_cast<std::int64_t>(buf.len)},
                  {"dst", dst},
                  {"tag", tag}});
    tb->flow_start(id, 0);
    mailbox(dst).send(rank_, tag, buf);
    return rt::Request{};
  }
  mailbox(dst).send(rank_, tag, buf);
  // Eager buffered semantics: the send is complete on return. An invalid
  // Request denotes "already complete" and is skipped by wait_try.
  return rt::Request{};
}

rt::Request SmpComm::do_irecv(rt::MutView buf, int src, int tag) {
  std::uint32_t slot;
  if (!free_ops_.empty()) {
    slot = free_ops_.back();
    free_ops_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(ops_.size());
    ops_.emplace_back();
  }
  PostedRecv& op = ops_[slot];
  op.buf = buf;
  op.complete = false;
  op.error = false;
  op.in_use = true;
  mailbox(rank_).post_or_match(&op, src, tag);
  return rt::Request{slot, op.serial};
}

PostedRecv& SmpComm::op_checked(const rt::Request& r) {
  if (r.slot >= ops_.size()) {
    throw std::logic_error("SmpComm: request refers to unknown operation");
  }
  PostedRecv& op = ops_[r.slot];
  if (!op.in_use || op.serial != r.serial) {
    throw std::logic_error("SmpComm: request already completed (stale)");
  }
  return op;
}

bool SmpComm::wait_try(std::span<const rt::Request> reqs) {
  // Poll loop: drain this rank's mailbox (arrivals complete posted
  // receives here, on the owner thread), check the completion flags, and
  // pause when nothing moved.
  Mailbox& mb = mailbox(rank_);
  int spins = 0;
  for (;;) {
    mb.drain();
    bool all = true;
    for (const rt::Request& r : reqs) {
      if (r.valid() && !op_checked(r).complete) {
        all = false;
        break;
      }
    }
    if (all) {
      break;
    }
    mb.idle(spins);
  }
  bool truncated = false;
  for (const rt::Request& r : reqs) {
    if (!r.valid()) {
      continue;
    }
    PostedRecv& op = op_checked(r);
    truncated = truncated || op.error;
    ++op.serial;
    op.in_use = false;
    free_ops_.push_back(r.slot);
  }
  if (truncated) {
    throw std::runtime_error(
        "message truncation: receive buffer smaller than incoming message");
  }
  return true;
}

void SmpComm::wait_suspend(std::span<const rt::Request>,
                           std::coroutine_handle<>) {
  throw std::logic_error(
      "SmpComm::wait_suspend: the threads backend completes all waits "
      "synchronously");
}

double SmpComm::now() const {
  const auto d = std::chrono::steady_clock::now() - cluster_->epoch_;
  return std::chrono::duration<double>(d).count();
}

std::unique_ptr<rt::Comm> SmpComm::create_subcomm(rt::RankSet members) {
  const auto [comm_id, rank] = cluster_->create_comm(*entry_, rank_, members);
  return std::make_unique<SmpComm>(*cluster_, comm_id, rank,
                                   static_cast<int>(members.size()));
}

}  // namespace mca2a::smp
