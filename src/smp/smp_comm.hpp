#pragma once
/// \file smp_comm.hpp
/// Shared-memory (threads-as-ranks) backend.
///
/// Each rank is an OS thread; messages move through per-(src,dst,comm)
/// lock-free SPSC ring mailboxes (mailbox.hpp) with eager (buffered)
/// semantics: sends never block, receives block until a matching message
/// is delivered. Every write into a rank's receive and scratch buffers
/// happens on that rank's own thread. This
/// is the backend a downstream user runs on a single many-core box — the
/// actual deployment target of the paper's intra-node optimizations — and
/// the backend all correctness tests validate byte-for-byte.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/subcomm_registry.hpp"
#include "smp/mailbox.hpp"

namespace mca2a::smp {

class SmpComm;

/// Shared state: communicator registry and mailboxes.
class SmpCluster {
 public:
  /// Mailbox tuning comes from the environment (MailboxConfig::from_env).
  explicit SmpCluster(int world_size);
  /// Explicit mailbox tuning (ring sizes, spin budget) without mutating
  /// the environment of live rank threads.
  SmpCluster(int world_size, const MailboxConfig& cfg);
  ~SmpCluster();
  SmpCluster(const SmpCluster&) = delete;
  SmpCluster& operator=(const SmpCluster&) = delete;

  int world_size() const noexcept { return world_size_; }

  /// World communicator endpoint for `rank` (valid for cluster lifetime).
  rt::Comm& world(int rank);

  /// Flight-recorder stream of `world_rank` (wall-clock domain), nullptr
  /// when tracing is off.
  obs::TraceBuffer* tracer_for(int world_rank) const noexcept {
    return tracers_.empty() ? nullptr
                            : tracers_[static_cast<std::size_t>(world_rank)];
  }

 private:
  friend class SmpComm;

  struct CommEntry {
    std::vector<int> world_ranks;
    std::deque<Mailbox> mailboxes;  // stable addresses, one per member
    rt::RankSet world;  // world_ranks, canonical (rt::SubcommRegistry)
  };

  /// Enable flow stitching on `entry`'s mailboxes (no-op with tracing
  /// off). Must run before the communicator id is published — callers
  /// hold registry_mu_ or are the constructor.
  void install_trace(CommEntry& entry, std::uint32_t comm_id);

  /// Id of the caller's next communicator over `members`, ranks of
  /// `parent` where the caller is rank `caller`, and the caller's rank in
  /// it (thread-safe; rt::SubcommRegistry holds the k-th-creation rule).
  /// Creates the communicator's entry on its first creation.
  std::pair<std::uint32_t, int> create_comm(const CommEntry& parent,
                                            int caller, rt::RankSet members);

  int world_size_;
  MailboxConfig mailbox_cfg_;
  std::mutex registry_mu_;
  rt::SubcommRegistry subcomms_;  // guarded by registry_mu_
  std::deque<CommEntry> comms_;   // stable addresses
  std::vector<std::unique_ptr<SmpComm>> world_comms_;
  std::chrono::steady_clock::time_point epoch_;

  /// Tracing session over the active recorder (see sim::Cluster for the
  /// lifecycle contract); empty tracers_ == disabled.
  obs::TraceRecorder* trace_rec_ = nullptr;
  int trace_session_ = -1;
  std::vector<obs::TraceBuffer*> tracers_;
};

/// rt::Comm implementation over SmpCluster mailboxes. Cache-line aligned:
/// the world endpoints are allocated back to back, and each rank writes its
/// own receive-op pool on every receive.
class alignas(64) SmpComm final : public rt::Comm {
 public:
  SmpComm(SmpCluster& cluster, std::uint32_t comm_id, int rank, int size);

  bool wait_try(std::span<const rt::Request> reqs) override;
  void wait_suspend(std::span<const rt::Request> reqs,
                    std::coroutine_handle<> h) override;
  double now() const override;
  std::string_view backend_name() const noexcept override { return "smp"; }
  rt::Buffer alloc_buffer(std::size_t bytes) const override {
    return rt::Buffer::real(bytes);
  }
  rt::Buffer alloc_scratch_buffer(std::size_t bytes) const override {
    // Scratch contents are unspecified by contract; skipping the memset
    // leaves the pages untouched so the rank thread's own first write
    // faults them in on its NUMA node.
    return rt::Buffer::real_uninit(bytes);
  }
  void charge_copies(std::size_t, std::size_t) override {}  // real memcpys
  std::unique_ptr<rt::Comm> create_subcomm(rt::RankSet members) override;
  obs::TraceBuffer* tracer() const noexcept override {
    return cluster_->tracer_for(world_rank());
  }

  /// World rank of this endpoint.
  int world_rank() const noexcept {
    return entry_->world_ranks[static_cast<std::size_t>(rank_)];
  }

 private:
  rt::Request do_isend(rt::ConstView buf, int dst, int tag) override;
  rt::Request do_irecv(rt::MutView buf, int src, int tag) override;
  Mailbox& mailbox(int rank_in_comm) const;
  PostedRecv& op_checked(const rt::Request& r);

  SmpCluster* cluster_;
  /// Cached registry entry, resolved under registry_mu_ at construction.
  /// CommEntry addresses are stable (deque), but indexing comms_ itself is
  /// NOT safe concurrently with another rank's intern_comm appending to
  /// it — the deque's internal block map may be reallocating. Every
  /// message-path access goes through this pointer instead.
  SmpCluster::CommEntry* entry_;
  // Receive-op pool (sends complete eagerly and need no slot). deque keeps
  // addresses stable while mailboxes hold PostedRecv pointers.
  std::deque<PostedRecv> ops_;
  std::vector<std::uint32_t> free_ops_;

  // Sender-side flow stitching (tracing on): the same
  // session-salted comm key the receiving mailbox derives arrow ids from,
  // plus per-(dst, tag) send counters. 0 == stitching off.
  std::uint64_t flow_comm_key_ = 0;
  std::map<std::pair<int, int>, std::uint64_t> flow_tx_seq_;
};

}  // namespace mca2a::smp
