#pragma once
/// \file cluster.hpp
/// The simulated cluster: rank coroutines, message matching, shared-resource
/// accounting and the virtual clock, all driven by the discrete-event engine.
///
/// One Cluster models one machine (topo::Machine) with one parameter set
/// (model::NetParams). Cluster::run launches one coroutine per world rank;
/// ranks communicate through sim::SimComm endpoints. Payload bytes are moved
/// only when `carry_data` is enabled (tests); virtual-buffer runs produce
/// bit-identical virtual times, which is itself verified by tests.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/cost.hpp"
#include "model/params.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/match.hpp"
#include "runtime/subcomm_registry.hpp"
#include "runtime/task.hpp"
#include "sim/engine.hpp"
#include "topo/machine.hpp"

namespace mca2a::sim {

class SimComm;

/// Thrown when the event queue drains while rank coroutines are still
/// suspended (a communication deadlock in the algorithm under test).
class SimDeadlockError : public std::runtime_error {
 public:
  SimDeadlockError(std::string what, int stuck_ranks)
      : std::runtime_error(std::move(what)), stuck_ranks_(stuck_ranks) {}
  int stuck_ranks() const noexcept { return stuck_ranks_; }

 private:
  int stuck_ranks_;
};

/// `clock` after `times` dependent additions of `each` (`clock += each`
/// repeated), bit for bit, in O(binades crossed) instead of O(times).
/// Inside one binade every addition rounds to the same whole number of
/// ulps unless `each` is an exact half-ulp multiple, so the bit pattern
/// advances in one step up to the binade edge; exact ties, a zero or
/// subnormal clock and `each` of 2^53 ulps or more take single additions.
double add_repeated(double clock, double each, std::size_t times) noexcept;

struct ClusterConfig {
  topo::MachineDesc machine;
  model::NetParams net;
  /// Move real payload bytes (tests); false = virtual buffers at scale.
  bool carry_data = true;
  /// Seed for the log-normal noise stream (used when net.noise_sigma > 0).
  std::uint64_t noise_seed = 1;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const topo::Machine& machine() const noexcept { return machine_; }
  const model::NetParams& net() const noexcept { return cfg_.net; }
  bool carry_data() const noexcept { return cfg_.carry_data; }

  /// World communicator endpoint of `world_rank` (valid for the cluster's
  /// lifetime).
  rt::Comm& world(int world_rank);

  /// Launch `rank_main(world(r))` for every rank r and drive the simulation
  /// until all complete. Returns the maximum rank clock. Rethrows the first
  /// rank exception; throws SimDeadlockError if ranks are stuck. May be
  /// called repeatedly: every run starts all ranks together at
  /// max(max_clock(), engine_now()), so virtual time keeps advancing and a
  /// run's duration does not depend on the runs before it.
  double run(const std::function<rt::Task<void>(rt::Comm&)>& rank_main);

  /// Virtual time at which rank `world_rank` last made progress.
  double rank_clock(int world_rank) const;
  /// Maximum rank clock (the usual "collective finished at" time).
  double max_clock() const;
  /// Engine time (last processed event).
  double engine_now() const noexcept { return engine_.now(); }

  /// Total messages injected so far (statistics for tests/benches).
  std::uint64_t messages_sent() const noexcept { return stats_msgs_; }
  /// Total payload bytes injected so far.
  std::uint64_t bytes_sent() const noexcept { return stats_bytes_; }

  /// Flight-recorder stream of `world_rank`, nullptr when tracing is off.
  obs::TraceBuffer* tracer_for(int world_rank) const noexcept {
    return tracers_.empty() ? nullptr
                            : tracers_[static_cast<std::size_t>(world_rank)];
  }

 private:
  friend class SimComm;

  static constexpr std::uint32_t kNil = UINT32_MAX;

  struct OpRec {
    bool complete = false;
    std::uint32_t serial = 1;
    int rank_world = -1;
    double completion_time = 0.0;
    std::uint32_t waiter = kNil;
    // Receive side.
    rt::MutView buf{};
    double post_time = 0.0;
    std::uint32_t next_free = kNil;
  };

  struct MsgRec {
    std::uint32_t comm = 0;
    int src_in_comm = -1;
    int dst_in_comm = -1;
    int tag = 0;
    std::uint64_t bytes = 0;
    int src_world = -1;
    int dst_world = -1;
    topo::Level level = topo::Level::kSelf;
    bool rendezvous = false;
    std::uint32_t send_op = kNil;
    std::uint32_t matched_recv = kNil;
    double deliver_time = 0.0;
    std::unique_ptr<std::byte[]> payload;  // eager + carry_data
    rt::ConstView src_view{};              // rendezvous source buffer
    std::uint32_t next_free = kNil;
  };

  struct Waiter {
    std::coroutine_handle<> handle{};
    int remaining = 0;
    double resume_time = 0.0;
    int rank_world = -1;
    std::uint32_t next_free = kNil;
  };

  /// Matching state of one rank in one communicator: posted receives are
  /// op ids, unexpected messages msg ids.
  using Endpoint = rt::MatchQueue<std::uint32_t, std::uint32_t>;

  struct CommEntry {
    std::vector<int> world_ranks;    // index: rank in comm -> world rank
    std::vector<Endpoint> endpoints; // index: rank in comm
    double cost_scale = 1.0;         // vendor-tuning CPU multiplier
  };

  struct RankState {
    double clock = 0.0;
    /// Time until which this rank's core is busy processing *incoming*
    /// messages; serializes receive-side per-message CPU costs so that a
    /// funnel rank (e.g. a gather root) pays for every byte it touches.
    double cpu_free = 0.0;
  };

  // --- SimComm entry points -------------------------------------------------
  rt::Request isend_impl(std::uint32_t comm_id, int my_rank_in_comm,
                         rt::ConstView buf, int dst, int tag);
  rt::Request irecv_impl(std::uint32_t comm_id, int my_rank_in_comm,
                         rt::MutView buf, int src, int tag);
  bool wait_try_impl(int world_rank, std::span<const rt::Request> reqs);
  void wait_suspend_impl(int world_rank, std::span<const rt::Request> reqs,
                         std::coroutine_handle<> h);
  rt::SubcommRegistry::Creation subcomm_impl(std::uint32_t parent_id,
                                             int my_rank_in_parent,
                                             rt::RankSet members);
  void charge_copies_impl(int world_rank, std::size_t bytes,
                          std::size_t times);
  void set_cost_scale_impl(std::uint32_t comm_id, double scale);

  // --- event handling -------------------------------------------------------
  void handle(const Event& e);
  void on_eager_arrival(std::uint32_t msg_id);
  void on_rts_arrival(std::uint32_t msg_id);
  void on_data_arrival(std::uint32_t msg_id);
  void start_rendezvous_transfer(std::uint32_t msg_id, double t_ready);
  void complete_recv(std::uint32_t op_id, std::uint32_t msg_id,
                     double match_cost);
  void complete_op(std::uint32_t op_id, double t);

  // --- communicators -------------------------------------------------------
  /// Append communicator comms_.size() over `world`: a progression, or a
  /// list held by subcomms_ (SubcommRegistry::Creation::world).
  void add_comm(rt::RankSet world, double cost_scale);

  // --- pools ----------------------------------------------------------------
  std::uint32_t alloc_op();
  void release_op(std::uint32_t id);
  std::uint32_t alloc_msg();
  void release_msg(std::uint32_t id);
  std::uint32_t alloc_waiter();
  void release_waiter(std::uint32_t id);
  OpRec& op_checked(const rt::Request& r);

  /// Multiplier of one latency or overhead: 1 unless net().noise_sigma > 0.
  double noise() { return cfg_.net.noise_sigma <= 0.0 ? 1.0 : lognormal(); }
  /// Draw of the mean-one log-normal noise stream.
  double lognormal();

  ClusterConfig cfg_;
  topo::Machine machine_;
  Engine engine_;

  std::vector<RankState> ranks_;
  std::vector<topo::Placement> place_;  // per world rank
  std::vector<double> nic_in_;    // per node
  std::vector<double> nic_out_;   // per node
  std::vector<double> mem_chan_;  // per global NUMA domain

  Endpoint::Pool match_pool_;     ///< nodes of every endpoint's queues
  std::vector<CommEntry> comms_;  ///< by communicator id; 0 is the world
  rt::SubcommRegistry subcomms_;
  /// By communicator id: its world ranks in canonical form, the parent of
  /// a creation. Kept out of CommEntry, which the message path reads.
  std::vector<rt::RankSet> comm_worlds_;

  std::vector<OpRec> ops_;
  std::uint32_t free_op_ = kNil;
  std::vector<MsgRec> msgs_;
  std::uint32_t free_msg_ = kNil;
  std::vector<Waiter> waiters_;
  std::uint32_t free_waiter_ = kNil;

  std::vector<std::unique_ptr<SimComm>> world_comms_;
  int live_ = 0;

  std::mt19937_64 rng_;
  std::normal_distribution<double> normal_{0.0, 1.0};

  std::uint64_t stats_msgs_ = 0;
  std::uint64_t stats_bytes_ = 0;

  /// Tracing session over the active recorder; empty tracers_ == disabled.
  /// The recorder outlives the cluster (env singleton, or a test-owned
  /// recorder installed around the cluster's lifetime).
  obs::TraceRecorder* trace_rec_ = nullptr;
  int trace_session_ = -1;
  std::vector<obs::TraceBuffer*> tracers_;
  /// Always-on wire accounting mirrored into the metrics registry, cached
  /// per topology level so the per-send hot path is two relaxed adds.
  struct LevelMetrics {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
  };
  std::array<LevelMetrics, topo::kNumLevels> level_metrics_{};
};

}  // namespace mca2a::sim
