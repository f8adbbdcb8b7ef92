#pragma once
/// \file alltoall.hpp
/// Public API of the all-to-all algorithm family.
///
/// Every algorithm exchanges `block` bytes between every ordered pair of
/// ranks: sendbuf holds size() blocks ordered by destination rank, recvbuf
/// receives size() blocks ordered by source rank. Direct algorithms run on
/// any communicator; the locality algorithms (paper Algorithms 3-5) take a
/// LocalityComms bundle built by rt::build_locality_comms.
///
/// Paper mapping:
///   Algorithm 1            -> alltoall_pairwise
///   Algorithm 2            -> alltoall_nonblocking
///   Bruck et al. [4]       -> alltoall_bruck
///   Batched [16]           -> alltoall_batched
///   Algorithm 3 (L=1)      -> alltoall_hierarchical  (Algo::kHierarchical)
///   Algorithm 3 (L>1)      -> alltoall_hierarchical  (Algo::kMultileader)
///   Algorithm 4 (G=1)      -> alltoall_node_aware    (Algo::kNodeAware)
///   Algorithm 4 (G>1)      -> alltoall_node_aware    (Algo::kLocalityAware)
///   Algorithm 5 (novel)    -> alltoall_multileader_node_aware
///   System MPI baseline    -> alltoall_system_mpi (surrogate: Bruck below a
///                             threshold, pairwise above, vendor-scaled)

#include <array>
#include <cstddef>
#include <string_view>

#include "runtime/buffer.hpp"
#include "runtime/comm.hpp"
#include "runtime/comm_bundle.hpp"
#include "runtime/task.hpp"

namespace mca2a::rt {
class ScratchArena;
}

namespace mca2a::coll {

/// Exchange used for the internal MPI_Alltoall instances of Algorithms 3-5
/// (the solid-vs-dashed line distinction in the paper's figures).
enum class Inner {
  kPairwise,     ///< Algorithm 1 inside
  kNonblocking,  ///< Algorithm 2 inside
  kBruck,        ///< Bruck inside (latency-optimal for small blocks)
};

/// Phases for the timing-breakdown experiments (Figures 13-16).
enum class Phase : int {
  kGather = 0,
  kScatter,
  kInterA2A,
  kIntraA2A,
  kPack,
  kCount_,
};
inline constexpr int kNumPhases = static_cast<int>(Phase::kCount_);
std::string_view phase_name(Phase p);

/// Per-rank accumulated phase timings (seconds of comm.now()), fed by the
/// algorithms' PhaseScopes (core/phase.hpp).
struct Trace {
  std::array<double, kNumPhases> seconds{};

  void add(Phase p, double dt) { seconds[static_cast<int>(p)] += dt; }
};

struct Options {
  Inner inner = Inner::kPairwise;
  /// Window size for the batched algorithm.
  int batch_window = 32;
  /// Per-message-size threshold for the System MPI surrogate's switch from
  /// Bruck to pairwise.
  std::size_t system_small_threshold = 512;
  /// Optional per-rank phase timing sink.
  Trace* trace = nullptr;
  /// Optional reusable scratch arena (runtime/scratch.hpp). When set, every
  /// algorithm recycles its temporary buffers — the locality algorithms'
  /// staging (including the binomial gather/scatter trees) and the Bruck
  /// rotation/pack buffers alike — through it instead of allocating fresh
  /// ones per call; persistent plans (plan/plan.hpp) use this so repeated
  /// execute() calls allocate no scratch after the first (a warm execute()
  /// allocates nothing in the plan layer; a started operation makes one
  /// heap allocation, its handle state).
  rt::ScratchArena* scratch = nullptr;
  /// Tag stream (runtime/tags.hpp) this collective's internal traffic runs
  /// in. Started plans draw a fresh stream per operation so concurrent
  /// collectives on one communicator never cross-match; direct callers can
  /// leave the default (stream 0).
  int tag_stream = 0;
};

// --- direct algorithms ------------------------------------------------------

/// Algorithm 1: p-1 synchronous sendrecv steps, one partner at a time.
rt::Task<void> alltoall_pairwise(rt::Comm& comm, rt::ConstView send,
                                 rt::MutView recv, std::size_t block,
                                 int tag_stream = 0);
/// Algorithm 2: post every isend/irecv, then a single waitall.
rt::Task<void> alltoall_nonblocking(rt::Comm& comm, rt::ConstView send,
                                    rt::MutView recv, std::size_t block,
                                    int tag_stream = 0);
/// Bruck: ceil(log2 p) steps exchanging half the buffer each step. The
/// rotation and pack/unpack buffers recycle through `scratch` when given.
rt::Task<void> alltoall_bruck(rt::Comm& comm, rt::ConstView send,
                              rt::MutView recv, std::size_t block,
                              rt::ScratchArena* scratch = nullptr,
                              int tag_stream = 0);
/// Batched [16]: nonblocking with at most `window` outstanding pairs.
rt::Task<void> alltoall_batched(rt::Comm& comm, rt::ConstView send,
                                rt::MutView recv, std::size_t block,
                                int window, int tag_stream = 0);
/// Dispatch one of the three inner exchanges. `scratch` reaches the Bruck
/// buffers (the other inner exchanges allocate nothing).
rt::Task<void> alltoall_inner(Inner inner, rt::Comm& comm, rt::ConstView send,
                              rt::MutView recv, std::size_t block,
                              rt::ScratchArena* scratch = nullptr,
                              int tag_stream = 0);

// --- locality algorithms (paper Algorithms 3-5) -----------------------------

/// Algorithm 3: gather to the group leader, all-to-all among all leaders,
/// scatter back. group_size == ppn gives the classic hierarchical variant;
/// smaller groups give the multi-leader variant.
rt::Task<void> alltoall_hierarchical(const rt::LocalityComms& lc,
                                     rt::ConstView send, rt::MutView recv,
                                     std::size_t block, const Options& opts);

/// Algorithm 4: inter-region all-to-all on group_cross, then intra-region
/// redistribution. group_size == ppn gives node-aware aggregation; smaller
/// groups give the paper's locality-aware aggregation.
rt::Task<void> alltoall_node_aware(const rt::LocalityComms& lc,
                                   rt::ConstView send, rt::MutView recv,
                                   std::size_t block, const Options& opts);

/// Algorithm 5 (novel): gather to leaders, node-aware exchange among
/// same-index leaders across nodes, redistribution among a node's leaders,
/// scatter back.
rt::Task<void> alltoall_multileader_node_aware(const rt::LocalityComms& lc,
                                               rt::ConstView send,
                                               rt::MutView recv,
                                               std::size_t block,
                                               const Options& opts);

/// System MPI surrogate: Bruck for blocks <= opts.system_small_threshold,
/// pairwise otherwise, with the model's vendor tuning factor applied (the
/// simulator scales CPU costs on vendor-flagged communicators; on the
/// threads backend the factor is a no-op).
rt::Task<void> alltoall_system_mpi(rt::Comm& comm, rt::ConstView send,
                                   rt::MutView recv, std::size_t block,
                                   const Options& opts);

// --- registry ---------------------------------------------------------------

enum class Algo : int {
  kSystemMpi = 0,
  kHierarchical,   ///< Algorithm 3, one leader per node
  kMultileader,    ///< Algorithm 3, group_size leaders
  kNodeAware,      ///< Algorithm 4, one group per node
  kLocalityAware,  ///< Algorithm 4, groups of group_size
  kMultileaderNodeAware,
  kPairwiseDirect,
  kNonblockingDirect,
  kBruckDirect,
  kBatchedDirect,
  kCount_,
};
inline constexpr int kNumAlgos = static_cast<int>(Algo::kCount_);

/// Figure-legend name ("System MPI", "Node-Aware", ...).
std::string_view algo_name(Algo a);
/// True if the algorithm requires a LocalityComms bundle.
bool needs_locality(Algo a);
/// True if the algorithm uses the leader communicators of Algorithm 5.
bool needs_leader_comms(Algo a);

/// Run `algo` with uniform arguments. `lc` may be null for direct
/// algorithms; world is taken from lc->world when lc is given.
rt::Task<void> run_alltoall(Algo algo, rt::Comm& world,
                            const rt::LocalityComms* lc, rt::ConstView send,
                            rt::MutView recv, std::size_t block,
                            const Options& opts);

}  // namespace mca2a::coll
