#pragma once
/// \file machine.hpp
/// Machine topology model: nodes x sockets x NUMA domains x cores.
///
/// Ranks are mapped block-wise (the default MPI mapping the paper uses):
/// rank r lives on node r / ppn at node-local index r % ppn, with local
/// indices filling NUMA domains and sockets consecutively. The locality
/// level of a rank pair drives every cost in the performance model and the
/// group arithmetic of the locality-aware algorithms.

#include <cstdint>
#include <stdexcept>
#include <string>

namespace mca2a::topo {

/// Locality level of a pair of ranks, from closest to farthest.
enum class Level : std::uint8_t {
  kSelf = 0,     ///< same rank
  kNuma = 1,     ///< same NUMA domain
  kSocket = 2,   ///< same socket, different NUMA domain
  kNode = 3,     ///< same node, different socket
  kNetwork = 4,  ///< different nodes
};

inline constexpr int kNumLevels = 5;

/// Where a rank runs: its node, global socket and global NUMA domain.
struct Placement {
  int node = 0;
  int socket = 0;
  int numa = 0;
};

/// Locality level of two *different* ranks placed at `a` and `b`.
inline Level level_between(const Placement& a, const Placement& b) noexcept {
  if (a.node != b.node) {
    return Level::kNetwork;
  }
  if (a.socket != b.socket) {
    return Level::kNode;
  }
  return a.numa != b.numa ? Level::kSocket : Level::kNuma;
}

/// Human-readable name of a level ("self", "numa", ...).
const char* to_string(Level level);

/// Declarative description of a machine.
struct MachineDesc {
  std::string name = "generic";
  int nodes = 1;
  int sockets_per_node = 1;
  int numa_per_socket = 1;
  int cores_per_numa = 1;

  int numa_per_node() const { return sockets_per_node * numa_per_socket; }
  int cores_per_socket() const { return numa_per_socket * cores_per_numa; }
  int cores_per_node() const { return sockets_per_node * cores_per_socket(); }
  int total_cores() const { return nodes * cores_per_node(); }
};

/// Validated machine with rank/locality arithmetic. One rank per core.
class Machine {
 public:
  /// Validates the description; throws std::invalid_argument on nonsense.
  explicit Machine(MachineDesc desc);

  const MachineDesc& desc() const noexcept { return desc_; }
  const std::string& name() const noexcept { return desc_.name; }

  int nodes() const noexcept { return desc_.nodes; }
  /// Processes (ranks) per node.
  int ppn() const noexcept { return ppn_; }
  int total_ranks() const noexcept { return desc_.nodes * ppn_; }

  /// Node index of a world rank.
  int node_of(int rank) const { return check(rank) / ppn_; }
  /// Node-local index of a world rank (0..ppn-1).
  int local_rank(int rank) const { return check(rank) % ppn_; }
  /// Global socket index of a world rank.
  int socket_of(int rank) const {
    return node_of(rank) * desc_.sockets_per_node +
           local_rank(rank) / desc_.cores_per_socket();
  }
  /// Global NUMA-domain index of a world rank.
  int numa_of(int rank) const {
    return node_of(rank) * desc_.numa_per_node() +
           local_rank(rank) / desc_.cores_per_numa;
  }
  /// Node, socket and NUMA domain of a world rank.
  Placement placement(int rank) const {
    return {node_of(rank), socket_of(rank), numa_of(rank)};
  }
  /// World rank of node-local index `local` on node `node`.
  int world_rank(int node, int local) const {
    if (node < 0 || node >= desc_.nodes || local < 0 || local >= ppn_) {
      throw std::out_of_range("Machine::world_rank out of range");
    }
    return node * ppn_ + local;
  }

  /// Locality level of the pair (a, b).
  Level level(int a, int b) const;

  // --- group arithmetic for the locality-aware algorithms ------------------
  // Groups are `group_size` consecutive node-local ranks; group_size must
  // divide ppn. These helpers are the single source of truth for the
  // communicator construction in runtime/comm_bundle.

  /// Number of groups per node for a given group size.
  int groups_per_node(int group_size) const;
  /// Node-local group index of a rank (0..groups_per_node-1).
  int group_of(int rank, int group_size) const;
  /// Rank's index within its group (0..group_size-1).
  int group_local(int rank, int group_size) const;
  /// True if `rank` is the first rank (leader) of its group.
  bool is_group_leader(int rank, int group_size) const {
    return group_local(rank, group_size) == 0;
  }

 private:
  int check(int rank) const {
    if (rank < 0 || rank >= total_ranks()) {
      throw std::out_of_range("Machine: rank out of range");
    }
    return rank;
  }

  MachineDesc desc_;
  int ppn_ = 1;
};

}  // namespace mca2a::topo
