#include "runtime/comm_bundle.hpp"

#include <atomic>
#include <stdexcept>

namespace mca2a::rt {

namespace {
// Relaxed is enough: tests only read the counter while ranks are quiescent.
std::atomic<std::uint64_t> g_locality_builds{0};
}  // namespace

std::uint64_t locality_build_count() {
  return g_locality_builds.load(std::memory_order_relaxed);
}

LocalityComms build_locality_comms(Comm& world, const topo::Machine& machine,
                                   int group_size, bool build_leader_comms) {
  g_locality_builds.fetch_add(1, std::memory_order_relaxed);
  if (world.size() != machine.total_ranks()) {
    throw std::invalid_argument(
        "build_locality_comms: world size does not match the machine");
  }
  const int g = group_size;
  const int G = machine.groups_per_node(g);  // validates divisibility
  const int ppn = machine.ppn();
  const int n = machine.nodes();
  const int me = world.rank();

  LocalityComms lc;
  lc.world = &world;
  lc.machine = &machine;
  lc.group_size = g;
  lc.groups_per_node = G;
  lc.my_node = machine.node_of(me);
  lc.my_local = machine.local_rank(me);
  lc.my_group = lc.my_local / g;
  lc.my_pos = lc.my_local % g;
  lc.my_region = lc.my_node * G + lc.my_group;
  lc.is_leader = lc.my_pos == 0;

  // Machine::world_rank(node, local) is node·ppn + local, so each member
  // set below is a progression of `world`'s ranks: no member list, and
  // O(1) per rank when `world`'s world ranks form a progression too (the
  // world communicator's do).
  const int node_first = machine.world_rank(lc.my_node, 0);

  // node_comm: all ranks on my node, by local rank.
  lc.node_comm =
      world.create_subcomm(RankSet::progression(node_first, ppn, 1));

  // local_comm: my group, by in-group position.
  lc.local_comm = world.create_subcomm(
      RankSet::progression(node_first + lc.my_group * g, g, 1));

  // group_cross: position my_pos of every region, by region index. Region
  // j covers ranks [j·g, (j+1)·g).
  lc.group_cross =
      world.create_subcomm(RankSet::progression(lc.my_pos, n * G, g));

  if (build_leader_comms && lc.is_leader) {
    // leader_cross: group-my_group leaders across nodes, by node.
    lc.leader_cross = world.create_subcomm(
        RankSet::progression(machine.world_rank(0, lc.my_group * g), n, ppn));

    // leaders_node: leaders within my node, by group.
    lc.leaders_node =
        world.create_subcomm(RankSet::progression(node_first, G, g));
  }
  return lc;
}

}  // namespace mca2a::rt
