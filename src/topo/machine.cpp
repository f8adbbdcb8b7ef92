#include "topo/machine.hpp"

namespace mca2a::topo {

const char* to_string(Level level) {
  switch (level) {
    case Level::kSelf:
      return "self";
    case Level::kNuma:
      return "numa";
    case Level::kSocket:
      return "socket";
    case Level::kNode:
      return "node";
    case Level::kNetwork:
      return "network";
  }
  return "?";
}

Machine::Machine(MachineDesc desc) : desc_(std::move(desc)) {
  if (desc_.nodes < 1 || desc_.sockets_per_node < 1 ||
      desc_.numa_per_socket < 1 || desc_.cores_per_numa < 1) {
    throw std::invalid_argument("MachineDesc: all extents must be >= 1");
  }
  ppn_ = desc_.cores_per_node();
}

Level Machine::level(int a, int b) const {
  check(a);
  check(b);
  return a == b ? Level::kSelf : level_between(placement(a), placement(b));
}

int Machine::groups_per_node(int group_size) const {
  if (group_size < 1 || ppn_ % group_size != 0) {
    throw std::invalid_argument(
        "Machine: group size must be >= 1 and divide processes-per-node (" +
        std::to_string(ppn_) + "), got " + std::to_string(group_size));
  }
  return ppn_ / group_size;
}

int Machine::group_of(int rank, int group_size) const {
  groups_per_node(group_size);  // validate
  return local_rank(rank) / group_size;
}

int Machine::group_local(int rank, int group_size) const {
  groups_per_node(group_size);  // validate
  return local_rank(rank) % group_size;
}

}  // namespace mca2a::topo
