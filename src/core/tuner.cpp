#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/cost.hpp"

namespace mca2a::coll {

namespace {

using topo::Level;

/// Aggregate NIC time per node for `volume` bytes in `msgs` messages of
/// `msg_bytes` each (injection side; ejection is symmetric here).
double nic_time(const model::NetParams& net, double msgs, double msg_bytes) {
  double per_msg = net.nic_msg_overhead + msg_bytes * net.nic_inject_beta;
  if (model::is_rendezvous(net, static_cast<std::size_t>(msg_bytes))) {
    per_msg *= net.rendezvous_nic_factor;
  }
  return msgs * per_msg;
}

/// Per-rank CPU time for sending/receiving `msgs` messages of `msg_bytes`.
double rank_msg_time(const model::NetParams& net, Level level, double msgs,
                     double msg_bytes) {
  const model::LevelParams& l = net.at(level);
  return msgs * (l.o_send + l.o_recv +
                 2.0 * model::cpu_copy_time(net, level,
                                            static_cast<std::size_t>(msg_bytes)) +
                 net.match_base);
}

/// Latency-chain time for `steps` sequential exchanges at `level` of
/// `msg_bytes` each (pairwise-style critical path).
double chain_time(const model::NetParams& net, Level level, double steps,
                  double msg_bytes) {
  const model::LevelParams& l = net.at(level);
  return steps * (l.alpha + msg_bytes * l.beta + l.o_send + l.o_recv +
                  2.0 * model::cpu_copy_time(net, level,
                                             static_cast<std::size_t>(msg_bytes)));
}

double pack(const model::NetParams& net, double bytes) {
  return bytes * net.pack_beta;
}

struct Shape {
  int n;       // nodes
  int ppn;     // ranks per node
  int p;       // total ranks
  double s;    // block bytes
  int g;       // group size
  int G;       // groups per node
  int nreg;    // regions
};

double predict_direct_pairwise(const model::NetParams& net, const Shape& sh) {
  // (p-1) synchronous steps; inter-node steps dominated by shared NIC.
  const double inter_steps = static_cast<double>(sh.n - 1) * sh.ppn;
  const double intra_steps = static_cast<double>(sh.ppn - 1);
  const double nic =
      nic_time(net, inter_steps * sh.ppn, sh.s);  // per node, all ranks
  const double lat = chain_time(net, Level::kNetwork, inter_steps, sh.s) +
                     chain_time(net, Level::kNuma, intra_steps, sh.s);
  return std::max(nic, lat);
}

double predict_direct_nonblocking(const model::NetParams& net,
                                  const Shape& sh) {
  const double inter_msgs = static_cast<double>(sh.n - 1) * sh.ppn;
  const double nic = nic_time(net, inter_msgs * sh.ppn, sh.s);
  // Queue search over ~p posted entries per message.
  const double match = static_cast<double>(sh.p - 1) *
                       model::match_time(net, static_cast<std::size_t>(sh.p));
  const double cpu =
      rank_msg_time(net, Level::kNetwork, static_cast<double>(sh.p - 1), sh.s);
  return std::max(nic, cpu + match) + net.at(Level::kNetwork).alpha;
}

double predict_bruck(const model::NetParams& net, const Shape& sh) {
  const double steps = std::ceil(std::log2(static_cast<double>(sh.p)));
  const double step_bytes = sh.s * sh.p / 2.0;
  const double nic_per_node =
      nic_time(net, static_cast<double>(sh.ppn), step_bytes);
  const double per_step =
      std::max(nic_per_node, chain_time(net, Level::kNetwork, 1.0, step_bytes)) +
      pack(net, 2.0 * step_bytes);
  return steps * per_step + pack(net, 2.0 * sh.s * sh.p);
}

double predict_hierarchical(const model::NetParams& net, const Shape& sh) {
  const double psz = sh.s * sh.p;
  const double leader_in = static_cast<double>(sh.g) * psz;
  // Gather/scatter funnel: the leader copies every member byte in and out.
  const double funnel = 2.0 * leader_in * net.cpu_copy_beta_intra +
                        chain_time(net, Level::kNuma, sh.g - 1, 0.0);
  const double repack = 2.0 * pack(net, 2.0 * leader_in);
  // Leader exchange: nreg-1 partners, block g*g*s; per node G leaders share
  // the NIC; inter-node portion is (nreg - G) of the partners.
  const double blk = sh.s * sh.g * sh.g;
  const double inter_msgs = static_cast<double>(sh.nreg - sh.G) * sh.G;
  const double nic = nic_time(net, inter_msgs, blk);
  const double lat = chain_time(net, Level::kNetwork,
                                static_cast<double>(sh.nreg - 1), blk);
  return funnel + repack + std::max(nic, lat);
}

double predict_node_aware(const model::NetParams& net, const Shape& sh) {
  // Phase 1: every rank exchanges with nreg-1 peers, block g*s.
  const double blk1 = sh.s * sh.g;
  const double inter_msgs_node =
      static_cast<double>(sh.n - 1) * sh.G * sh.ppn;  // per node
  const double nic = nic_time(net, inter_msgs_node, blk1);
  const double lat1 = chain_time(net, Level::kNetwork,
                                 static_cast<double>(sh.nreg - 1), blk1);
  // Phase 2: g-1 partners, block nreg*s, intra-node.
  const double blk2 = sh.s * sh.nreg;
  const double lat2 =
      chain_time(net, Level::kNuma, static_cast<double>(sh.g - 1), blk2);
  const double repack = 2.0 * pack(net, sh.s * sh.p);
  return std::max(nic, lat1) + lat2 + repack;
}

double predict_mlna(const model::NetParams& net, const Shape& sh) {
  const double psz = sh.s * sh.p;
  const double leader_in = static_cast<double>(sh.g) * psz;
  const double funnel = 2.0 * leader_in * net.cpu_copy_beta_intra +
                        chain_time(net, Level::kNuma, sh.g - 1, 0.0);
  const double repack = 2.0 * pack(net, 2.0 * leader_in);
  // Inter: n-1 partners, block g*ppn*s, G leaders per node share the NIC.
  const double blk1 = sh.s * sh.g * sh.ppn;
  const double nic =
      nic_time(net, static_cast<double>(sh.n - 1) * sh.G, blk1);
  const double lat1 =
      chain_time(net, Level::kNetwork, static_cast<double>(sh.n - 1), blk1);
  // Intra: G-1 partners, block n*g*g*s.
  const double blk2 = sh.s * sh.n * sh.g * sh.g;
  const double lat2 =
      chain_time(net, Level::kSocket, static_cast<double>(sh.G - 1), blk2);
  return funnel + repack + std::max(nic, lat1) + lat2;
}

}  // namespace

double predict_alltoall_seconds(Algo algo, const topo::Machine& machine,
                                const model::NetParams& net,
                                std::size_t block, int group_size) {
  Shape sh;
  sh.n = machine.nodes();
  sh.ppn = machine.ppn();
  sh.p = machine.total_ranks();
  sh.s = static_cast<double>(block);
  switch (algo) {
    case Algo::kHierarchical:
    case Algo::kNodeAware:
      sh.g = sh.ppn;
      break;
    default:
      sh.g = group_size;
  }
  if (sh.g < 1 || sh.ppn % sh.g != 0) {
    throw std::invalid_argument("predict: group size must divide ppn");
  }
  sh.G = sh.ppn / sh.g;
  sh.nreg = sh.n * sh.G;

  switch (algo) {
    case Algo::kSystemMpi: {
      Options o;
      const double t = block <= o.system_small_threshold
                           ? predict_bruck(net, sh)
                           : predict_direct_pairwise(net, sh);
      return t * net.vendor_factor;
    }
    case Algo::kHierarchical:
    case Algo::kMultileader:
      return predict_hierarchical(net, sh);
    case Algo::kNodeAware:
    case Algo::kLocalityAware:
      return predict_node_aware(net, sh);
    case Algo::kMultileaderNodeAware:
      return predict_mlna(net, sh);
    case Algo::kPairwiseDirect:
      return predict_direct_pairwise(net, sh);
    case Algo::kNonblockingDirect:
      return predict_direct_nonblocking(net, sh);
    case Algo::kBruckDirect:
      return predict_bruck(net, sh);
    case Algo::kBatchedDirect:
      return 0.5 * (predict_direct_pairwise(net, sh) +
                    predict_direct_nonblocking(net, sh));
    case Algo::kCount_:
      break;
  }
  throw std::invalid_argument("predict: unknown algorithm");
}

}  // namespace mca2a::coll
