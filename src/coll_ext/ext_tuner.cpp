#include "coll_ext/ext_tuner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/cost.hpp"

namespace mca2a::coll {

namespace {

using topo::Level;

/// Latency-chain time for `steps` sequential exchanges at `level` of
/// `msg_bytes` each (the same shape core/tuner uses).
double chain_time(const model::NetParams& net, Level level, double steps,
                  double msg_bytes) {
  const model::LevelParams& l = net.at(level);
  return steps *
         (l.alpha + msg_bytes * l.beta + l.o_send + l.o_recv +
          2.0 * model::cpu_copy_time(net, level,
                                     static_cast<std::size_t>(msg_bytes)));
}

double pack(const model::NetParams& net, double bytes) {
  return bytes * net.pack_beta;
}

}  // namespace

double predict_allgather_seconds(AllgatherAlgo algo,
                                 const topo::Machine& machine,
                                 const model::NetParams& net,
                                 std::size_t block, int group_size) {
  const int n = machine.nodes();
  const int ppn = machine.ppn();
  const int p = machine.total_ranks();
  const double s = static_cast<double>(block);
  const int g = group_size == 0 ? ppn : group_size;  // 0 = one group per node
  if (g < 1 || ppn % g != 0) {
    throw std::invalid_argument(
        "predict_allgather: group size must divide ppn");
  }
  const int nreg = n * (ppn / g);

  switch (algo) {
    case AllgatherAlgo::kRing:
      // p-1 neighbor steps of one block each; the ring crosses node
      // boundaries n times per lap but every step waits for the slowest
      // (network) link, so charge the network level throughout.
      return chain_time(net, Level::kNetwork, static_cast<double>(p - 1), s);
    case AllgatherAlgo::kBruck: {
      // ceil(log2 p) doubling steps moving 1, 2, 4, ... blocks; total
      // volume (p-1) blocks, total latency log2 p network alphas.
      const double steps = std::ceil(std::log2(std::max(2, p)));
      const double vol = static_cast<double>(p - 1) * s;
      return chain_time(net, Level::kNetwork, steps, vol / steps) +
             pack(net, 2.0 * static_cast<double>(p) * s);
    }
    case AllgatherAlgo::kHierarchical: {
      // Gather g blocks to the leader, leaders ring-allgather aggregated
      // g-blocks over nreg regions, broadcast the p-block result locally.
      const double gather =
          chain_time(net, Level::kNuma, std::ceil(std::log2(std::max(2, g))),
                     static_cast<double>(g) * s / 2.0);
      const double leaders =
          chain_time(net, Level::kNetwork, static_cast<double>(nreg - 1),
                     static_cast<double>(g) * s);
      const double bc =
          chain_time(net, Level::kNuma, std::ceil(std::log2(std::max(2, g))),
                     static_cast<double>(p) * s);
      return gather + leaders + bc;
    }
    case AllgatherAlgo::kLocalityAware: {
      // Intra-group allgather of single blocks, then every rank joins an
      // inter-region allgather of g-blocks — no broadcast phase.
      const double intra =
          chain_time(net, Level::kNuma, static_cast<double>(g - 1), s);
      const double inter =
          chain_time(net, Level::kNetwork, static_cast<double>(nreg - 1),
                     static_cast<double>(g) * s);
      return intra + inter;
    }
    case AllgatherAlgo::kCount_:
      break;
  }
  throw std::invalid_argument("predict_allgather: unknown algorithm");
}

double predict_allreduce_seconds(AllreduceAlgo algo,
                                 const topo::Machine& machine,
                                 const model::NetParams& net, std::size_t bytes,
                                 int group_size) {
  const int ppn = machine.ppn();
  const int p = machine.total_ranks();
  const double v = static_cast<double>(bytes);
  const int g = group_size == 0 ? ppn : group_size;
  if (g < 1 || ppn % g != 0) {
    throw std::invalid_argument(
        "predict_allreduce: group size must divide ppn");
  }
  const int nreg = machine.nodes() * (ppn / g);
  // Element-wise combining is charged at the repack rate (one pass).
  const auto combine = [&](double b) { return pack(net, b); };

  switch (algo) {
    case AllreduceAlgo::kRecursiveDoubling: {
      const double rounds = std::ceil(std::log2(std::max(2, p)));
      return rounds * (chain_time(net, Level::kNetwork, 1.0, v) + combine(v));
    }
    case AllreduceAlgo::kRabenseifner: {
      // Ring reduce-scatter then ring allgather: 2(p-1) steps of v/p bytes,
      // combining v*(p-1)/p bytes along the way.
      const double chunk = v / static_cast<double>(p);
      const double steps = 2.0 * static_cast<double>(p - 1);
      return chain_time(net, Level::kNetwork, steps, chunk) +
             combine(chunk * static_cast<double>(p - 1));
    }
    case AllreduceAlgo::kNodeAware: {
      // Binomial reduce to the group leader, recursive doubling among the
      // nreg leaders, binomial broadcast back — all on the full vector.
      const double local_rounds = std::ceil(std::log2(std::max(2, g)));
      const double leader_rounds = std::ceil(std::log2(std::max(2, nreg)));
      return local_rounds *
                 (chain_time(net, Level::kNuma, 1.0, v) + combine(v)) +
             leader_rounds *
                 (chain_time(net, Level::kNetwork, 1.0, v) + combine(v)) +
             local_rounds * chain_time(net, Level::kNuma, 1.0, v);
    }
    case AllreduceAlgo::kCount_:
      break;
  }
  throw std::invalid_argument("predict_allreduce: unknown algorithm");
}

double predict_alltoallv_seconds(AlltoallvAlgo algo,
                                 const topo::Machine& machine,
                                 const model::NetParams& net,
                                 const AlltoallvSkew& skew, int group_size) {
  const int p = machine.total_ranks();
  const int ppn = machine.ppn();
  const double mean =
      p > 0 ? static_cast<double>(skew.total_bytes) /
                  (static_cast<double>(p) * p)
            : 0.0;
  const double imb = skew.imbalance(p);
  const auto fixed = [&](Algo a, double block, int g) {
    return predict_alltoall_seconds(
        a, machine, net, static_cast<std::size_t>(std::max(0.0, block)), g);
  };
  // Skew model: interpolate between the uniform estimate at the mean block
  // and the (pessimistic) one at the max block. `exposure` is how much of
  // the worst case an algorithm actually sees: pairwise synchronizes on
  // the heaviest transfer of many steps (1/2); nonblocking pays the hot
  // transfer once, through one NIC (1/8); the locality funnels carry hot
  // pairs inside aggregated blocks whose sizes concentrate around the mean
  // (1/16).
  const auto skewed = [&](Algo a, int g, double exposure) {
    const double at_mean = fixed(a, mean, g);
    return at_mean + exposure * (fixed(a, mean * imb, g) - at_mean);
  };
  // The count-metadata exchange the locality variants prepay: a regular
  // alltoall of per-peer byte counts through the same leader structure.
  const auto count_cost = [&](Algo a, int g) {
    return fixed(a, static_cast<double>(sizeof(std::size_t)), g);
  };

  switch (algo) {
    case AlltoallvAlgo::kPairwise:
      return skewed(Algo::kPairwiseDirect, ppn, 0.5);
    case AlltoallvAlgo::kNonblocking:
      return skewed(Algo::kNonblockingDirect, ppn, 0.125);
    case AlltoallvAlgo::kHierarchical: {
      const Algo a =
          group_size == ppn ? Algo::kHierarchical : Algo::kMultileader;
      return skewed(a, group_size, 1.0 / 16.0) + count_cost(a, group_size);
    }
    case AlltoallvAlgo::kMultileaderNodeAware:
      return skewed(Algo::kMultileaderNodeAware, group_size, 1.0 / 16.0) +
             count_cost(Algo::kMultileaderNodeAware, group_size);
    case AlltoallvAlgo::kCount_:
      break;
  }
  throw std::invalid_argument("predict_alltoallv: unknown algorithm");
}

std::size_t alltoallv_size_class(const topo::Machine& machine,
                                 const AlltoallvSkew& skew) {
  std::size_t tb = 0;
  while (tb < 63 && (std::size_t{1} << tb) < skew.total_bytes + 1) {
    ++tb;
  }
  const double imb = skew.imbalance(machine.total_ranks());
  const auto ib = static_cast<std::size_t>(
      std::min(255.0, std::max(0.0, std::round(4.0 * std::log2(imb)))));
  return (tb << 8) | ib;
}

namespace {

/// Candidate leader/group widths for the locality algorithms of any kind:
/// {4, 8, 16, ppn} filtered to divisors of ppn, each width once.
std::vector<int> candidate_groups(int ppn) {
  std::vector<int> groups;
  for (int g : {4, 8, 16}) {
    if (g < ppn && ppn % g == 0) {
      groups.push_back(g);
    }
  }
  groups.push_back(ppn);
  return groups;
}

AlltoallvSkew skew_of(const AlltoallvDesc& d) {
  return d.skew ? *d.skew
                : estimate_alltoallv_skew(d.send_counts, d.recv_counts);
}

}  // namespace

std::size_t size_class(const OpDesc& desc, const topo::Machine& machine) {
  switch (desc.kind()) {
    case OpKind::kAlltoall:
      return desc.alltoall().block;
    case OpKind::kAlltoallv:
      return alltoallv_size_class(machine, skew_of(desc.alltoallv()));
    case OpKind::kAllgather:
      return desc.allgather().block;
    case OpKind::kAllreduce:
      return desc.allreduce().bytes();
    case OpKind::kCount_:
      break;
  }
  throw std::invalid_argument("size_class: bad op kind");
}

std::vector<Choice> rank_candidates(const topo::Machine& machine,
                                    const model::NetParams& net,
                                    const OpDesc& desc,
                                    double plausible_factor,
                                    std::size_t max_candidates) {
  const int ppn = machine.ppn();
  const std::vector<int> groups = candidate_groups(ppn);
  std::vector<Choice> all;
  const auto add = [&all](auto algo, int g, double seconds) {
    all.push_back(Choice{static_cast<int>(algo), g, seconds});
  };
  // Enumeration order is the tie-break: the first-enumerated of equally
  // fast candidates ranks first.
  switch (desc.kind()) {
    case OpKind::kAlltoall: {
      const std::size_t block = desc.alltoall().block;
      const auto consider = [&](Algo a, int g) {
        add(a, g, predict_alltoall_seconds(a, machine, net, block, g));
      };
      for (Algo a : {Algo::kSystemMpi, Algo::kBruckDirect,
                     Algo::kPairwiseDirect, Algo::kNonblockingDirect,
                     Algo::kHierarchical, Algo::kNodeAware}) {
        consider(a, ppn);
      }
      for (int g : groups) {
        if (g < ppn) {
          consider(Algo::kMultileader, g);
          consider(Algo::kLocalityAware, g);
          consider(Algo::kMultileaderNodeAware, g);
        }
      }
      break;
    }
    case OpKind::kAlltoallv: {
      const AlltoallvSkew skew = skew_of(desc.alltoallv());
      const auto consider = [&](AlltoallvAlgo a, int g) {
        add(a, g, predict_alltoallv_seconds(a, machine, net, skew, g));
      };
      consider(AlltoallvAlgo::kPairwise, ppn);
      consider(AlltoallvAlgo::kNonblocking, ppn);
      consider(AlltoallvAlgo::kHierarchical, ppn);
      for (int g : groups) {
        if (g < ppn) {
          consider(AlltoallvAlgo::kHierarchical, g);
          consider(AlltoallvAlgo::kMultileaderNodeAware, g);
        }
      }
      break;
    }
    case OpKind::kAllgather: {
      const std::size_t block = desc.allgather().block;
      const auto consider = [&](AllgatherAlgo a, int g) {
        add(a, g, predict_allgather_seconds(a, machine, net, block, g));
      };
      consider(AllgatherAlgo::kRing, ppn);
      consider(AllgatherAlgo::kBruck, ppn);
      consider(AllgatherAlgo::kHierarchical, ppn);
      for (int g : groups) {
        consider(AllgatherAlgo::kLocalityAware, g);
      }
      break;
    }
    case OpKind::kAllreduce: {
      const AllreduceDesc& d = desc.allreduce();
      const auto consider = [&](AllreduceAlgo a, int g) {
        add(a, g, predict_allreduce_seconds(a, machine, net, d.bytes(), g));
      };
      consider(AllreduceAlgo::kRecursiveDoubling, ppn);
      if (d.count >= static_cast<std::size_t>(machine.total_ranks())) {
        consider(AllreduceAlgo::kRabenseifner, ppn);
      }
      for (int g : groups) {
        consider(AllreduceAlgo::kNodeAware, g);
      }
      break;
    }
    case OpKind::kCount_:
      throw std::invalid_argument("rank_candidates: bad op kind");
  }
  std::stable_sort(all.begin(), all.end(), [](const Choice& x, const Choice& y) {
    return x.predicted_seconds < y.predicted_seconds;
  });
  // Pruned at the first candidate past the cutoff (`>`: a 0 s best times
  // an infinite factor is NaN, which must prune nothing), then at the cap.
  const double cutoff =
      all.front().predicted_seconds * std::max(1.0, plausible_factor);
  all.erase(std::find_if(all.begin(), all.end(),
                         [cutoff](const Choice& c) {
                           return c.predicted_seconds > cutoff;
                         }),
            all.end());
  all.resize(std::min(all.size(), std::max<std::size_t>(1, max_candidates)));
  return all;
}

Choice select_algorithm(const topo::Machine& machine,
                        const model::NetParams& net, const OpDesc& desc) {
  return rank_candidates(machine, net, desc).front();
}

}  // namespace mca2a::coll
