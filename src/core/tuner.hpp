#pragma once
/// \file tuner.hpp
/// The all-to-all cost model behind dynamic algorithm selection (the
/// paper's §5 future work: "explore how the optimal algorithm can be
/// dynamically selected for a given computer, system MPI, process count,
/// and data size"), and the decision type every selector returns.
///
/// predict_alltoall_seconds evaluates a closed-form critical-path estimate
/// of each algorithm family from the same model::NetParams the simulator
/// charges, so selection is consistent with simulated results; tests check
/// that the prediction ranks algorithms the way full simulations do at the
/// extremes (latency-bound small blocks, bandwidth-bound large blocks).
/// Selection itself — ranking every candidate of any collective kind —
/// lives in coll_ext/ext_tuner.hpp (coll::rank_candidates and
/// coll::select_algorithm).

#include <cstddef>

#include "core/alltoall.hpp"
#include "model/params.hpp"
#include "topo/machine.hpp"

namespace mca2a::coll {

/// Closed-form time estimate for one algorithm at one block size.
/// `group_size` is the leader/group width for the locality algorithms
/// (ignored by the direct ones).
double predict_alltoall_seconds(Algo algo, const topo::Machine& machine,
                                const model::NetParams& net,
                                std::size_t block, int group_size);

/// One algorithm-selection decision, for any collective kind: `algo` is
/// the op-specific enum value (coll::Algo, AllgatherAlgo, AllreduceAlgo or
/// AlltoallvAlgo) as an int — the form CollectivePlan::algo_id(), tuning
/// table entries and autotune::ProfileKey use.
struct Choice {
  int algo = 0;
  int group_size = 1;
  double predicted_seconds = 0.0;
};

}  // namespace mca2a::coll
