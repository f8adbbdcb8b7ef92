#pragma once
/// \file ext_tuner.hpp
/// Algorithm selection for the whole collective family (the paper's §5
/// dynamic selection, applied to alltoall and to the allgather ([1]),
/// allreduce ([3]) and alltoallv extensions).
///
/// Each kind has a closed-form critical-path estimate per (algorithm, group
/// size) candidate, computed from the same model::NetParams the simulator
/// charges: predict_alltoall_seconds (core/tuner.hpp) and the
/// predict_*_seconds below. One ranking, rank_candidates, enumerates the
/// candidates of a descriptor's kind and sorts them by predicted time;
/// select_algorithm takes its head, and the measurement-driven
/// autotune::OnlineSelector explores its pruned front. One key,
/// size_class, files a descriptor's decisions in plan::TuningTable and its
/// measurements in autotune::ExecutionProfiler. This is what lets
/// plan::make_plan resolve `algo = nullopt` family-wide.
///
/// The alltoallv selection is *skew-aware*: its input is an AlltoallvSkew
/// signature (total bytes + max/mean imbalance factor) rather than a block
/// size. Pairwise exchange synchronizes on the heaviest transfer of every
/// step, so its estimate scales with the imbalance; the locality
/// algorithms aggregate many (src, dst) pairs per message, which averages
/// the skew away — at high imbalance the leader funnels win even after
/// paying for their count-metadata exchange. See docs/tuning.md.

#include <cstddef>
#include <limits>
#include <vector>

#include "coll_ext/op_desc.hpp"
#include "core/tuner.hpp"
#include "model/params.hpp"
#include "topo/machine.hpp"

namespace mca2a::coll {

/// Closed-form time estimate for one allgather variant; `block` is the
/// per-rank contribution in bytes, `group_size` the locality group width
/// (ignored by the flat variants).
double predict_allgather_seconds(AllgatherAlgo algo,
                                 const topo::Machine& machine,
                                 const model::NetParams& net,
                                 std::size_t block, int group_size);

/// Closed-form time estimate for one allreduce variant; `bytes` is the
/// whole vector (count * elem_size).
double predict_allreduce_seconds(AllreduceAlgo algo,
                                 const topo::Machine& machine,
                                 const model::NetParams& net, std::size_t bytes,
                                 int group_size);

/// Closed-form time estimate for one alltoallv variant under `skew`.
/// `group_size` is the leader-group width (ignored by the direct
/// variants). The estimate covers the count-metadata exchange too.
double predict_alltoallv_seconds(AlltoallvAlgo algo,
                                 const topo::Machine& machine,
                                 const model::NetParams& net,
                                 const AlltoallvSkew& skew, int group_size);

/// Quantized size class a skew signature falls into — the key alltoallv
/// decisions and measurements are filed under (one decision per class, and
/// coarse enough that ranks estimating the signature locally still land in
/// the same class): bits [8..) hold ceil(log2(total_bytes + 1)), bits
/// [0..8) the imbalance bucket round(4 * log2(max/mean)).
std::size_t alltoallv_size_class(const topo::Machine& machine,
                                 const AlltoallvSkew& skew);

/// The key a descriptor's decisions (plan::TuningTable) and measurements
/// (autotune::ProfileKey, the OnlineSelector's candidate sets) are filed
/// under: the block size for alltoall and allgather, the vector's bytes
/// for allreduce, alltoallv_size_class for alltoallv. An alltoallv
/// descriptor without a skew signature is estimated from its count
/// vectors (estimate_alltoallv_skew, O(p)); the other kinds are O(1).
std::size_t size_class(const OpDesc& desc, const topo::Machine& machine);

/// Every (algorithm, group size) candidate for `desc`'s kind, sorted by
/// predicted time ascending (stable: ties keep enumeration order), then
/// pruned to those within `plausible_factor` of the best prediction, at
/// most `max_candidates` of them. Group widths come from {4, 8, 16, ppn}
/// filtered to divisors of ppn, each width once. Allreduce considers
/// Rabenseifner only when count >= total ranks (its algorithmic
/// requirement); alltoallv reads the descriptor's skew signature, or
/// estimates one (see size_class). The descriptor's own `algo` is ignored.
std::vector<Choice> rank_candidates(
    const topo::Machine& machine, const model::NetParams& net,
    const OpDesc& desc,
    double plausible_factor = std::numeric_limits<double>::infinity(),
    std::size_t max_candidates = std::numeric_limits<std::size_t>::max());

/// The fastest candidate for `desc`: the head of rank_candidates (the
/// first-enumerated one on a tie).
Choice select_algorithm(const topo::Machine& machine,
                        const model::NetParams& net, const OpDesc& desc);

}  // namespace mca2a::coll
