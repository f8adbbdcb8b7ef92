#pragma once
/// \file alltoallv.hpp
/// Variable-count all-to-all (MPI_Alltoallv) — the irregular counterpart
/// the paper's related-work section discusses ([12], [7]) — including the
/// locality-aware family that extends the paper's Algorithms 3 and 5 to
/// vector exchanges (graph exchange, sparse FFT, MoE token shuffle).
///
/// Counts and displacements are in bytes; each rank may send a different
/// amount to every peer. recv_counts must match the peers' send_counts
/// (like MPI, this is the callers' collective contract; a mismatch surfaces
/// as truncation or deadlock).
///
/// Four algorithms:
///  * alltoallv_pairwise / alltoallv_nonblocking — direct exchanges, data
///    oblivious (they also run on virtual payloads in the simulator).
///  * alltoallv_hierarchical / alltoallv_multileader_node_aware — the
///    locality algorithms: members funnel their payload through group
///    leaders, leaders exchange aggregated per-region (or per-node) blocks,
///    then scatter back. Because the aggregated block sizes depend on the
///    data distribution, both begin with a *count-metadata exchange* (a
///    gather of member count vectors plus an inner regular alltoall of
///    per-peer byte counts among leaders) before any payload moves. That
///    metadata must genuinely travel, so these two require a data-carrying
///    transport — real buffers on either backend; virtual-payload
///    simulation throws std::invalid_argument.
///
/// All staging (counts and payload alike) recycles through
/// Options::scratch when set, so a persistent plan (plan/plan.hpp) executes
/// warm with zero arena allocations.

#include <span>
#include <vector>

#include "coll_ext/op_desc.hpp"
#include "core/alltoall.hpp"
#include "runtime/comm.hpp"
#include "runtime/comm_bundle.hpp"
#include "runtime/task.hpp"

namespace mca2a::coll {

/// Every alltoallv algorithm's entry check: std::invalid_argument unless
/// counts and displs have one entry per rank of `comm`, std::out_of_range
/// unless every block lies inside its buffer.
void check_alltoallv_args(const rt::Comm& comm, rt::ConstView send,
                          std::span<const std::size_t> send_counts,
                          std::span<const std::size_t> send_displs,
                          rt::MutView recv,
                          std::span<const std::size_t> recv_counts,
                          std::span<const std::size_t> recv_displs);

/// Contiguous displacements for `counts` (exclusive prefix sum).
std::vector<std::size_t> displs_from_counts(std::span<const std::size_t> counts);

/// True when `displs` are exactly the exclusive prefix sums of `counts`
/// (blocks packed contiguously in peer order — the layout CollectivePlan
/// uses and the locality algorithms forward without staging).
bool alltoallv_dense_layout(std::span<const std::size_t> counts,
                            std::span<const std::size_t> displs);

/// Pairwise-exchange alltoallv: p-1 synchronized sendrecv steps.
rt::Task<void> alltoallv_pairwise(rt::Comm& comm, rt::ConstView send,
                                  std::span<const std::size_t> send_counts,
                                  std::span<const std::size_t> send_displs,
                                  rt::MutView recv,
                                  std::span<const std::size_t> recv_counts,
                                  std::span<const std::size_t> recv_displs,
                                  int tag_stream = 0);

/// Fully nonblocking alltoallv: post everything, wait once.
rt::Task<void> alltoallv_nonblocking(rt::Comm& comm, rt::ConstView send,
                                     std::span<const std::size_t> send_counts,
                                     std::span<const std::size_t> send_displs,
                                     rt::MutView recv,
                                     std::span<const std::size_t> recv_counts,
                                     std::span<const std::size_t> recv_displs,
                                     int tag_stream = 0);

/// Dispatch the direct exchange used *inside* the locality algorithms for
/// their aggregated-payload phases (Inner::kBruck maps to nonblocking: a
/// Bruck rotation needs equal blocks).
rt::Task<void> alltoallv_inner(Inner inner, rt::Comm& comm, rt::ConstView send,
                               std::span<const std::size_t> send_counts,
                               std::span<const std::size_t> send_displs,
                               rt::MutView recv,
                               std::span<const std::size_t> recv_counts,
                               std::span<const std::size_t> recv_displs,
                               int tag_stream = 0);

// --- locality algorithms (vector Algorithms 3 and 5) -------------------------

/// Vector Algorithm 3: members send their counts then their (densely
/// packed) payload to the group leader; leaders exchange per-region count
/// matrices through an inner regular alltoall, then the aggregated
/// variable-size region blocks; leaders scatter per-member results back.
/// group_size == ppn is the classic single-leader hierarchical variant,
/// smaller groups the multi-leader one. Uses Options::inner for the leader
/// exchanges, Options::scratch for all staging, Options::trace for
/// per-phase timings (fed on leaders only, like the fixed-size algorithm;
/// both vector algorithms time their phases through coll::PhaseScope).
rt::Task<void> alltoallv_hierarchical(const rt::LocalityComms& lc,
                                      rt::ConstView send,
                                      std::span<const std::size_t> send_counts,
                                      std::span<const std::size_t> send_displs,
                                      rt::MutView recv,
                                      std::span<const std::size_t> recv_counts,
                                      std::span<const std::size_t> recv_displs,
                                      const Options& opts = {});

/// Vector Algorithm 5: gather to the node's G leaders, node-aware exchange
/// of per-destination-node aggregates among same-group leaders across nodes
/// (one message per node pair per leader), redistribution among a node's
/// leaders, scatter. Each payload phase is preceded by the matching count
/// exchange. Needs a bundle built with leader communicators.
rt::Task<void> alltoallv_multileader_node_aware(
    const rt::LocalityComms& lc, rt::ConstView send,
    std::span<const std::size_t> send_counts,
    std::span<const std::size_t> send_displs, rt::MutView recv,
    std::span<const std::size_t> recv_counts,
    std::span<const std::size_t> recv_displs, const Options& opts = {});

/// Run any AlltoallvAlgo with uniform arguments. `lc` may be null for the
/// direct algorithms and must be a bundle built over `world` when given
/// (the locality variants run on its sub-communicators, the direct ones
/// on `world` itself).
rt::Task<void> run_alltoallv(AlltoallvAlgo algo, rt::Comm& world,
                             const rt::LocalityComms* lc, rt::ConstView send,
                             std::span<const std::size_t> send_counts,
                             std::span<const std::size_t> send_displs,
                             rt::MutView recv,
                             std::span<const std::size_t> recv_counts,
                             std::span<const std::size_t> recv_displs,
                             const Options& opts = {});

}  // namespace mca2a::coll
