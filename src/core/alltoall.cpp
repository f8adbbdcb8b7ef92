#include "core/alltoall.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mca2a::coll {

namespace {

/// Metric-name tag per algorithm (lowercase, no spaces — algo_name() is the
/// human display string).
std::string_view algo_tag(Algo a) {
  switch (a) {
    case Algo::kSystemMpi:
      return "system_mpi";
    case Algo::kHierarchical:
      return "hierarchical";
    case Algo::kMultileader:
      return "multileader";
    case Algo::kNodeAware:
      return "node_aware";
    case Algo::kLocalityAware:
      return "locality_aware";
    case Algo::kMultileaderNodeAware:
      return "multileader_node_aware";
    case Algo::kPairwiseDirect:
      return "pairwise";
    case Algo::kNonblockingDirect:
      return "nonblocking";
    case Algo::kBruckDirect:
      return "bruck";
    case Algo::kBatchedDirect:
      return "batched";
    case Algo::kCount_:
      break;
  }
  return "unknown";
}

/// coll.bytes_by_algo.<tag> counters, resolved once per process so the
/// dispatch path pays a single relaxed add.
struct AlgoBytes {
  obs::Counter* bytes[static_cast<int>(Algo::kCount_)];
  AlgoBytes() {
    for (int a = 0; a < static_cast<int>(Algo::kCount_); ++a) {
      bytes[a] = &obs::metrics().counter(
          std::string("coll.bytes_by_algo.") +
          std::string(algo_tag(static_cast<Algo>(a))));
    }
  }
};

AlgoBytes& algo_bytes() {
  static AlgoBytes b;
  return b;
}

}  // namespace

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kGather:
      return "gather";
    case Phase::kScatter:
      return "scatter";
    case Phase::kInterA2A:
      return "inter-a2a";
    case Phase::kIntraA2A:
      return "intra-a2a";
    case Phase::kPack:
      return "pack";
    case Phase::kCount_:
      break;
  }
  return "?";
}

std::string_view algo_name(Algo a) {
  switch (a) {
    case Algo::kSystemMpi:
      return "System MPI";
    case Algo::kHierarchical:
      return "Hierarchical";
    case Algo::kMultileader:
      return "Multileader";
    case Algo::kNodeAware:
      return "Node-Aware";
    case Algo::kLocalityAware:
      return "Locality-Aware";
    case Algo::kMultileaderNodeAware:
      return "Multileader + Locality";
    case Algo::kPairwiseDirect:
      return "Pairwise";
    case Algo::kNonblockingDirect:
      return "Nonblocking";
    case Algo::kBruckDirect:
      return "Bruck";
    case Algo::kBatchedDirect:
      return "Batched";
    case Algo::kCount_:
      break;
  }
  return "?";
}

bool needs_locality(Algo a) {
  switch (a) {
    case Algo::kHierarchical:
    case Algo::kMultileader:
    case Algo::kNodeAware:
    case Algo::kLocalityAware:
    case Algo::kMultileaderNodeAware:
      return true;
    default:
      return false;
  }
}

bool needs_leader_comms(Algo a) {
  return a == Algo::kMultileaderNodeAware;
}

rt::Task<void> alltoall_inner(Inner inner, rt::Comm& comm, rt::ConstView send,
                              rt::MutView recv, std::size_t block,
                              rt::ScratchArena* scratch, int tag_stream) {
  switch (inner) {
    case Inner::kPairwise:
      co_await alltoall_pairwise(comm, send, recv, block, tag_stream);
      co_return;
    case Inner::kNonblocking:
      co_await alltoall_nonblocking(comm, send, recv, block, tag_stream);
      co_return;
    case Inner::kBruck:
      co_await alltoall_bruck(comm, send, recv, block, scratch, tag_stream);
      co_return;
  }
  throw std::invalid_argument("alltoall_inner: unknown inner exchange");
}

rt::Task<void> run_alltoall(Algo algo, rt::Comm& world,
                            const rt::LocalityComms* lc, rt::ConstView send,
                            rt::MutView recv, std::size_t block,
                            const Options& opts) {
  if (needs_locality(algo) && lc == nullptr) {
    throw std::invalid_argument(std::string(algo_name(algo)) +
                                " requires a LocalityComms bundle");
  }
  // This rank contributes p*block bytes to the exchange, whatever route the
  // algorithm takes them through.
  algo_bytes().bytes[static_cast<int>(algo)]->add(
      static_cast<std::uint64_t>(world.size()) * block);
  obs::Span dispatch_span(
      world.tracer(), algo_name(algo), "coll.alltoall", opts.tag_stream,
      {{"block", static_cast<std::int64_t>(block)},
       {"bytes", static_cast<std::int64_t>(
                     static_cast<std::size_t>(world.size()) * block)}});
  switch (algo) {
    case Algo::kSystemMpi:
      co_await alltoall_system_mpi(world, send, recv, block, opts);
      co_return;
    case Algo::kHierarchical:
    case Algo::kMultileader:
      co_await alltoall_hierarchical(*lc, send, recv, block, opts);
      co_return;
    case Algo::kNodeAware:
    case Algo::kLocalityAware:
      co_await alltoall_node_aware(*lc, send, recv, block, opts);
      co_return;
    case Algo::kMultileaderNodeAware:
      co_await alltoall_multileader_node_aware(*lc, send, recv, block, opts);
      co_return;
    case Algo::kPairwiseDirect:
      co_await alltoall_pairwise(world, send, recv, block, opts.tag_stream);
      co_return;
    case Algo::kNonblockingDirect:
      co_await alltoall_nonblocking(world, send, recv, block, opts.tag_stream);
      co_return;
    case Algo::kBruckDirect:
      co_await alltoall_bruck(world, send, recv, block, opts.scratch,
                              opts.tag_stream);
      co_return;
    case Algo::kBatchedDirect:
      co_await alltoall_batched(world, send, recv, block, kBatchWindow,
                                opts.tag_stream);
      co_return;
    case Algo::kCount_:
      break;
  }
  throw std::invalid_argument("run_alltoall: unknown algorithm");
}

}  // namespace mca2a::coll
