/// \file system_mpi.cpp
/// Surrogate for the proprietary "System MPI" baseline of the paper's
/// figures. Both Intel MPI and Cray MPICH keep their all-to-all selection
/// logic closed; the paper observes the small-message behaviour is "likely
/// the Bruck algorithm". The surrogate follows the standard MPICH-style
/// decision: Bruck below a per-block threshold, pairwise exchange above it.
/// The vendor's advantage over portable implementations is modelled by the
/// simulator's per-communicator CPU cost scale (model::NetParams::
/// vendor_factor), which the benchmark harness applies to the communicator
/// the surrogate runs on.

#include "core/alltoall.hpp"

namespace mca2a::coll {

rt::Task<void> alltoall_system_mpi(rt::Comm& comm, rt::ConstView send,
                                   rt::MutView recv, std::size_t block,
                                   const Options& opts) {
  if (block <= kSystemSmallThreshold) {
    co_await alltoall_bruck(comm, send, recv, block, opts.scratch,
                            opts.tag_stream);
  } else {
    co_await alltoall_pairwise(comm, send, recv, block, opts.tag_stream);
  }
}

}  // namespace mca2a::coll
