#pragma once
/// \file collectives.hpp
/// Collective building blocks implemented over point-to-point operations,
/// mirroring the classic MPICH algorithms. The paper's hierarchical
/// all-to-all variants (Algorithms 3 and 5) call these for their intra-node
/// gather/scatter phases.
///
/// All operations use equal-sized blocks expressed in bytes. Tags come from
/// the runtime/tags.hpp registry: each operation owns one offset, and the
/// `tag_stream` parameter (default stream 0) shifts the whole set so
/// *concurrent* collectives on one communicator cannot cross-match.
/// Consecutive collectives on the same communicator are safe even within
/// one stream because matching is FIFO and delivery is non-overtaking per
/// rank pair.

#include "runtime/comm.hpp"
#include "runtime/task.hpp"

namespace mca2a::rt {

class ScratchArena;

/// Dissemination barrier: ceil(log2 n) rounds of zero-byte exchanges.
Task<void> barrier(Comm& comm, int tag_stream = 0);

/// Binomial-tree broadcast of `buf` from `root`.
Task<void> bcast(Comm& comm, MutView buf, int root, int tag_stream = 0);

/// Gather equal blocks to `root`. `send` is this rank's block; `recv` must
/// hold size() * send.len bytes at the root (ignored elsewhere).
/// The `_linear` variant receives every block directly at the root (large
/// messages); `_binomial` combines up a tree (small messages); `gather`
/// selects automatically like a production MPI would. `scratch`, when
/// given, recycles the binomial tree's staging buffer across calls
/// (runtime/scratch.hpp; persistent plans pass their arena through here).
Task<void> gather(Comm& comm, ConstView send, MutView recv, int root,
                  ScratchArena* scratch = nullptr, int tag_stream = 0);
Task<void> gather_linear(Comm& comm, ConstView send, MutView recv, int root,
                         int tag_stream = 0);
Task<void> gather_binomial(Comm& comm, ConstView send, MutView recv, int root,
                           ScratchArena* scratch = nullptr, int tag_stream = 0);

/// Scatter equal blocks from `root`. `send` must hold size() * recv.len
/// bytes at the root (ignored elsewhere); `recv` is this rank's block.
/// `scratch` as for gather.
Task<void> scatter(Comm& comm, ConstView send, MutView recv, int root,
                   ScratchArena* scratch = nullptr, int tag_stream = 0);
Task<void> scatter_linear(Comm& comm, ConstView send, MutView recv, int root,
                          int tag_stream = 0);
Task<void> scatter_binomial(Comm& comm, ConstView send, MutView recv, int root,
                            ScratchArena* scratch = nullptr,
                            int tag_stream = 0);

/// Ring allgather: every rank contributes `send`; `recv` (size() * send.len
/// bytes) ends up identical everywhere, ordered by rank.
Task<void> allgather(Comm& comm, ConstView send, MutView recv,
                     int tag_stream = 0);

}  // namespace mca2a::rt
