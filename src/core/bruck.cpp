/// \file bruck.cpp
/// The Bruck all-to-all [Bruck et al., TPDS 1997]: ceil(log2 p) steps, each
/// moving every block whose index has the step bit set. Latency-optimal
/// (log p messages) at the cost of each byte traveling ~log p / 2 hops,
/// which is why it wins only for small blocks.
///
/// Structure follows the MPICH implementation:
///   phase 1: local rotation   tmp[i] = send[(rank + i) mod p]
///   phase 2: for pof2 = 1,2,4,...: pack blocks with (i & pof2), send to
///            rank + pof2, receive from rank - pof2 into the same slots
///   phase 3: inverse rotation  recv[(rank - i) mod p] = tmp[i]

#include <algorithm>
#include <stdexcept>

#include "core/alltoall.hpp"
#include "runtime/scratch.hpp"

namespace mca2a::coll {

rt::Task<void> alltoall_bruck(rt::Comm& comm, rt::ConstView send,
                              rt::MutView recv, std::size_t block,
                              rt::ScratchArena* scratch, int tag_stream) {
  const int kTag = rt::tags::make(rt::tags::kAlltoallBruck, tag_stream);
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t psz = static_cast<std::size_t>(p) * block;
  if (send.len < psz || recv.len < psz) {
    throw std::out_of_range("alltoall_bruck: buffer smaller than p * block");
  }

  // Every copy touches tmp, so virtual scratch means nothing to move; the
  // per-block costs are still charged one block at a time.
  rt::ScratchBuffer tmp = rt::alloc_scratch(comm, scratch, psz);
  const bool real = tmp.data() != nullptr;
  // Phase 1: rotate so block i holds data destined for rank (me + i) mod p.
  if (real) {
    for (int i = 0; i < p; ++i) {
      rt::copy_bytes(tmp.view(i * block, block),
                     send.sub(((me + i) % p) * block, block));
    }
  }
  comm.charge_copies(block, static_cast<std::size_t>(p));

  // Phase 2: exchange the blocks whose index has the current bit set. The
  // selected indices are enumerated on the fly (i in [pof2, p) with the
  // pof2 bit set) so this phase allocates nothing in a warm persistent plan.
  const std::size_t half = (static_cast<std::size_t>(p) / 2 + 1) * block;
  rt::ScratchBuffer pack = rt::alloc_scratch(comm, scratch, half);
  rt::ScratchBuffer unpack = rt::alloc_scratch(comm, scratch, half);
  for (int pof2 = 1; pof2 < p; pof2 <<= 1) {
    const int dst = (me + pof2) % p;
    const int src = (me - pof2 + p) % p;
    // Indices in [0, p) with the pof2 bit set: pof2 per full 2*pof2 period
    // plus the part of the last period past its first half.
    const auto k = static_cast<std::size_t>(
        p / (2 * pof2) * pof2 + std::max(0, p % (2 * pof2) - pof2));
    if (real) {
      std::size_t j = 0;
      for (int i = pof2; i < p; ++i) {
        if (i & pof2) {
          rt::copy_bytes(pack.view(j * block, block),
                         rt::ConstView(tmp.view(i * block, block)));
          ++j;
        }
      }
    }
    comm.charge_copies(block, k);
    const std::size_t bytes = k * block;
    co_await comm.sendrecv(pack.view(0, bytes), dst, kTag,
                           unpack.view(0, bytes), src, kTag);
    if (real) {
      std::size_t j = 0;
      for (int i = pof2; i < p; ++i) {
        if (i & pof2) {
          rt::copy_bytes(tmp.view(i * block, block),
                         rt::ConstView(unpack.view(j * block, block)));
          ++j;
        }
      }
    }
    comm.charge_copies(block, k);
  }

  // Phase 3: block i now holds the data originating at rank (me - i) mod p.
  if (real) {
    for (int i = 0; i < p; ++i) {
      rt::copy_bytes(recv.sub(((me - i + p) % p) * block, block),
                     rt::ConstView(tmp.view(i * block, block)));
    }
  }
  comm.charge_copies(block, static_cast<std::size_t>(p));
}

}  // namespace mca2a::coll
