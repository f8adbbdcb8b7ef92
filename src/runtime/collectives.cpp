#include "runtime/collectives.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "runtime/scratch.hpp"

namespace mca2a::rt {

namespace {

/// Total gathered bytes below which the tree algorithms win.
constexpr std::size_t kTreeThresholdBytes = 64 * 1024;

int relative_rank(int rank, int root, int n) { return (rank - root + n) % n; }
int absolute_rank(int vrank, int root, int n) { return (vrank + root) % n; }

}  // namespace

Task<void> barrier(Comm& comm, int tag_stream) {
  const int n = comm.size();
  const int me = comm.rank();
  const int tag = tags::make(tags::kBarrier, tag_stream);
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (me + k) % n;
    const int src = (me - k % n + n) % n;
    co_await comm.sendrecv(ConstView{}, dst, tag, MutView{}, src, tag);
  }
}

Task<void> bcast(Comm& comm, MutView buf, int root, int tag_stream) {
  const int tag = tags::make(tags::kBcast, tag_stream);
  const int n = comm.size();
  const int me = comm.rank();
  if (root < 0 || root >= n) {
    throw std::out_of_range("bcast: root out of range");
  }
  const int vr = relative_rank(me, root, n);
  // Receive from the parent (the rank that clears our lowest set bit).
  int mask = 1;
  while (mask < n) {
    if (vr & mask) {
      const int parent = absolute_rank(vr - mask, root, n);
      co_await comm.recv(buf, parent, tag);
      break;
    }
    mask <<= 1;
  }
  // Forward to children with decreasing mask.
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < n) {
      const int child = absolute_rank(vr + mask, root, n);
      co_await comm.send(buf, child, tag);
    }
    mask >>= 1;
  }
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

Task<void> gather_linear(Comm& comm, ConstView send, MutView recv, int root,
                         int tag_stream) {
  const int tag = tags::make(tags::kGather, tag_stream);
  const int n = comm.size();
  const int me = comm.rank();
  if (root < 0 || root >= n) {
    throw std::out_of_range("gather: root out of range");
  }
  const std::size_t block = send.len;
  if (me != root) {
    co_await comm.send(send, root, tag);
    co_return;
  }
  if (recv.len < block * static_cast<std::size_t>(n)) {
    throw std::invalid_argument("gather: receive buffer too small at root");
  }
  std::vector<Request> reqs;
  reqs.reserve(n - 1);
  for (int r = 0; r < n; ++r) {
    if (r == root) {
      comm.copy_and_charge(recv.sub(r * block, block), send);
    } else {
      reqs.push_back(comm.irecv(recv.sub(r * block, block), r, tag));
    }
  }
  co_await comm.wait_all(reqs);
}

Task<void> gather_binomial(Comm& comm, ConstView send, MutView recv, int root,
                           ScratchArena* scratch, int tag_stream) {
  const int tag = tags::make(tags::kGather, tag_stream);
  const int n = comm.size();
  const int me = comm.rank();
  if (root < 0 || root >= n) {
    throw std::out_of_range("gather: root out of range");
  }
  const std::size_t block = send.len;
  const int vr = relative_rank(me, root, n);

  // Pre-compute how many blocks this rank accumulates (its subtree span).
  int span = 1;
  {
    int mask = 1;
    while (mask < n && !(vr & mask)) {
      if (vr + mask < n) {
        span += std::min(mask, n - (vr + mask));
      }
      mask <<= 1;
    }
  }
  ScratchBuffer tmp =
      alloc_scratch(comm, scratch, static_cast<std::size_t>(span) * block);
  comm.copy_and_charge(tmp.view(0, block), send);

  int mask = 1;
  int have = 1;
  while (mask < n) {
    if (vr & mask) {
      // Ship the accumulated subtree [vr, vr+have) to the parent and stop.
      const int parent = absolute_rank(vr - mask, root, n);
      co_await comm.send(tmp.view(0, have * block), parent, tag);
      co_return;
    }
    const int child = vr + mask;
    if (child < n) {
      const int child_cnt = std::min(mask, n - child);
      co_await comm.recv(
          tmp.view(static_cast<std::size_t>(child - vr) * block,
                   static_cast<std::size_t>(child_cnt) * block),
          absolute_rank(child, root, n), tag);
      have += child_cnt;
    }
    mask <<= 1;
  }
  // Root: tmp holds all blocks in relative order; rotate into rank order.
  if (recv.len < block * static_cast<std::size_t>(n)) {
    throw std::invalid_argument("gather: receive buffer too small at root");
  }
  for (int i = 0; i < n; ++i) {
    const int abs = absolute_rank(i, root, n);
    comm.copy_and_charge(recv.sub(abs * block, block),
                         ConstView(tmp.view(i * block, block)));
  }
}

Task<void> gather(Comm& comm, ConstView send, MutView recv, int root,
                  ScratchArena* scratch, int tag_stream) {
  const std::size_t total = send.len * static_cast<std::size_t>(comm.size());
  if (total <= kTreeThresholdBytes) {
    co_await gather_binomial(comm, send, recv, root, scratch, tag_stream);
  } else {
    co_await gather_linear(comm, send, recv, root, tag_stream);
  }
}

// ---------------------------------------------------------------------------
// Scatter
// ---------------------------------------------------------------------------

Task<void> scatter_linear(Comm& comm, ConstView send, MutView recv, int root,
                          int tag_stream) {
  const int tag = tags::make(tags::kScatter, tag_stream);
  const int n = comm.size();
  const int me = comm.rank();
  if (root < 0 || root >= n) {
    throw std::out_of_range("scatter: root out of range");
  }
  const std::size_t block = recv.len;
  if (me != root) {
    co_await comm.recv(recv, root, tag);
    co_return;
  }
  if (send.len < block * static_cast<std::size_t>(n)) {
    throw std::invalid_argument("scatter: send buffer too small at root");
  }
  std::vector<Request> reqs;
  reqs.reserve(n - 1);
  for (int r = 0; r < n; ++r) {
    if (r == root) {
      comm.copy_and_charge(recv, send.sub(r * block, block));
    } else {
      reqs.push_back(comm.isend(send.sub(r * block, block), r, tag));
    }
  }
  co_await comm.wait_all(reqs);
}

Task<void> scatter_binomial(Comm& comm, ConstView send, MutView recv, int root,
                            ScratchArena* scratch, int tag_stream) {
  const int tag = tags::make(tags::kScatter, tag_stream);
  const int n = comm.size();
  const int me = comm.rank();
  if (root < 0 || root >= n) {
    throw std::out_of_range("scatter: root out of range");
  }
  const std::size_t block = recv.len;
  const int vr = relative_rank(me, root, n);

  // The mask at which we receive determines our span [vr, vr + span).
  int mask = 1;
  while (mask < n && !(vr & mask)) {
    mask <<= 1;
  }
  const int span = std::min(mask, n - vr);
  ScratchBuffer tmp =
      alloc_scratch(comm, scratch, static_cast<std::size_t>(span) * block);

  if (vr == 0) {
    if (send.len < block * static_cast<std::size_t>(n)) {
      throw std::invalid_argument("scatter: send buffer too small at root");
    }
    // Rotate rank order into relative order.
    for (int i = 0; i < n; ++i) {
      const int abs = absolute_rank(i, root, n);
      comm.copy_and_charge(tmp.view(i * block, block),
                           send.sub(abs * block, block));
    }
  } else {
    const int parent = absolute_rank(vr - mask, root, n);
    co_await comm.recv(tmp.view(0, static_cast<std::size_t>(span) * block),
                       parent, tag);
  }

  for (int child_mask = mask >> 1; child_mask > 0; child_mask >>= 1) {
    const int child = vr + child_mask;
    if (child < n) {
      const int child_cnt = std::min(child_mask, n - child);
      co_await comm.send(
          tmp.view(static_cast<std::size_t>(child - vr) * block,
                   static_cast<std::size_t>(child_cnt) * block),
          absolute_rank(child, root, n), tag);
    }
  }
  comm.copy_and_charge(recv, ConstView(tmp.view(0, block)));
}

Task<void> scatter(Comm& comm, ConstView send, MutView recv, int root,
                   ScratchArena* scratch, int tag_stream) {
  const std::size_t total = recv.len * static_cast<std::size_t>(comm.size());
  if (total <= kTreeThresholdBytes) {
    co_await scatter_binomial(comm, send, recv, root, scratch, tag_stream);
  } else {
    co_await scatter_linear(comm, send, recv, root, tag_stream);
  }
}

// ---------------------------------------------------------------------------
// Allgather / split
// ---------------------------------------------------------------------------

Task<void> allgather(Comm& comm, ConstView send, MutView recv,
                     int tag_stream) {
  const int tag = tags::make(tags::kAllgather, tag_stream);
  const int n = comm.size();
  const int me = comm.rank();
  const std::size_t block = send.len;
  if (recv.len < block * static_cast<std::size_t>(n)) {
    throw std::invalid_argument("allgather: receive buffer too small");
  }
  comm.copy_and_charge(recv.sub(me * block, block), send);
  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  // Ring: at step s forward the block that originated s hops to the left.
  for (int s = 0; s < n - 1; ++s) {
    const int send_idx = (me - s + n) % n;
    const int recv_idx = (me - s - 1 + n) % n;
    co_await comm.sendrecv(ConstView(recv.sub(send_idx * block, block)), right,
                           tag, recv.sub(recv_idx * block, block),
                           left, tag);
  }
}

}  // namespace mca2a::rt
