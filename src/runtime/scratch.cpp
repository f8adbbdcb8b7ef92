#include "runtime/scratch.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace mca2a::rt {

Buffer ScratchArena::take(const Comm& comm, std::size_t bytes) {
  // Newest first: the most recently returned buffer is the warmest.
  auto it = std::find_if(free_.rbegin(), free_.rend(), [bytes](const Buffer& b) {
    return b.size() == bytes;
  });
  if (it != free_.rend()) {
    Buffer b = std::move(*it);
    if (it != free_.rbegin()) {
      *it = std::move(free_.back());
    }
    free_.pop_back();
    pooled_bytes_ -= bytes;
    outstanding_bytes_ += bytes;
    ++reuses_;
    static obs::Counter& g_reuses = obs::metrics().counter("scratch.reuses");
    g_reuses.add();
    return b;
  }
  ++allocations_;
  outstanding_bytes_ += bytes;
  if (outstanding_bytes_ + pooled_bytes_ > high_water_bytes_) {
    high_water_bytes_ = outstanding_bytes_ + pooled_bytes_;
  }
  static obs::Counter& g_allocs = obs::metrics().counter("scratch.allocations");
  static obs::Counter& g_bytes =
      obs::metrics().counter("scratch.allocated_bytes");
  static obs::Gauge& g_high =
      obs::metrics().gauge("scratch.high_water_bytes");
  g_allocs.add();
  g_bytes.add(bytes);
  g_high.update_max(static_cast<std::int64_t>(high_water_bytes_));
  // Fresh scratch may come back uninitialized (the backend's choice);
  // recycled pool buffers above are already dirty, so contents being
  // unspecified is uniform across both paths.
  return comm.alloc_scratch_buffer(bytes);
}

void ScratchArena::give_back(Buffer b) {
  const std::size_t bytes = b.size();
  if (bytes == 0) {
    return;
  }
  // Clamped: a buffer adopted from outside (moved-in handles) may not have
  // been counted out by this arena's take().
  outstanding_bytes_ -= std::min(bytes, outstanding_bytes_);
  free_.push_back(std::move(b));
  pooled_bytes_ += bytes;
}

void ScratchArena::clear() {
  free_.clear();
  pooled_bytes_ = 0;
}

}  // namespace mca2a::rt
