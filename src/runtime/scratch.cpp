#include "runtime/scratch.hpp"

#include <algorithm>
#include <string_view>

#include "obs/metrics.hpp"
#include "runtime/env.hpp"

namespace mca2a::rt {

namespace {

/// A2A_SMP_NUMA=first_touch: after an uninitialized scratch allocation,
/// write one byte per page from the allocating (rank) thread so the pages
/// fault in on its NUMA node, instead of wherever a zeroing memset (or a
/// later remote writer) happened to run. `none` (default) leaves placement
/// to the allocator.
bool first_touch_enabled() {
  static const bool on = [] {
    static constexpr std::string_view kModes[] = {"none", "first_touch"};
    return env::get_choice("A2A_SMP_NUMA", kModes, 0) == 1;
  }();
  return on;
}

constexpr std::size_t kPageBytes = 4096;

void first_touch(Buffer& b) {
  std::byte* p = b.data();
  if (p == nullptr) {
    return;
  }
  std::size_t pages = 0;
  for (std::size_t off = 0; off < b.size(); off += kPageBytes) {
    p[off] = std::byte{0};
    ++pages;
  }
  static obs::Counter& g_pages =
      obs::metrics().counter("scratch.first_touch_pages");
  g_pages.add(pages);
}

}  // namespace

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
  Buffer b = comm.alloc_scratch_buffer(bytes);
  if (first_touch_enabled()) {
    first_touch(b);
  }
  return b;
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
