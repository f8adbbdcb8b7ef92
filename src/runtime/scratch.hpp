#pragma once
/// \file scratch.hpp
/// Reusable scratch-buffer arena for persistent collectives.
///
/// Every locality algorithm allocates the same sequence of temporary buffer
/// sizes on every call. A ScratchArena keeps those buffers alive between
/// calls so a persistent plan (plan/plan.hpp) pays the allocation cost once:
/// the first execute() populates the arena, subsequent executes recycle.
///
/// Ownership protocol: alloc_scratch() hands out a ScratchBuffer, an RAII
/// handle that returns its Buffer to the arena when destroyed (or frees it
/// normally when no arena was given). Reuse matches on exact byte size, which
/// is always the case for a plan executing a fixed (algorithm, block size)
/// pair. Recycled buffers keep their previous contents; the algorithms fully
/// overwrite every region they later read, so this is invisible to them.
///
/// An arena belongs to one rank (like the Comm whose alloc_buffer it wraps)
/// and is not thread-safe.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/buffer.hpp"
#include "runtime/comm.hpp"

namespace mca2a::rt {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(ScratchArena&&) = default;
  ScratchArena& operator=(ScratchArena&&) = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Pop a pooled buffer of exactly `bytes` bytes, or allocate a fresh one
  /// through `comm` (real on the threads backend, possibly virtual on the
  /// simulator).
  Buffer take(const Comm& comm, std::size_t bytes);

  /// Return a buffer for later reuse. Zero-size buffers are dropped.
  void give_back(Buffer b);

  /// Buffers created through take() because no pooled one matched.
  std::uint64_t allocations() const noexcept { return allocations_; }
  /// Buffers served from the pool.
  std::uint64_t reuses() const noexcept { return reuses_; }
  /// Buffers currently resting in the pool.
  std::size_t pooled() const noexcept { return free_.size(); }
  /// Total bytes currently resting in the pool.
  std::size_t pooled_bytes() const noexcept { return pooled_bytes_; }
  /// Bytes handed out by take() and not yet returned.
  std::size_t outstanding_bytes() const noexcept { return outstanding_bytes_; }
  /// Peak of outstanding + pooled bytes — the arena's total footprint. Only
  /// a take() that misses the pool can raise it, so warm plan executes (all
  /// reuse) keep it flat; tests assert exactly that.
  std::size_t high_water_bytes() const noexcept { return high_water_bytes_; }

  /// Free every pooled buffer (counters are preserved).
  void clear();

 private:
  /// Pooled buffers, searched by exact size. A plan's pool holds only a
  /// handful, and a warm take()/give_back() pair moves a Buffer in and out
  /// of capacity the vector already has — no allocation either way.
  std::vector<Buffer> free_;
  std::uint64_t allocations_ = 0;
  std::uint64_t reuses_ = 0;
  std::size_t pooled_bytes_ = 0;
  std::size_t outstanding_bytes_ = 0;
  std::size_t high_water_bytes_ = 0;
};

/// RAII handle over an arena-backed scratch Buffer. Mirrors the slice of the
/// Buffer interface the algorithms use so call sites read identically.
class ScratchBuffer {
 public:
  ScratchBuffer() = default;
  ScratchBuffer(ScratchArena* arena, Buffer b) noexcept
      : arena_(arena), buf_(std::move(b)) {}
  ScratchBuffer(ScratchBuffer&& other) noexcept
      : arena_(other.arena_), buf_(std::move(other.buf_)) {
    other.arena_ = nullptr;
  }
  ScratchBuffer& operator=(ScratchBuffer&& other) noexcept {
    if (this != &other) {
      release();
      arena_ = other.arena_;
      buf_ = std::move(other.buf_);
      other.arena_ = nullptr;
    }
    return *this;
  }
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;
  ~ScratchBuffer() { release(); }

  std::size_t size() const noexcept { return buf_.size(); }
  std::byte* data() noexcept { return buf_.data(); }
  const std::byte* data() const noexcept { return buf_.data(); }
  MutView view() noexcept { return buf_.view(); }
  ConstView view() const noexcept { return buf_.view(); }
  MutView view(std::size_t off, std::size_t n) { return buf_.view(off, n); }
  ConstView view(std::size_t off, std::size_t n) const {
    return buf_.view(off, n);
  }

 private:
  void release() {
    if (arena_ != nullptr) {
      arena_->give_back(std::move(buf_));
      arena_ = nullptr;
    }
    buf_ = Buffer{};
  }

  ScratchArena* arena_ = nullptr;
  Buffer buf_;
};

/// Allocate `bytes` of scratch: recycled from `arena` when one is given,
/// freshly from `comm.alloc_buffer` otherwise.
inline ScratchBuffer alloc_scratch(const Comm& comm, ScratchArena* arena,
                                   std::size_t bytes) {
  if (arena != nullptr) {
    return ScratchBuffer(arena, arena->take(comm, bytes));
  }
  return ScratchBuffer(nullptr, comm.alloc_buffer(bytes));
}

}  // namespace mca2a::rt
