#pragma once
/// \file buffer.hpp
/// Byte buffers and views used by the runtime.
///
/// A Buffer is either *real* (owns memory, payload bytes are moved) or
/// *virtual* (size-only). Virtual buffers let the simulator model exchanges
/// at paper scale (32 nodes x 112 ranks x 4 KiB per pair would need ~52 GB
/// of real payload) while executing exactly the same algorithm code; all
/// copy helpers degrade to cost-accounting no-ops when a side is virtual.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>

namespace mca2a::rt {

/// True when [off, off + n) lies within [0, len). Never forms off + n,
/// which wraps for a huge offset.
constexpr bool in_bounds(std::size_t off, std::size_t n,
                         std::size_t len) noexcept {
  return n <= len && off <= len - n;
}

/// Non-owning read-only view of (possibly virtual) bytes. `ptr` is null for
/// virtual views; `len` is always meaningful.
struct ConstView {
  const std::byte* ptr = nullptr;
  std::size_t len = 0;

  bool is_virtual() const noexcept { return ptr == nullptr && len > 0; }

  /// Sub-view [off, off+n). Stays virtual if this view is virtual.
  ConstView sub(std::size_t off, std::size_t n) const {
    if (!in_bounds(off, n, len)) {
      throw std::out_of_range("ConstView::sub out of range");
    }
    return ConstView{ptr == nullptr ? nullptr : ptr + off, n};
  }
};

/// Non-owning mutable view of (possibly virtual) bytes.
struct MutView {
  std::byte* ptr = nullptr;
  std::size_t len = 0;

  bool is_virtual() const noexcept { return ptr == nullptr && len > 0; }

  operator ConstView() const noexcept { return ConstView{ptr, len}; }

  MutView sub(std::size_t off, std::size_t n) const {
    if (!in_bounds(off, n, len)) {
      throw std::out_of_range("MutView::sub out of range");
    }
    return MutView{ptr == nullptr ? nullptr : ptr + off, n};
  }
};

/// Owning buffer; real (allocated) or virtual (size-only).
class Buffer {
 public:
  Buffer() = default;

  /// Allocate `bytes` of zero-initialized real memory.
  static Buffer real(std::size_t bytes);
  /// Allocate `bytes` of real memory with UNSPECIFIED contents: no memset,
  /// so no page is touched at allocation time. For scratch whose consumers
  /// overwrite everything they read (rt::ScratchArena's contract) — the
  /// allocating thread's later first write, not this call, faults each page
  /// in, which is what places pages correctly under NUMA first-touch.
  static Buffer real_uninit(std::size_t bytes);
  /// Create a virtual buffer of `bytes` (no allocation).
  static Buffer virt(std::size_t bytes);

  std::size_t size() const noexcept { return size_; }
  bool is_virtual() const noexcept { return virtual_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Raw data pointer; null when virtual.
  std::byte* data() noexcept { return mem_.get(); }
  const std::byte* data() const noexcept { return mem_.get(); }

  /// Whole-buffer views.
  MutView view() noexcept { return MutView{mem_.get(), size_}; }
  ConstView view() const noexcept { return ConstView{mem_.get(), size_}; }

  /// Sub-views [off, off+n).
  MutView view(std::size_t off, std::size_t n);
  ConstView view(std::size_t off, std::size_t n) const;

  /// Typed access to real buffers; throws std::logic_error when virtual.
  template <typename T>
  std::span<T> typed() {
    require_real();
    return std::span<T>(reinterpret_cast<T*>(mem_.get()), size_ / sizeof(T));
  }
  template <typename T>
  std::span<const T> typed() const {
    require_real();
    return std::span<const T>(reinterpret_cast<const T*>(mem_.get()),
                              size_ / sizeof(T));
  }

 private:
  void require_real() const {
    if (virtual_ && size_ > 0) {
      throw std::logic_error("typed access to a virtual buffer");
    }
  }

  std::unique_ptr<std::byte[]> mem_;
  std::size_t size_ = 0;
  bool virtual_ = false;
};

/// Copy src into dst (lengths must match). Performs a memcpy only when both
/// views are real; virtual views make this a size-checked no-op. Returns the
/// number of (possibly virtual) bytes "moved" so callers can charge packing
/// cost to the performance model.
std::size_t copy_bytes(MutView dst, ConstView src);

/// View over a trivially-copyable object (for tests and examples).
template <typename T>
ConstView const_view_of(const T& v) {
  return ConstView{reinterpret_cast<const std::byte*>(&v), sizeof(T)};
}
template <typename T>
MutView mut_view_of(T& v) {
  return MutView{reinterpret_cast<std::byte*>(&v), sizeof(T)};
}

}  // namespace mca2a::rt
