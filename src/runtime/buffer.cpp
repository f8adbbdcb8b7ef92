#include "runtime/buffer.hpp"

namespace mca2a::rt {

Buffer Buffer::real(std::size_t bytes) {
  Buffer b;
  b.size_ = bytes;
  b.virtual_ = false;
  if (bytes > 0) {
    b.mem_ = std::make_unique<std::byte[]>(bytes);  // value-initialized
  }
  return b;
}

Buffer Buffer::real_uninit(std::size_t bytes) {
  Buffer b;
  b.size_ = bytes;
  b.virtual_ = false;
  if (bytes > 0) {
    b.mem_ = std::unique_ptr<std::byte[]>(new std::byte[bytes]);  // no memset
  }
  return b;
}

Buffer Buffer::virt(std::size_t bytes) {
  Buffer b;
  b.size_ = bytes;
  b.virtual_ = true;
  return b;
}

MutView Buffer::view(std::size_t off, std::size_t n) {
  if (!in_bounds(off, n, size_)) {
    throw std::out_of_range("Buffer::view out of range");
  }
  return MutView{mem_ == nullptr ? nullptr : mem_.get() + off, n};
}

ConstView Buffer::view(std::size_t off, std::size_t n) const {
  if (!in_bounds(off, n, size_)) {
    throw std::out_of_range("Buffer::view out of range");
  }
  return ConstView{mem_ == nullptr ? nullptr : mem_.get() + off, n};
}

std::size_t copy_bytes(MutView dst, ConstView src) {
  if (dst.len != src.len) {
    throw std::invalid_argument("copy_bytes: length mismatch");
  }
  if (dst.ptr != nullptr && src.ptr != nullptr && dst.len > 0) {
    std::memmove(dst.ptr, src.ptr, dst.len);
  }
  return dst.len;
}

}  // namespace mca2a::rt
