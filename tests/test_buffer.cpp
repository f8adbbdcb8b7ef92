/// Unit tests for Buffer and views: real vs virtual behaviour, sub-views,
/// bounds checking, copy semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "runtime/buffer.hpp"

namespace mca2a::rt {
namespace {

TEST(Buffer, RealIsZeroInitialized) {
  Buffer b = Buffer::real(16);
  EXPECT_EQ(b.size(), 16u);
  EXPECT_FALSE(b.is_virtual());
  ASSERT_NE(b.data(), nullptr);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(b.data()[i], std::byte{0});
  }
}

TEST(Buffer, VirtualHasNoStorage) {
  Buffer b = Buffer::virt(1 << 30);  // 1 GiB costs nothing
  EXPECT_EQ(b.size(), std::size_t{1} << 30);
  EXPECT_TRUE(b.is_virtual());
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_TRUE(b.view().is_virtual());
}

TEST(Buffer, EmptyBuffer) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(b.view().is_virtual());  // zero-length is not "virtual"
}

TEST(Buffer, SubViewOffsets) {
  Buffer b = Buffer::real(32);
  b.data()[10] = std::byte{7};
  ConstView v = std::as_const(b).view(10, 4);
  EXPECT_EQ(v.len, 4u);
  EXPECT_EQ(v.ptr[0], std::byte{7});
}

TEST(Buffer, ViewOutOfRangeThrows) {
  Buffer b = Buffer::real(8);
  EXPECT_THROW(b.view(4, 8), std::out_of_range);
  EXPECT_THROW(b.view(9, 0), std::out_of_range);
  // off + n wraps to 1: still out of range, for both overloads.
  EXPECT_THROW(b.view(SIZE_MAX, 2), std::out_of_range);
  EXPECT_THROW(std::as_const(b).view(SIZE_MAX, 2), std::out_of_range);
  EXPECT_NO_THROW(b.view(8, 0));
}

TEST(Buffer, SubOfViewOutOfRangeThrows) {
  Buffer b = Buffer::real(8);
  MutView v = b.view();
  EXPECT_THROW(v.sub(6, 4), std::out_of_range);
  EXPECT_NO_THROW(v.sub(6, 2));
  // off + n wraps to 1: a view starting one byte before the buffer.
  EXPECT_THROW(v.sub(SIZE_MAX, 2), std::out_of_range);
  EXPECT_THROW(ConstView(v).sub(SIZE_MAX, 2), std::out_of_range);
}

TEST(Buffer, VirtualSubViewStaysVirtual) {
  Buffer b = Buffer::virt(100);
  EXPECT_TRUE(b.view(10, 20).is_virtual());
}

TEST(Buffer, TypedAccess) {
  Buffer b = Buffer::real(4 * sizeof(int));
  auto ints = b.typed<int>();
  ASSERT_EQ(ints.size(), 4u);
  ints[2] = 99;
  EXPECT_EQ(b.typed<int>()[2], 99);
}

TEST(Buffer, TypedAccessOnVirtualThrows) {
  Buffer b = Buffer::virt(64);
  EXPECT_THROW(b.typed<int>(), std::logic_error);
}

TEST(CopyBytes, RealToReal) {
  Buffer a = Buffer::real(8);
  Buffer b = Buffer::real(8);
  for (int i = 0; i < 8; ++i) {
    a.data()[i] = static_cast<std::byte>(i);
  }
  EXPECT_EQ(copy_bytes(b.view(), a.view()), 8u);
  EXPECT_EQ(b.data()[5], std::byte{5});
}

TEST(CopyBytes, LengthMismatchThrows) {
  Buffer a = Buffer::real(8);
  Buffer b = Buffer::real(4);
  EXPECT_THROW(copy_bytes(b.view(), a.view()), std::invalid_argument);
}

TEST(CopyBytes, VirtualEndpointsAreNoOps) {
  Buffer real = Buffer::real(8);
  Buffer virt = Buffer::virt(8);
  EXPECT_EQ(copy_bytes(virt.view(), real.view()), 8u);
  EXPECT_EQ(copy_bytes(real.view(), virt.view()), 8u);  // leaves real as-is
}

TEST(CopyBytes, OverlappingRangesUseMemmoveSemantics) {
  Buffer a = Buffer::real(8);
  for (int i = 0; i < 8; ++i) {
    a.data()[i] = static_cast<std::byte>(i);
  }
  copy_bytes(a.view(0, 4), std::as_const(a).view(2, 4));
  EXPECT_EQ(a.data()[0], std::byte{2});
  EXPECT_EQ(a.data()[3], std::byte{5});
}

}  // namespace
}  // namespace mca2a::rt
