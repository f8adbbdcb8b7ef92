#pragma once
/// \file wire.hpp
/// Wire framing for the real-network backend (TCP and AF_UNIX streams).
///
/// Every byte on a data connection is a sequence of fixed-size frame
/// headers, each optionally followed by `bytes` of payload. Frames carry
/// the library's existing tag-stream tags (runtime/tags.hpp) plus a
/// communicator key, so concurrent collectives and overlapping
/// sub-communicators keep their never-cross-match guarantee over a real
/// wire exactly as they do in-process.
///
/// Protocol summary (docs/networking.md has the full walkthrough):
///  * kHello  — first frame on every connection; binds it to (peer, rail).
///  * kEager  — small message: header + payload, matched on arrival.
///  * kRts    — rendezvous request for a large message (no payload).
///  * kCts    — receiver's clear-to-send, echoing the sender's op token
///              and assigning a receiver token.
///  * kRtr    — receiver-ready offer: a receive posted before its message
///              arrived names the pair's next matching frame, its tag and
///              its capacity, so a body that fits streams to the offered
///              receiver token without waiting for a kCts.
///  * kData   — rendezvous body chunk: written straight into the user
///              buffer at `offset`; chunks of one message may arrive on
///              different rails in any order.
///  * kBye    — orderly shutdown marker; an EOF *without* a preceding Bye
///              means the peer died mid-run and pending operations error
///              out instead of hanging.
///  * kPing   — clock-calibration probe toward rank 0 (token = probe id);
///              served reactively whenever the reference rank progresses.
///  * kPong   — rank 0's reply: token echoed, token2 = rank-0 clock in
///              integer nanoseconds at service time (obs/clock_sync.hpp).
///
/// All integers are little-endian on the wire. The header is 48 bytes; a
/// magic nibble in the kind word catches stream desynchronization early.

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace mca2a::net {

enum class FrameKind : std::uint32_t {
  kHello = 1,
  kEager = 2,
  kRts = 3,
  kCts = 4,
  kData = 5,
  kBye = 6,
  kPing = 7,
  kPong = 8,
  kRtr = 9,
};

/// Magic prefix in the kind word (high 20 bits) so a desynchronized or
/// corrupted stream fails decode() instead of silently misrouting bytes.
inline constexpr std::uint32_t kFrameMagic = 0xA2A00000u;
inline constexpr std::uint32_t kKindMask = 0xFFFu;

/// Decoded frame header. Field meaning by kind:
///   kHello: src = sender's world rank, rail = rail index.
///   kEager: comm_key/src/tag identify the match; bytes of payload follow.
///   kRts:   as kEager but no payload; bytes = total message size,
///           token = sender-side op id.
///   kCts:   token = echoed sender op id, token2 = receiver-assigned token.
///   kRtr:   comm_key/tag of the posted receive, bytes = its capacity,
///           token = receiver token, token2 = sequence number of the
///           pair's matching frame (kEager, kRts) the offer is for.
///   kData:  token = receiver token, token2 = offset into the user buffer,
///           bytes of payload follow.
///   kBye:   no other fields.
///   kPing:  token = probe id.
///   kPong:  token = echoed probe id, token2 = serving rank's clock in ns.
struct FrameHeader {
  FrameKind kind = FrameKind::kBye;
  std::int32_t tag = 0;
  std::uint64_t comm_key = 0;
  std::int32_t src = 0;
  std::uint32_t rail = 0;
  std::uint64_t bytes = 0;
  std::uint64_t token = 0;
  std::uint64_t token2 = 0;
};

inline constexpr std::size_t kHeaderBytes = 48;

namespace detail {
inline void store32(std::byte* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}
inline void store64(std::byte* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}
inline std::uint32_t load32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}
inline std::uint64_t load64(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}
}  // namespace detail

/// Serialize `h` into exactly kHeaderBytes at `out`.
inline void encode(const FrameHeader& h, std::byte* out) noexcept {
  detail::store32(out + 0, kFrameMagic | static_cast<std::uint32_t>(h.kind));
  detail::store32(out + 4, static_cast<std::uint32_t>(h.tag));
  detail::store64(out + 8, h.comm_key);
  detail::store32(out + 16, static_cast<std::uint32_t>(h.src));
  detail::store32(out + 20, h.rail);
  detail::store64(out + 24, h.bytes);
  detail::store64(out + 32, h.token);
  detail::store64(out + 40, h.token2);
}

/// Parse kHeaderBytes at `in`. Throws std::runtime_error on a bad magic or
/// unknown kind — the stream is unrecoverable at that point.
inline FrameHeader decode(const std::byte* in) {
  const std::uint32_t kind_word = detail::load32(in + 0);
  if ((kind_word & ~kKindMask) != kFrameMagic) {
    throw std::runtime_error("net: bad frame magic (stream desynchronized)");
  }
  const std::uint32_t k = kind_word & kKindMask;
  if (k < static_cast<std::uint32_t>(FrameKind::kHello) ||
      k > static_cast<std::uint32_t>(FrameKind::kRtr)) {
    throw std::runtime_error("net: unknown frame kind");
  }
  FrameHeader h;
  h.kind = static_cast<FrameKind>(k);
  h.tag = static_cast<std::int32_t>(detail::load32(in + 4));
  h.comm_key = detail::load64(in + 8);
  h.src = static_cast<std::int32_t>(detail::load32(in + 16));
  h.rail = detail::load32(in + 20);
  h.bytes = detail::load64(in + 24);
  h.token = detail::load64(in + 32);
  h.token2 = detail::load64(in + 40);
  return h;
}

}  // namespace mca2a::net
