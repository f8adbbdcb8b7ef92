/// Tests for the real-network backend that run inside the ordinary gtest
/// binary — and therefore inside the ASan job — with no launcher: every
/// "rank" is a thread owning its own net::Endpoint, and the mesh between
/// them is real same-host sockets (bootstrap, epoll progress, wire
/// framing, rails — the full stack except process isolation, which
/// tests/net/net_grid.cpp covers under tools/a2arun). Real ranks connect
/// over AF_UNIX; the fake peers below speak TCP, which keeps the TCP
/// datapath under test.

#include <gtest/gtest.h>
#include <poll.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "coll_ext/allreduce.hpp"
#include "coll_ext/op_desc.hpp"
#include "net/bootstrap.hpp"
#include "net/net_comm.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "runtime/match.hpp"
#include "runtime/task.hpp"
#include "sim/sim_comm.hpp"
#include "test_util.hpp"

namespace mca2a {
namespace {

using rt::Buffer;
using rt::Comm;
using rt::Request;
using rt::Task;

/// Launch `n` thread-ranks over real loopback sockets and run `body` on
/// each rank's world communicator. Rethrows the first rank's exception
/// (by rank order) after all threads joined.
void run_net_threads(int n, const std::function<Task<void>(Comm&)>& body,
                     int rails = 2, std::size_t eager_max = 16 * 1024,
                     std::size_t stripe_min = 256 * 1024) {
  // Bind the rendezvous listener up front and hand it to rank 0, exactly
  // as the launchers do (NetOptions::rendezvous_fd): no pick-then-rebind
  // port race, even with many test jobs on one machine.
  auto [listener, port] = net::listen_tcp("127.0.0.1", 0, n + 8);
  const int rend_fd = listener.release();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        net::NetOptions opts;
        opts.rank = rank;
        opts.size = n;
        opts.rendezvous = net::Address{"127.0.0.1", port};
        opts.rendezvous_fd = rank == 0 ? rend_fd : -1;
        opts.rails = rails;
        opts.eager_max = eager_max;
        opts.stripe_min = stripe_min;
        opts.timeout_s = 30.0;
        auto world = net::NetComm::connect_world(opts);
        rt::sync_wait(body(*world));
      } catch (...) {
        errors[static_cast<std::size_t>(rank)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const auto& e : errors) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
}

TEST(NetWire, HeaderRoundTrip) {
  net::FrameHeader h;
  h.kind = net::FrameKind::kData;
  h.tag = -7;
  h.comm_key = 0xDEADBEEFCAFEF00Dull;
  h.src = 1234;
  h.rail = 3;
  h.bytes = (1ull << 40) + 17;
  h.token = 42;
  h.token2 = 0xFFFFFFFFFFFFFFFFull;
  std::byte buf[net::kHeaderBytes];
  net::encode(h, buf);
  const net::FrameHeader d = net::decode(buf);
  EXPECT_EQ(d.kind, h.kind);
  EXPECT_EQ(d.tag, h.tag);
  EXPECT_EQ(d.comm_key, h.comm_key);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.rail, h.rail);
  EXPECT_EQ(d.bytes, h.bytes);
  EXPECT_EQ(d.token, h.token);
  EXPECT_EQ(d.token2, h.token2);
}

TEST(NetWire, BadMagicAndKindThrow) {
  net::FrameHeader h;
  h.kind = net::FrameKind::kEager;
  std::byte buf[net::kHeaderBytes];
  net::encode(h, buf);
  std::byte bad[net::kHeaderBytes];
  std::memcpy(bad, buf, sizeof(buf));
  bad[3] = std::byte{0x00};  // clobber the magic nibble
  EXPECT_THROW(net::decode(bad), std::runtime_error);
  std::memcpy(bad, buf, sizeof(buf));
  bad[0] = std::byte{0x0A};  // kind 10: the first unused, magic intact
  EXPECT_THROW(net::decode(bad), std::runtime_error);
}

/// Write one frame (header, then `body`) on a fake peer's blocking
/// socket; a rank that already hung up may cut the write short.
void write_frame(int fd, const net::FrameHeader& h,
                 std::span<const std::byte> body) {
  std::byte hdr[net::kHeaderBytes];
  net::encode(h, hdr);
  try {
    net::write_all(fd, hdr, sizeof(hdr));
    net::write_all(fd, body.data(), body.size());
  } catch (const std::exception&) {
  }
}

/// write_frame with `payload` zero bytes.
void write_frame(int fd, const net::FrameHeader& h, std::size_t payload) {
  write_frame(fd, h, std::vector<std::byte>(payload));
}

/// One frame as a fake peer read it.
struct WireFrame {
  net::FrameHeader h;
  std::vector<std::byte> payload;
};

/// Read one frame, payload included, from the first of `fds` (blocking
/// sockets) that has bytes; throws after 10 s of silence.
WireFrame read_frame(std::initializer_list<int> fds) {
  std::vector<pollfd> p;
  for (const int fd : fds) {
    p.push_back(pollfd{fd, POLLIN, 0});
  }
  if (::poll(p.data(), p.size(), 10000) <= 0) {
    throw std::runtime_error("fake peer: no frame from rank 0");
  }
  const auto ready = std::find_if(p.begin(), p.end(), [](const pollfd& q) {
    return q.revents != 0;
  });
  std::byte hdr[net::kHeaderBytes];
  net::read_all(ready->fd, hdr, sizeof(hdr));
  WireFrame f{net::decode(hdr), {}};
  if (f.h.kind == net::FrameKind::kEager ||
      f.h.kind == net::FrameKind::kData) {
    f.payload.resize(f.h.bytes);
    net::read_all(ready->fd, f.payload.data(), f.payload.size());
  }
  return f;
}

/// Read frames on a fake peer's blocking socket until one of `kind`
/// arrives; throws after 10 s of silence.
net::FrameHeader read_frame_of(int fd, net::FrameKind kind) {
  for (;;) {
    const WireFrame f = read_frame({fd});
    if (f.h.kind == kind) {
      return f.h;
    }
  }
}

/// Rank 0's options in a two-rank world on two rails whose rank 1 is faked.
net::NetOptions rank0_options(std::uint16_t port, int rend_fd,
                              std::size_t eager_max) {
  net::NetOptions opts;
  opts.rank = 0;
  opts.size = 2;
  opts.rendezvous = net::Address{"127.0.0.1", port};
  opts.rendezvous_fd = rend_fd;
  opts.rails = 2;
  opts.eager_max = eager_max;
  opts.timeout_s = 30.0;
  return opts;
}

/// The two rails of a rank 1 that speaks the wire protocol by hand.
struct FakeRank1 {
  net::Fd rail0;
  net::Fd rail1;
};

/// Register a fake rank 1 with the rendezvous server on `port`, then open
/// and greet both rails to rank 0.
FakeRank1 connect_fake_rank1(std::uint16_t port) {
  auto [data_listener, data_port] = net::listen_tcp("127.0.0.1", 0, 8);
  net::NetOptions opts;
  opts.rank = 1;
  opts.size = 2;
  opts.rendezvous = net::Address{"127.0.0.1", port};
  opts.timeout_s = 30.0;
  net::PeerInfo self{1, {net::Address{"127.0.0.1", data_port}}};
  const std::vector<net::PeerInfo> table = net::rendezvous_exchange(opts, self);
  FakeRank1 f{net::connect_tcp(table[0].addrs[0], 30.0),
              net::connect_tcp(table[0].addrs[0], 30.0)};
  net::FrameHeader hello;
  hello.kind = net::FrameKind::kHello;
  hello.src = 1;
  write_frame(f.rail0.get(), hello, 0);
  hello.rail = 1;
  write_frame(f.rail1.get(), hello, 0);
  return f;
}

TEST(NetWire, OutOfBoundsFramesAreFatal) {
  // A fake rank 1 speaks the wire protocol by hand to a real rank 0 and
  // sends one frame per case that breaks the protocol's bounds. It keeps
  // its sockets open until rank 0's wait returned, so the error must come
  // from the bounds check, not from peer loss. Two rails: a 100 B body is
  // then either one 100 B chunk or two 50 B stripes.
  constexpr std::size_t kEagerMax = 1024;
  struct Chunk {
    std::uint64_t off;
    std::uint64_t bytes;
  };
  struct Offer {
    int tag;
    std::uint64_t capacity;
    std::uint64_t token;
    std::uint64_t seq;  ///< rank 0 sent frame 0 (the key) so far
  };
  struct Case {
    const char* name;
    std::vector<Chunk> chunks;  ///< kData chunks of a `body` B rendezvous
    std::uint64_t eager = 0;    ///< else: one unexpected kEager of this size
    std::uint64_t body = 100;
    int src = 1;  ///< the frames' source (the world has ranks 0 and 1)
    int tag = 3;  ///< the kEager's tag (nothing posted: it would park)
    std::optional<Offer> offer{};  ///< else: one kRtr to rank 0
  };
  const std::vector<Case> cases = {
      {"chunk past its message", {{50, 100}}},
      {"chunk over the bytes due", {{0, 60}, {40, 60}}},
      {"empty chunk", {{0, 0}}},
      {"repeated stripe", {{0, 50}, {0, 50}}},
      {"whole body over a stripe", {{50, 50}, {0, 100}}},
      {"misaligned stripe", {{25, 50}}},
      {"chunk of a 2^64-1 B body", {{0, 50}}, 0, ~std::uint64_t{0}},
      {"eager over the limit", {}, kEagerMax + 1},
      {"huge eager", {}, std::uint64_t{1} << 40},
      {"eager from source -1", {}, 8, 100, -1},
      {"eager from source INT_MIN", {}, 8, 100,
       std::numeric_limits<int>::min()},
      {"eager from source 7 of 2", {}, 8, 100, 7},
      {"eager with tag -1", {}, 8, 100, 1, -1},
      {"eager with tag -7", {}, 8, 100, 1, -7},
      {"offer for a frame past the next", {}, 0, 0, 1, 0,
       Offer{2, 2048, 5, 2}},
      {"offer for frame 2^64-1", {}, 0, 0, 1, 0,
       Offer{2, 2048, 5, ~std::uint64_t{0}}},
      {"offer with tag -1", {}, 0, 0, 1, 0, Offer{-1, 2048, 5, 1}},
      {"offer with token 0", {}, 0, 0, 1, 0, Offer{2, 2048, 0, 1}},
      {"offer with capacity 0", {}, 0, 0, 1, 0, Offer{2, 0, 5, 1}},
  };
  for (const Case& tc : cases) {
    auto [listener, port] = net::listen_tcp("127.0.0.1", 0, 8);
    const int rend_fd = listener.release();
    std::atomic<bool> verdict{false};
    std::string error;
    std::thread rank0([&] {
      try {
        auto world = net::NetComm::connect_world(
            rank0_options(port, rend_fd, kEagerMax));
        Buffer key = Buffer::real(4);
        Buffer r = Buffer::real(100);
        try {
          // The eager frame tells the fake peer the world's comm key.
          const Request reqs[] = {world->isend(key.view(), 1, 1),
                                  world->irecv(r.view(), 1, 2)};
          world->wait_try(reqs);
        } catch (const std::runtime_error& e) {
          error = e.what();
        } catch (const std::exception& e) {
          error = std::string("not a runtime_error: ") + e.what();
        }
        verdict = true;
      } catch (const std::exception& e) {
        error = std::string("rank 0 bootstrap: ") + e.what();
        verdict = true;
      }
    });
    try {
      const FakeRank1 peer = connect_fake_rank1(port);
      const int fd = peer.rail0.get();
      const std::uint64_t comm_key =
          read_frame_of(fd, net::FrameKind::kEager).comm_key;
      net::FrameHeader h;
      h.comm_key = comm_key;
      h.src = tc.src;
      if (tc.offer) {
        h.kind = net::FrameKind::kRtr;
        h.tag = tc.offer->tag;
        h.bytes = tc.offer->capacity;
        h.token = tc.offer->token;
        h.token2 = tc.offer->seq;
        write_frame(fd, h, 0);
      } else if (tc.chunks.empty()) {
        h.kind = net::FrameKind::kEager;
        h.tag = tc.tag;
        h.bytes = tc.eager;
        write_frame(fd, h, std::min<std::uint64_t>(tc.eager, 4096));
      } else {
        h.kind = net::FrameKind::kRts;
        h.tag = 2;
        h.bytes = tc.body;
        h.token = 7;
        write_frame(fd, h, 0);
        const net::FrameHeader cts = read_frame_of(fd, net::FrameKind::kCts);
        for (const Chunk& ch : tc.chunks) {
          net::FrameHeader d;
          d.kind = net::FrameKind::kData;
          d.bytes = ch.bytes;
          d.token = cts.token2;
          d.token2 = ch.off;
          write_frame(fd, d, ch.bytes);
        }
      }
      // Hold the connection open until rank 0's wait returned (bounded,
      // so a missing check fails the test instead of hanging it).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!verdict && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << tc.name << ": fake peer: " << e.what();
    }
    rank0.join();
    EXPECT_NE(error.find("net: "), std::string::npos)
        << tc.name << ": wait did not fail (\"" << error << "\")";
    EXPECT_NE(error.find("frame"), std::string::npos)
        << tc.name << ": " << error;
    EXPECT_EQ(error.find("lost"), std::string::npos)
        << tc.name << ": " << error;
  }
}

// --- receiver-ready offers (kRtr), scripted from a fake rank 1 ------------

/// Rank 0's eager limit in the offer tests, the capacity of its offered
/// receives, and the size of the rendezvous bodies in between.
constexpr std::size_t kOfferEager = 1024;
constexpr std::size_t kOfferCap = 2048;
constexpr std::size_t kOfferBody = 2000;
constexpr int kKeyTag = 1;   ///< rank 0 -> fake: its first frame (the key)
constexpr int kTag = 2;      ///< the messages under test
constexpr int kDoneTag = 8;  ///< rank 0 -> fake: every frame before is out
constexpr int kGoTag = 9;    ///< fake -> rank 0: go on

/// `n` bytes of the payload pattern of message `m`.
std::vector<std::byte> body_of(int m, std::size_t n) {
  std::vector<std::byte> b(n);
  for (std::size_t k = 0; k < n; ++k) {
    b[k] = test::pattern(m, 1, k);
  }
  return b;
}

/// Whether `got` starts with body_of(m, n).
bool holds_body(const Buffer& got, int m, std::size_t n) {
  const std::vector<std::byte> want = body_of(m, n);
  return got.size() >= n && std::equal(want.begin(), want.end(), got.data());
}

/// Frame kinds as the docs name them, for readable expectations.
std::string kinds(const std::vector<WireFrame>& frames) {
  std::string out;
  for (const WireFrame& f : frames) {
    static const char* const kName[] = {"?",    "hello", "eager", "rts",
                                        "cts",  "data",  "bye",   "ping",
                                        "pong", "rtr"};
    const auto k = static_cast<std::size_t>(f.h.kind);
    out += out.empty() ? "" : " ";
    out += k < std::size(kName) ? kName[k] : "?";
  }
  return out;
}

/// Frames rank 0 sends on rail 0 up to its eager frame with `tag`, which
/// is the last one returned.
std::vector<WireFrame> frames_until(const FakeRank1& peer, int tag) {
  std::vector<WireFrame> seen;
  do {
    seen.push_back(read_frame({peer.rail0.get()}));
  } while (seen.back().h.kind != net::FrameKind::kEager ||
           seen.back().h.tag != tag);
  return seen;
}

/// Write a matching frame from the fake rank 1 on `fd`: a kEager carrying
/// `body`, or with `rts_token` set a kRts announcing body.size() bytes.
void send_matching(int fd, std::uint64_t comm_key, int tag,
                   std::span<const std::byte> body,
                   std::uint64_t rts_token = 0) {
  net::FrameHeader h;
  h.kind = rts_token != 0 ? net::FrameKind::kRts : net::FrameKind::kEager;
  h.comm_key = comm_key;
  h.src = 1;
  h.tag = tag;
  h.bytes = body.size();
  h.token = rts_token;
  write_frame(fd, h, rts_token != 0 ? std::span<const std::byte>() : body);
}

/// Write `body` whole as one kData frame to receiver token `token`.
void send_data(int fd, std::uint64_t token, std::span<const std::byte> body) {
  net::FrameHeader d;
  d.kind = net::FrameKind::kData;
  d.bytes = body.size();
  d.token = token;
  write_frame(fd, d, body);
}

/// Run `rank0` on the world communicator of a real rank 0 (a thread)
/// while `fake` plays rank 1 on both rails, in a two-rank world with
/// eager limit kOfferEager. The fake's rails stay open until rank 0's
/// body returned. Returns what rank 0 threw, "" when nothing.
std::string with_fake_rank1(const std::function<void(Comm&)>& rank0,
                            const std::function<void(const FakeRank1&)>& fake) {
  auto [listener, port] = net::listen_tcp("127.0.0.1", 0, 8);
  const int rend_fd = listener.release();
  std::atomic<bool> done{false};
  std::string error;
  std::thread t([&] {
    try {
      auto world = net::NetComm::connect_world(
          rank0_options(port, rend_fd, kOfferEager));
      try {
        rank0(*world);
      } catch (const std::exception& e) {
        error = e.what();
      }
      done = true;
    } catch (const std::exception& e) {
      error = std::string("rank 0 bootstrap: ") + e.what();
      done = true;
    }
  });
  try {
    const FakeRank1 peer = connect_fake_rank1(port);
    fake(peer);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "fake rank 1: " << e.what();
  }
  t.join();
  return error;
}

/// Rank 0 posts a receive of kOfferCap bytes from rank 1 and then sends the
/// fake the key frame, which carries the receive's offer along.
Request post_then_key(Comm& c, Buffer& r, int tag = kTag) {
  const Request req = c.irecv(r.view(), 1, tag);
  Buffer key = Buffer::real(4);
  (void)c.isend(key.view(), 1, kKeyTag);
  return req;
}

/// The offer the fake read ahead of rank 0's key frame.
net::FrameHeader expect_offer(const std::vector<WireFrame>& seen) {
  EXPECT_EQ(kinds(seen), "rtr eager");
  const net::FrameHeader rtr = seen.front().h;
  EXPECT_EQ(rtr.kind, net::FrameKind::kRtr);
  EXPECT_EQ(rtr.comm_key, seen.back().h.comm_key);
  EXPECT_EQ(rtr.tag, kTag);
  EXPECT_EQ(rtr.bytes, kOfferCap);
  EXPECT_NE(rtr.token, 0u);
  EXPECT_EQ(rtr.token2, 0u) << "the fake has sent no matching frame yet";
  return rtr;
}

TEST(NetWire, PostedReceiveOffersItsBuffer) {
  // Rank 0 posts a receive for one source and tag, eager limit < capacity
  // < stripe size, before anything arrived: it sends rank 1 a kRtr for
  // the pair's frame 0. Each case checks the frames rank 0 sends up to its
  // done marker and the bytes its receives get.
  const auto done = [](Comm& c) {
    (void)c.isend(rt::ConstView{}, 1, kDoneTag);
  };
  const auto wait1 = [](Comm& c, Request r) { c.wait_try({&r, 1}); };
  {
    SCOPED_TRACE("offer first: the body streams to the token, no kCts");
    const std::vector<std::byte> body = body_of(0, kOfferBody);
    const std::string err = with_fake_rank1(
        [&](Comm& c) {
          Buffer r = Buffer::real(kOfferCap);
          wait1(c, post_then_key(c, r));
          EXPECT_TRUE(holds_body(r, 0, kOfferBody));
          done(c);
        },
        [&](const FakeRank1& peer) {
          const int fd = peer.rail0.get();
          const net::FrameHeader rtr =
              expect_offer(frames_until(peer, kKeyTag));
          send_matching(fd, rtr.comm_key, kTag, body, /*rts_token=*/7);
          send_data(fd, rtr.token, body);
          EXPECT_EQ(kinds(frames_until(peer, kDoneTag)), "eager");
        });
    EXPECT_EQ(err, "");
  }
  {
    SCOPED_TRACE("stale: an eager message is the offered frame");
    const std::vector<std::byte> body = body_of(0, 500);
    const std::string err = with_fake_rank1(
        [&](Comm& c) {
          Buffer r = Buffer::real(kOfferCap);
          wait1(c, post_then_key(c, r));
          EXPECT_TRUE(holds_body(r, 0, body.size()));
          done(c);
        },
        [&](const FakeRank1& peer) {
          const net::FrameHeader rtr =
              expect_offer(frames_until(peer, kKeyTag));
          send_matching(peer.rail0.get(), rtr.comm_key, kTag, body);
          EXPECT_EQ(kinds(frames_until(peer, kDoneTag)), "eager");
        });
    EXPECT_EQ(err, "");
  }
  {
    SCOPED_TRACE("stale: the offered frame has another tag");
    // Frame 0 (tag 3) parks; frame 1 (tag 2) matches the offered receive,
    // whose offer named frame 0: kCts. The tag-3 receive, posted after its
    // kRts arrived, offers nothing: kCts.
    const std::string err = with_fake_rank1(
        [&](Comm& c) {
          Buffer r = Buffer::real(kOfferCap);
          wait1(c, post_then_key(c, r));
          Buffer r3 = Buffer::real(kOfferCap);
          wait1(c, c.irecv(r3.view(), 1, kTag + 1));
          EXPECT_TRUE(holds_body(r, 0, kOfferBody));
          EXPECT_TRUE(holds_body(r3, 1, kOfferBody));
          done(c);
        },
        [&](const FakeRank1& peer) {
          const int fd = peer.rail0.get();
          const net::FrameHeader rtr =
              expect_offer(frames_until(peer, kKeyTag));
          send_matching(fd, rtr.comm_key, kTag + 1, body_of(1, kOfferBody),
                        /*rts_token=*/7);
          send_matching(fd, rtr.comm_key, kTag, body_of(0, kOfferBody),
                        /*rts_token=*/8);
          for (const std::uint64_t sender_token : {8, 7}) {
            const WireFrame cts = read_frame({fd});
            ASSERT_EQ(kinds({cts}), "cts");
            ASSERT_EQ(cts.h.token, sender_token);
            send_data(fd, cts.h.token2,
                      body_of(sender_token == 8 ? 0 : 1, kOfferBody));
          }
          EXPECT_EQ(kinds(frames_until(peer, kDoneTag)), "eager");
        });
    EXPECT_EQ(err, "");
  }
  {
    SCOPED_TRACE("stale: the body is over the capacity: kCts, truncation");
    constexpr std::size_t kBig = 3000;
    const std::string err = with_fake_rank1(
        [&](Comm& c) {
          Buffer r = Buffer::real(kOfferCap);
          const Request req = post_then_key(c, r);
          try {
            wait1(c, req);
            ADD_FAILURE() << "a truncated receive did not throw";
          } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("truncation"),
                      std::string::npos)
                << e.what();
          }
          EXPECT_TRUE(holds_body(r, 0, kOfferCap));
          done(c);
        },
        [&](const FakeRank1& peer) {
          const int fd = peer.rail0.get();
          const net::FrameHeader rtr =
              expect_offer(frames_until(peer, kKeyTag));
          send_matching(fd, rtr.comm_key, kTag, body_of(0, kBig),
                        /*rts_token=*/7);
          const WireFrame cts = read_frame({fd});
          ASSERT_EQ(kinds({cts}), "cts");
          send_data(fd, cts.h.token2, body_of(0, kBig));
          EXPECT_EQ(kinds(frames_until(peer, kDoneTag)), "eager");
        });
    EXPECT_EQ(err, "");
  }
  {
    SCOPED_TRACE("hostile: a body for the offered token before its kRts");
    const std::string err = with_fake_rank1(
        [&](Comm& c) {
          Buffer r = Buffer::real(kOfferCap);
          wait1(c, post_then_key(c, r));
        },
        [&](const FakeRank1& peer) {
          const net::FrameHeader rtr =
              expect_offer(frames_until(peer, kKeyTag));
          send_data(peer.rail0.get(), rtr.token, body_of(0, kOfferBody));
        });
    EXPECT_NE(err.find("net: "), std::string::npos) << err;
    EXPECT_NE(err.find("frame"), std::string::npos) << err;
    EXPECT_EQ(err.find("lost"), std::string::npos) << err;
  }
}

TEST(NetWire, OffersWithheldWhenAnotherFrameMayTakeTheReceive) {
  const auto wait1 = [](Comm& c, Request r) { c.wait_try({&r, 1}); };
  {
    SCOPED_TRACE("wildcard receives posted first: no kRtr at all");
    // (any, 2) and (1, any) are wildcards, and either is eligible for
    // every tag-2 message of rank 1 before (1, 2) is.
    const std::string err = with_fake_rank1(
        [&](Comm& c) {
          std::vector<Buffer> r;
          for (int i = 0; i < 3; ++i) {
            r.push_back(Buffer::real(kOfferCap));
          }
          const Request reqs[] = {c.irecv(r[0].view(), rt::kAnySource, kTag),
                                  c.irecv(r[1].view(), 1, rt::kAnyTag),
                                  c.irecv(r[2].view(), 1, kTag)};
          Buffer key = Buffer::real(4);
          (void)c.isend(key.view(), 1, kKeyTag);
          c.wait_try(reqs);
          for (int i = 0; i < 3; ++i) {
            EXPECT_TRUE(holds_body(r[static_cast<std::size_t>(i)], i,
                                   100 * (static_cast<std::size_t>(i) + 1)))
                << "receive " << i;
          }
          (void)c.isend(rt::ConstView{}, 1, kDoneTag);
        },
        [&](const FakeRank1& peer) {
          const std::vector<WireFrame> seen = frames_until(peer, kKeyTag);
          EXPECT_EQ(kinds(seen), "eager");
          for (int i = 0; i < 3; ++i) {
            send_matching(peer.rail0.get(), seen.back().h.comm_key, kTag,
                          body_of(i, 100 * (static_cast<std::size_t>(i) + 1)));
          }
          EXPECT_EQ(kinds(frames_until(peer, kDoneTag)), "eager");
        });
    EXPECT_EQ(err, "");
  }
  {
    SCOPED_TRACE("an unmatched eager frame mid-payload: no kRtr");
    // Rank 0 has parsed the header of a 600 B tag-2 eager frame and 100 B
    // of it when it posts a (1, 2) receive; the frame takes that receive
    // once its payload completes. The go frame comes on rail 1, since
    // rail 0 is busy with the eager payload.
    constexpr std::size_t kEagerLen = 600;
    constexpr std::size_t kHead = 100;
    const std::vector<std::byte> body = body_of(0, kEagerLen);
    const std::string err = with_fake_rank1(
        [&](Comm& c) {
          Buffer key = Buffer::real(4);
          (void)c.isend(key.view(), 1, kKeyTag);
          wait1(c, c.irecv(rt::MutView{}, 1, kGoTag));
          Buffer r = Buffer::real(kOfferCap);
          const Request req = c.irecv(r.view(), 1, kTag);
          (void)c.isend(rt::ConstView{}, 1, kDoneTag);
          wait1(c, req);
          EXPECT_TRUE(holds_body(r, 0, kEagerLen));
        },
        [&](const FakeRank1& peer) {
          const int fd = peer.rail0.get();
          const std::uint64_t comm_key =
              frames_until(peer, kKeyTag).back().h.comm_key;
          const auto& reg = obs::metrics();
          const std::uint64_t parsed = reg.counter_value("net.frames_rx");
          net::FrameHeader h;
          h.kind = net::FrameKind::kEager;
          h.comm_key = comm_key;
          h.src = 1;
          h.tag = kTag;
          h.bytes = kEagerLen;
          write_frame(fd, h, std::span(body).first(kHead));
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (reg.counter_value("net.frames_rx") == parsed) {
            if (std::chrono::steady_clock::now() > deadline) {
              throw std::runtime_error("rank 0 never parsed the eager header");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          send_matching(peer.rail1.get(), comm_key, kGoTag, {});
          EXPECT_EQ(kinds(frames_until(peer, kDoneTag)), "eager");
          net::write_all(fd, body.data() + kHead, kEagerLen - kHead);
        });
    EXPECT_EQ(err, "");
  }
}

TEST(NetWire, SenderStreamsToAnOffer) {
  // Rank 0 sends a kOfferBody B message (tag 2) as the pair's frame 1,
  // after its key frame; the fake offers that frame a receive, either
  // before rank 0 queues it or after it read the kRts (crossed). A body
  // that may use the offer streams to its token on rail 0 with no kCts;
  // otherwise the fake has to answer the kRts with a kCts.
  struct Case {
    const char* name;
    bool crossed;
    int offer_tag;
    std::size_t capacity;
    bool eager_first;  ///< an eager tag-2 message takes frame 1
    bool used;
    bool decoy = false;  ///< a tag-3 offer for frame 1 precedes the offer
  };
  const Case cases[] = {
      {"offer first", false, kTag, kOfferCap, false, true},
      {"crossed: kRts, then the offer", true, kTag, kOfferCap, false, true},
      {"offer first, behind an offer for another tag", false, kTag, kOfferCap,
       false, true, true},
      {"crossed, behind an offer for another tag", true, kTag, kOfferCap,
       false, true, true},
      {"stale: an eager message is the offered frame", false, kTag, kOfferCap,
       true, false},
      {"stale: another tag", false, kTag + 1, kOfferCap, false, false},
      {"stale: over the capacity", false, kTag, kOfferBody - 1, false, false},
      {"crossed, stale: another tag", true, kTag + 1, kOfferCap, false,
       false},
  };
  constexpr std::uint64_t kOfferToken = 77;
  constexpr std::uint64_t kCtsToken = 88;
  const std::vector<std::byte> body = body_of(0, kOfferBody);
  const std::vector<std::byte> small = body_of(1, 500);
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    const auto& reg = obs::metrics();
    const std::uint64_t used0 = reg.counter_value("net.rtr_used");
    const std::string err = with_fake_rank1(
        [&](Comm& c) {
          Buffer key = Buffer::real(4);
          (void)c.isend(key.view(), 1, kKeyTag);
          if (!tc.crossed) {
            const Request go = c.irecv(rt::MutView{}, 1, kGoTag);
            c.wait_try({&go, 1});
          }
          if (tc.eager_first) {
            (void)c.isend(rt::ConstView{small.data(), small.size()}, 1, kTag);
          }
          const Request req =
              c.isend(rt::ConstView{body.data(), body.size()}, 1, kTag);
          (void)c.isend(rt::ConstView{}, 1, kDoneTag);
          c.wait_try({&req, 1});
        },
        [&](const FakeRank1& peer) {
          const int fd = peer.rail0.get();
          std::vector<WireFrame> seen = frames_until(peer, kKeyTag);
          const auto offer = [&](std::uint64_t comm_key) {
            net::FrameHeader rtr;
            rtr.kind = net::FrameKind::kRtr;
            rtr.comm_key = comm_key;
            rtr.bytes = kOfferCap;
            rtr.token2 = 1;
            if (tc.decoy) {
              rtr.tag = kTag + 1;
              rtr.token = kOfferToken + 1;
              write_frame(fd, rtr, 0);
            }
            rtr.tag = tc.offer_tag;
            rtr.bytes = tc.capacity;
            rtr.token = kOfferToken;
            write_frame(fd, rtr, 0);
          };
          const std::uint64_t comm_key = seen.back().h.comm_key;
          if (!tc.crossed) {
            offer(comm_key);
            send_matching(fd, comm_key, kGoTag, {});
          }
          seen = frames_until(peer, kDoneTag);
          seen.pop_back();
          if (tc.crossed) {
            offer(comm_key);
          }
          std::string want = tc.eager_first ? "eager rts" : "rts";
          if (tc.used && !tc.crossed) {
            want += " data";
          }
          ASSERT_EQ(kinds(seen), want);
          const net::FrameHeader& rts = seen[tc.eager_first ? 1 : 0].h;
          EXPECT_EQ(rts.tag, kTag);
          EXPECT_EQ(rts.bytes, kOfferBody);
          WireFrame data;
          if (tc.used && !tc.crossed) {
            data = seen.back();
          } else if (tc.used) {
            data = read_frame({fd});
          } else {
            net::FrameHeader cts;
            cts.kind = net::FrameKind::kCts;
            cts.token = rts.token;
            cts.token2 = kCtsToken;
            write_frame(fd, cts, 0);
            data = read_frame({fd, peer.rail1.get()});
          }
          ASSERT_EQ(kinds({data}), "data");
          EXPECT_EQ(data.h.token, tc.used ? kOfferToken : kCtsToken);
          EXPECT_EQ(data.h.token2, 0u);
          EXPECT_TRUE(data.payload == body);
        });
    EXPECT_EQ(err, "");
    EXPECT_EQ(reg.counter_value("net.rtr_used") - used0, tc.used ? 1u : 0u);
  }
}

TEST(NetBootstrap, SilentConnectionTimesOut) {
  // A fake rank 1 registers, then connects to rank 0's data listener and
  // sends nothing: over TCP, and over rank 0's AF_UNIX name. Rank 0 must
  // not wait for the hello past its deadline; its constructor throws the
  // accept timeout within 2 x timeout_s.
  for (const bool over_unix : {false, true}) {
    SCOPED_TRACE(over_unix ? "AF_UNIX" : "TCP");
    auto [listener, port] = net::listen_tcp("127.0.0.1", 0, 8);
    net::NetOptions opts = rank0_options(port, listener.release(), 1024);
    opts.timeout_s = 1.0;
    std::atomic<bool> done{false};
    std::string error;
    double took_s = 0.0;
    std::thread rank0([&] {
      const auto t0 = std::chrono::steady_clock::now();
      try {
        net::Endpoint ep(opts);
      } catch (const std::exception& e) {
        error = e.what();
      }
      took_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      done = true;
    });
    try {
      auto [data_listener, data_port] = net::listen_tcp("127.0.0.1", 0, 8);
      net::NetOptions mine = opts;
      mine.rank = 1;
      mine.rendezvous_fd = -1;
      const std::vector<net::PeerInfo> table = net::rendezvous_exchange(
          mine, {1, {net::Address{"127.0.0.1", data_port}}});
      const net::Fd silent =
          over_unix ? net::connect_unix(net::unix_name(table[0].addrs[0]), 30.0)
                    : net::connect_tcp(table[0].addrs[0], 30.0);
      EXPECT_TRUE(silent.valid());
      // Stay connected and silent until rank 0 gave up (or 10 s passed:
      // the parent's blocking read ends only when the client closes).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!done && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "fake rank 1: " << e.what();
    }
    rank0.join();
    EXPECT_NE(error.find("timed out accepting peer connections"),
              std::string::npos)
        << error;
    EXPECT_LT(took_s, 2 * opts.timeout_s);
  }
}

TEST(NetBootstrap, RailsFallBackToTcpWithoutALocalName) {
  // A fake rank 0 serves the rendezvous and listens on TCP only, so no
  // AF_UNIX name exists for it: every rail of real rank 1 must fall back
  // to TCP. One eager and one rendezvous message then cross each way. The
  // fake answers rank 1's kRts with a kCts, and streams its own body to
  // the token rank 1 gives it: an offer naming its kRts (frame 1, after
  // its eager frame 0), or else a kCts.
  constexpr std::size_t kEager = 100;
  constexpr std::size_t kBody = 4000;  // kOfferEager < kBody < stripe_min
  constexpr std::uint64_t kRtsToken = 5;
  constexpr std::uint64_t kCtsToken = 6;
  constexpr int kEagerUp = 1, kBodyUp = 2, kEagerDown = 3, kBodyDown = 4;
  const std::vector<std::byte> eager_up = body_of(0, kEager);
  const std::vector<std::byte> body_up = body_of(1, kBody);
  const std::vector<std::byte> eager_down = body_of(2, kEager);
  const std::vector<std::byte> body_down = body_of(3, kBody);
  const auto& reg = obs::metrics();
  const std::uint64_t conns0 = reg.counter_value("net.connections");
  const std::uint64_t unix0 = reg.counter_value("net.connections_unix");

  auto [rend_listener, port] = net::listen_tcp("127.0.0.1", 0, 8);
  auto [data_listener, data_port] = net::listen_tcp("127.0.0.1", 0, 8);
  const net::NetOptions rank0_opts =
      rank0_options(port, rend_listener.release(), kOfferEager);
  std::atomic<bool> done{false};
  std::string error;
  std::thread rank1([&] {
    net::NetOptions opts = rank0_opts;
    opts.rank = 1;
    opts.rendezvous_fd = -1;
    try {
      auto world = net::NetComm::connect_world(opts);
      try {
        Comm& c = *world;
        Buffer got_eager = Buffer::real(kEager);
        Buffer got_body = Buffer::real(kBody);
        const Request reqs[] = {
            c.isend(rt::ConstView{eager_up.data(), kEager}, 0, kEagerUp),
            c.isend(rt::ConstView{body_up.data(), kBody}, 0, kBodyUp),
            c.irecv(got_eager.view(), 0, kEagerDown),
            c.irecv(got_body.view(), 0, kBodyDown)};
        c.wait_try(reqs);
        if (!holds_body(got_eager, 2, kEager) ||
            !holds_body(got_body, 3, kBody)) {
          error = "rank 1 received corrupt bytes";
        }
      } catch (const std::exception& e) {
        error = e.what();
      }
      done = true;
    } catch (const std::exception& e) {
      error = std::string("rank 1 bootstrap: ") + e.what();
      done = true;
    }
  });
  // Fake rank 0 (an ASSERT returns from this lambda, never skipping the
  // join below).
  const auto fake = [&] {
    (void)net::rendezvous_exchange(
        rank0_opts, {0, {net::Address{"127.0.0.1", data_port}}});
    net::Fd rails[2];
    for (int i = 0; i < 2; ++i) {
      net::wait_readable(data_listener.get(), net::deadline_in(10.0),
                         "no rail from rank 1");
      net::Fd fd = net::accept_conn(data_listener.get());
      EXPECT_FALSE(net::is_unix(fd.get()));
      const WireFrame hello = read_frame({fd.get()});
      ASSERT_EQ(kinds({hello}), "hello");
      ASSERT_LT(hello.h.rail, 2u);
      rails[hello.h.rail] = std::move(fd);
    }
    const int fd = rails[0].get();
    const auto send_matching_frame = [&](net::FrameKind kind,
                                         std::uint64_t comm_key, int tag,
                                         const std::vector<std::byte>& body) {
      net::FrameHeader h;
      h.kind = kind;
      h.comm_key = comm_key;
      h.src = 0;
      h.tag = tag;
      h.bytes = body.size();
      h.token = kind == net::FrameKind::kRts ? kRtsToken : 0;
      write_frame(fd, h,
                  kind == net::FrameKind::kRts ? std::span<const std::byte>()
                                               : std::span(body));
    };
    bool eager_seen = false;
    bool body_seen = false;
    bool body_sent = false;
    while (!eager_seen || !body_seen || !body_sent) {
      const WireFrame f = read_frame({rails[0].get(), rails[1].get()});
      switch (f.h.kind) {
        case net::FrameKind::kEager:  // rank 1's frame 0: answer with ours
          EXPECT_EQ(f.h.tag, kEagerUp);
          EXPECT_TRUE(f.payload == eager_up);
          eager_seen = true;
          send_matching_frame(net::FrameKind::kEager, f.h.comm_key,
                              kEagerDown, eager_down);
          send_matching_frame(net::FrameKind::kRts, f.h.comm_key, kBodyDown,
                              body_down);
          break;
        case net::FrameKind::kRts: {
          EXPECT_EQ(f.h.tag, kBodyUp);
          EXPECT_EQ(f.h.bytes, kBody);
          net::FrameHeader cts;
          cts.kind = net::FrameKind::kCts;
          cts.token = f.h.token;
          cts.token2 = kCtsToken;
          write_frame(fd, cts, 0);
          break;
        }
        case net::FrameKind::kData:
          EXPECT_EQ(f.h.token, kCtsToken);
          EXPECT_TRUE(f.payload == body_up);
          body_seen = true;
          break;
        case net::FrameKind::kRtr:
          if (f.h.tag == kBodyDown && f.h.token2 == 1 && f.h.bytes >= kBody) {
            send_data(fd, f.h.token, body_down);
            body_sent = true;
          }
          break;
        case net::FrameKind::kCts:
          EXPECT_EQ(f.h.token, kRtsToken);
          send_data(fd, f.h.token2, body_down);
          body_sent = true;
          break;
        default:
          FAIL() << "unexpected " << kinds({f}) << " frame";
      }
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  try {
    fake();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "fake rank 0: " << e.what();
  }
  rank1.join();
  EXPECT_EQ(error, "");
  EXPECT_EQ(reg.counter_value("net.connections") - conns0, 2u);
  EXPECT_EQ(reg.counter_value("net.connections_unix") - unix0, 0u);
}

TEST(NetBootstrap, OptionsValidate) {
  net::NetOptions opts;
  opts.rank = 0;
  opts.size = 2;
  opts.rendezvous = net::Address{"127.0.0.1", 1};
  EXPECT_NO_THROW(opts.validate());
  net::NetOptions bad = opts;
  bad.rank = 2;  // out of [0, size)
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = opts;
  bad.rails = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(NetBootstrap, ParseAddress) {
  const net::Address a = net::parse_address("10.1.2.3:4455");
  EXPECT_EQ(a.host, "10.1.2.3");
  EXPECT_EQ(a.port, 4455);
  EXPECT_THROW(net::parse_address("no-port-here"), std::invalid_argument);
}

TEST(NetP2P, PingPongEagerAndRendezvous) {
  // 1 KiB stays eager, 192 KiB crosses into rendezvous (threshold 16 KiB).
  run_net_threads(2, [](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    for (std::size_t bytes : {std::size_t{1} << 10, std::size_t{192} << 10}) {
      Buffer s = Buffer::real(bytes);
      Buffer r = Buffer::real(bytes);
      for (std::size_t k = 0; k < bytes; ++k) {
        s.data()[k] = test::pattern(c.rank(), peer, k);
      }
      co_await c.sendrecv(s.view(), peer, 1, r.view(), peer, 1);
      for (std::size_t k = 0; k < bytes; ++k) {
        if (r.data()[k] != test::pattern(peer, c.rank(), k)) {
          throw std::runtime_error("payload corrupt at byte " +
                                   std::to_string(k));
        }
      }
    }
  });
}

TEST(NetP2P, MultiRailStriping) {
  // Tiny thresholds force eager->rndv at 64 B and striping at 256 B over
  // 3 rails; a 1 MiB message then exercises out-of-order reassembly.
  run_net_threads(
      2,
      [](Comm& c) -> Task<void> {
        const int peer = 1 - c.rank();
        const std::size_t bytes = 1 << 20;
        Buffer s = Buffer::real(bytes);
        Buffer r = Buffer::real(bytes);
        for (std::size_t k = 0; k < bytes; ++k) {
          s.data()[k] = test::pattern(c.rank(), peer, k);
        }
        co_await c.sendrecv(s.view(), peer, 2, r.view(), peer, 2);
        for (std::size_t k = 0; k < bytes; ++k) {
          if (r.data()[k] != test::pattern(peer, c.rank(), k)) {
            throw std::runtime_error("striped payload corrupt at byte " +
                                     std::to_string(k));
          }
        }
        // Rails beyond 0 must have genuinely carried bytes.
        if (c.rank() == 0) {
          const auto& reg = obs::metrics();
          std::uint64_t beyond = reg.counter_value("net.rail.1.tx_bytes") +
                                 reg.counter_value("net.rail.2.tx_bytes");
          if (beyond == 0) {
            throw std::runtime_error("no bytes on rails 1/2");
          }
        }
      },
      /*rails=*/3, /*eager_max=*/64, /*stripe_min=*/256);
}

TEST(NetP2P, WildcardsAndFifoOrder) {
  run_net_threads(3, [](Comm& c) -> Task<void> {
    Buffer b = Buffer::real(4);
    if (c.rank() != 0) {
      // Two ordered messages per sender; per-pair FIFO must hold.
      for (int i = 0; i < 2; ++i) {
        b.typed<int>()[0] = 100 * c.rank() + i;
        co_await c.send(b.view(), 0, 7);
      }
    } else {
      int last_from[3] = {-1, -1, -1};
      for (int i = 0; i < 4; ++i) {
        co_await c.recv(b.view(), rt::kAnySource, rt::kAnyTag);
        const int v = b.typed<int>()[0];
        const int from = v / 100;
        if (v % 100 <= last_from[from]) {
          throw std::runtime_error("per-pair order violated");
        }
        last_from[from] = v % 100;
      }
    }
  });
}

TEST(NetP2P, ZeroByteMessages) {
  run_net_threads(2, [](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    co_await c.sendrecv(rt::ConstView{}, peer, 3, rt::MutView{}, peer, 3);
  });
}

TEST(NetP2P, TruncationThrowsOnBothPaths) {
  run_net_threads(2, [](Comm& c) -> Task<void> {
    // 64 B eager and 64 KiB rendezvous, both into an 8-byte buffer.
    for (std::size_t bytes : {std::size_t{64}, std::size_t{64} << 10}) {
      if (c.rank() == 0) {
        Buffer big = Buffer::real(bytes);
        co_await c.send(big.view(), 1, 4);
      } else {
        Buffer small = Buffer::real(8);
        bool threw = false;
        try {
          co_await c.recv(small.view(), 0, 4);
        } catch (const std::runtime_error&) {
          threw = true;
        }
        if (!threw) {
          throw std::runtime_error("truncation did not throw");
        }
      }
    }
  });
}

TEST(NetP2P, SelfSend) {
  run_net_threads(2, [](Comm& c) -> Task<void> {
    Buffer s = Buffer::real(64);
    Buffer r = Buffer::real(64);
    for (std::size_t k = 0; k < 64; ++k) {
      s.data()[k] = test::pattern(c.rank(), c.rank(), k);
    }
    co_await c.sendrecv(s.view(), c.rank(), 9, r.view(), c.rank(), 9);
    for (std::size_t k = 0; k < 64; ++k) {
      if (r.data()[k] != test::pattern(c.rank(), c.rank(), k)) {
        throw std::runtime_error("self-send corrupt");
      }
    }
  });
}

/// Sum of a per-rail counter over the first `rails` rails.
std::uint64_t rail_total(const char* field, int rails) {
  std::uint64_t sum = 0;
  for (int r = 0; r < rails; ++r) {
    sum += obs::metrics().counter_value("net.rail." + std::to_string(r) +
                                        "." + field);
  }
  return sum;
}

TEST(NetP2P, EagerPingPongOneSyscallPerFrame) {
  // A frame leaves in one sendmsg (header and payload gathered) and a
  // 1 KiB frame arrives in one staged read, whose short count says the
  // socket is drained. Shutdown adds one EOF read per connection.
  const auto& reg = obs::metrics();
  const std::uint64_t tx0 = reg.counter_value("net.tx_calls");
  const std::uint64_t rx0 = reg.counter_value("net.rx_calls");
  const std::uint64_t ftx0 = reg.counter_value("net.frames_tx");
  const std::uint64_t frx0 = reg.counter_value("net.frames_rx");
  run_net_threads(2, [](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    Buffer b = Buffer::real(1024);
    for (int i = 0; i < 200; ++i) {
      if (i % 2 == c.rank()) {
        co_await c.send(b.view(), peer, 1);
      } else {
        co_await c.recv(b.view(), peer, 1);
      }
    }
  });
  const std::uint64_t tx_calls = reg.counter_value("net.tx_calls") - tx0;
  const std::uint64_t rx_calls = reg.counter_value("net.rx_calls") - rx0;
  const std::uint64_t frames_tx = reg.counter_value("net.frames_tx") - ftx0;
  const std::uint64_t frames_rx = reg.counter_value("net.frames_rx") - frx0;
  EXPECT_GE(frames_tx, 200u);
  EXPECT_GT(tx_calls, 0u);
  EXPECT_LE(tx_calls, frames_tx);
  EXPECT_GT(rx_calls, 0u);
  EXPECT_LT(rx_calls, 2 * frames_rx);
}

TEST(NetP2P, UnpostedBurstStraddlesStagingReads) {
  // Rank 0 fires two bursts at rank 1 before rank 1 posts a receive:
  // eager frames around the header size and up to the eager limit, and
  // rendezvous bodies on both sides of the direct-read size (half the
  // 64 KiB staging buffer). The first burst queues 8 MiB of eager frames,
  // far more than a same-host connection buffers (an AF_UNIX stream holds
  // about its sender's send buffer, 208 KiB by default; loopback TCP about
  // 4 MiB), so the sender hits short writes; headers and payloads
  // straddle the receiver's staging reads. The first burst parks
  // as unexpected, the second meets posted receives, and every message
  // must land in its receive in per-pair FIFO order, intact.
  constexpr std::size_t kEagerMax = 16 * 1024;
  constexpr std::size_t kDirect = 32 * 1024;
  auto burst = [&](int rounds, int rndv_every) {
    std::vector<std::size_t> sizes;
    for (int r = 0; r < rounds; ++r) {
      sizes.insert(sizes.end(), {0, 1, 47, 48, 49, 4095, kEagerMax});
      if (r % rndv_every == 0) {
        sizes.insert(sizes.end(), {kDirect - 1, kDirect + 1});
      }
    }
    return sizes;
  };
  const std::vector<std::size_t> first = burst(400, 16);
  const std::vector<std::size_t> second = burst(32, 4);
  std::vector<std::size_t> sizes = first;
  sizes.insert(sizes.end(), second.begin(), second.end());
  const std::uint64_t retries0 = rail_total("tx_retries", 2);
  // The ranks are threads of this process: the sender raises the flag
  // once the first burst and its marker are queued, and the receiver
  // reads nothing before that.
  std::atomic<bool> queued{false};
  run_net_threads(2, [&](Comm& c) -> Task<void> {
    auto byte_of = [](std::size_t m, std::size_t k) {
      return test::pattern(static_cast<int>(m), 1, k);
    };
    std::vector<Buffer> bufs;
    for (const std::size_t bytes : sizes) {
      bufs.push_back(Buffer::real(bytes));
    }
    if (c.rank() == 0) {
      for (std::size_t m = 0; m < bufs.size(); ++m) {
        for (std::size_t k = 0; k < bufs[m].size(); ++k) {
          bufs[m].data()[k] = byte_of(m, k);
        }
      }
      std::vector<Request> reqs;
      for (std::size_t m = 0; m < bufs.size(); ++m) {
        reqs.push_back(c.isend(bufs[m].view(), 1, 5));
        if (m + 1 == first.size()) {
          reqs.push_back(c.isend(rt::ConstView{}, 1, 6));  // burst marker
          queued = true;
        }
      }
      co_await c.wait_all(reqs);
      co_return;
    }
    // Read up to the marker: the first burst parks as unexpected.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!queued) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("sender never queued the first burst");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    co_await c.recv(rt::MutView{}, 0, 6);
    std::vector<Request> reqs;
    for (Buffer& b : bufs) {
      reqs.push_back(c.irecv(b.view(), 0, 5));
    }
    co_await c.wait_all(reqs);
    for (std::size_t m = 0; m < bufs.size(); ++m) {
      for (std::size_t k = 0; k < bufs[m].size(); ++k) {
        if (bufs[m].data()[k] != byte_of(m, k)) {
          throw std::runtime_error("message " + std::to_string(m) + " (" +
                                   std::to_string(bufs[m].size()) +
                                   " B) corrupt or out of order at byte " +
                                   std::to_string(k));
        }
      }
    }
  });
  EXPECT_GT(rail_total("tx_retries", 2), retries0)
      << "the burst never filled the socket";
}

TEST(NetP2P, TruncatedStagedReceiveKeepsStreamFramed) {
  // Receives posted before their messages arrive, on one rail so every
  // frame shares one stream: the bytes past each truncated buffer are
  // dropped from the staging buffer, never written past the posted view,
  // and the message queued right behind must arrive intact. Cases: an
  // eager frame, a rendezvous body cut to a staged remainder, and one
  // whose kept part (200 KiB, more than a staging read plus the 32 KiB
  // direct-read size) is read straight into the user buffer.
  run_net_threads(
      2,
      [](Comm& c) -> Task<void> {
        struct Cut {
          std::size_t bytes;
          std::size_t posted;
        };
        constexpr std::size_t kGuard = 64;
        constexpr std::byte kFill{0xEE};
        const Cut cuts[] = {{4096, 8}, {20 << 10, 8}, {256 << 10, 200 << 10}};
        for (const Cut& cut : cuts) {
          Buffer big = Buffer::real(cut.bytes);
          Buffer next = Buffer::real(1024);
          if (c.rank() == 0) {
            co_await c.recv(rt::MutView{}, 1, 5);  // both receives posted
            for (std::size_t k = 0; k < big.size(); ++k) {
              big.data()[k] = test::pattern(0, 1, k);
            }
            for (std::size_t k = 0; k < next.size(); ++k) {
              next.data()[k] = test::pattern(0, 2, k);
            }
            const Request reqs[] = {c.isend(big.view(), 1, 4),
                                    c.isend(next.view(), 1, 4)};
            co_await c.wait_all(reqs);
            continue;
          }
          Buffer small = Buffer::real(cut.posted + kGuard);
          std::fill(small.data(), small.data() + small.size(), kFill);
          const Request cut_req =
              c.irecv(rt::MutView{small.data(), cut.posted}, 0, 4);
          const Request next_req = c.irecv(next.view(), 0, 4);
          co_await c.send(rt::ConstView{}, 0, 5);
          bool threw = false;
          try {
            co_await c.wait(cut_req);
          } catch (const std::runtime_error&) {
            threw = true;
          }
          if (!threw) {
            throw std::runtime_error("truncation did not throw");
          }
          co_await c.wait(next_req);
          for (std::size_t k = 0; k < small.size(); ++k) {
            const std::byte want =
                k < cut.posted ? test::pattern(0, 1, k) : kFill;
            if (small.data()[k] != want) {
              throw std::runtime_error(
                  "truncated receive wrong at byte " + std::to_string(k) +
                  " of a " + std::to_string(cut.posted) + " B buffer");
            }
          }
          for (std::size_t k = 0; k < next.size(); ++k) {
            if (next.data()[k] != test::pattern(0, 2, k)) {
              throw std::runtime_error(
                  "message after a truncated one corrupt at byte " +
                  std::to_string(k));
            }
          }
        }
      },
      /*rails=*/1);
}

TEST(NetP2P, PostedReceiveSkipsTheCts) {
  // Rank 1 posts a 24 KiB receive (eager limit 16 KiB, stripe size
  // 256 KiB) before a barrier, so its offer leaves ahead of its barrier
  // frame on rail 0 and rank 0 holds the offer when it sends: the body
  // uses it. The barrier runs on a second communicator, so that it takes
  // no number of the world pair's frames, which the offer names.
  constexpr std::size_t kBytes = 24 * 1024;
  const auto& reg = obs::metrics();
  const std::uint64_t offers0 = reg.counter_value("net.rtr_tx");
  const std::uint64_t used0 = reg.counter_value("net.rtr_used");
  run_net_threads(2, [&](Comm& c) -> Task<void> {
    auto ctl = c.create_subcomm(std::vector<int>{0, 1});
    Buffer b = Buffer::real(kBytes);
    if (c.rank() == 1) {
      const Request r = c.irecv(b.view(), 0, 3);
      co_await rt::barrier(*ctl);
      co_await c.wait(r);
      for (std::size_t k = 0; k < kBytes; ++k) {
        if (b.data()[k] != test::pattern(0, 1, k)) {
          throw std::runtime_error("offered body corrupt at byte " +
                                   std::to_string(k));
        }
      }
    } else {
      for (std::size_t k = 0; k < kBytes; ++k) {
        b.data()[k] = test::pattern(0, 1, k);
      }
      co_await rt::barrier(*ctl);
      co_await c.send(b.view(), 1, 3);
    }
  });
  EXPECT_EQ(reg.counter_value("net.rtr_tx") - offers0, 1u);
  EXPECT_EQ(reg.counter_value("net.rtr_used") - used0, 1u);
}

TEST(NetP2P, OffersKeepMatchOrder) {
  // Seeded random scripts on three ranks: rank 0 posts receives, some of
  // them wildcards, while ranks 1 and 2 send batches of messages on both
  // sides of the eager limit and of the stripe size, over three rails. A
  // batch leaves when rank 0 says go on a control communicator and is
  // followed there by a marker, which rank 0 waits for. Rank 0 parses
  // nothing between a go and that wait, so a receive posted before the
  // wait was posted before the batch arrived, whether or not the sender
  // had queued it (offers then go first or cross its kRts); one posted
  // after the wait finds the batch arrived. Every receive must get the
  // message rt::MatchQueue names for that order, byte for byte, whichever
  // of an offer, a kCts or an eager frame carried it.
  constexpr std::size_t kEager = 1024;
  constexpr std::size_t kStripe = 8192;
  constexpr int kScripts = 40;
  constexpr int kGo = 1;
  constexpr int kMarker = 2;
  struct Msg {
    int sender;
    int tag;
    std::size_t bytes;
  };
  struct Recv {
    int src;
    int tag;
    std::size_t len = 0;
    int msg = -1;  ///< the message the matching rule gives this receive
  };
  struct Step {
    enum Kind { kPost, kGoOn, kArrive } kind;
    int index;  ///< the receive (kPost) or the batch
  };
  struct Script {
    std::vector<Msg> msgs;
    std::vector<std::vector<int>> batches;  ///< message ids, one sender each
    std::vector<Recv> recvs;
    std::vector<Step> steps;
  };
  std::mt19937_64 rng(20261019);
  const auto uniform = [&](std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  const auto any_size = [&]() -> std::size_t {
    switch (uniform(0, 4)) {
      case 0:
        return uniform(0, kEager);
      case 1:
        return std::vector<std::size_t>{kEager, kEager + 1, kStripe - 1,
                                        kStripe}[uniform(0, 3)];
      case 2:
      case 3:
        return uniform(kEager + 1, kStripe - 1);
      default:
        return uniform(kStripe, 3 * kStripe);
    }
  };
  std::vector<Script> scripts;
  while (scripts.size() < kScripts) {
    Script sc;
    const std::size_t batches = uniform(2, 5);
    for (std::size_t b = 0; b < batches; ++b) {
      const int sender = static_cast<int>(uniform(1, 2));
      sc.batches.emplace_back();
      for (std::size_t n = uniform(1, 4); n > 0; --n) {
        sc.batches.back().push_back(static_cast<int>(sc.msgs.size()));
        sc.msgs.push_back(
            Msg{sender, static_cast<int>(uniform(0, 2)), any_size()});
      }
    }
    // One receive aimed at each message, in random order, with its source
    // or tag sometimes a wildcard; each posted at a random point: before
    // a batch's go, between the go and the marker, or after the marker.
    std::vector<int> aim(sc.msgs.size());
    std::iota(aim.begin(), aim.end(), 0);
    std::shuffle(aim.begin(), aim.end(), rng);
    std::vector<std::size_t> slot;
    for (const int m : aim) {
      const Msg& msg = sc.msgs[static_cast<std::size_t>(m)];
      sc.recvs.push_back(
          Recv{uniform(0, 4) == 0 ? rt::kAnySource : msg.sender,
               uniform(0, 4) == 0 ? rt::kAnyTag : msg.tag});
      slot.push_back(uniform(0, 2 * batches));
    }
    for (std::size_t p = 0; p <= 2 * batches; ++p) {
      for (std::size_t r = 0; r < sc.recvs.size(); ++r) {
        if (slot[r] == p) {
          sc.steps.push_back(Step{Step::kPost, static_cast<int>(r)});
        }
      }
      if (p < 2 * batches) {
        sc.steps.push_back(Step{p % 2 == 0 ? Step::kGoOn : Step::kArrive,
                                static_cast<int>(p / 2)});
      }
    }
    // The rule's verdict; scripts that leave a receive or a message
    // unmatched are drawn again.
    rt::MatchQueue<int, int>::Pool pool;
    rt::MatchQueue<int, int> rule(pool);
    for (const Step& st : sc.steps) {
      if (st.kind == Step::kPost) {
        Recv& r = sc.recvs[static_cast<std::size_t>(st.index)];
        if (const std::optional<int> m = rule.take_unexpected(r.src, r.tag)) {
          r.msg = *m;
        } else {
          rule.post(r.src, r.tag, st.index);
        }
      } else if (st.kind == Step::kArrive) {
        for (const int m : sc.batches[static_cast<std::size_t>(st.index)]) {
          const Msg& msg = sc.msgs[static_cast<std::size_t>(m)];
          if (const std::optional<int> r =
                  rule.take_posted(msg.sender, msg.tag)) {
            sc.recvs[static_cast<std::size_t>(*r)].msg = m;
          } else {
            rule.park(msg.sender, msg.tag, m);
          }
        }
      }
    }
    if (rule.posted() != 0 || rule.unexpected() != 0) {
      continue;
    }
    // Buffers fit their message, some exactly, some with room to spare,
    // some sized into the offer range or past the stripe size.
    for (Recv& r : sc.recvs) {
      const std::size_t bytes = sc.msgs[static_cast<std::size_t>(r.msg)].bytes;
      switch (uniform(0, 3)) {
        case 0:
          r.len = bytes;
          break;
        case 1:
          r.len = bytes + uniform(1, 512);
          break;
        case 2:
          r.len = std::max(bytes, uniform(kEager + 1, kStripe - 1));
          break;
        default:
          r.len = std::max(bytes, uniform(kStripe, 3 * kStripe));
      }
    }
    scripts.push_back(std::move(sc));
  }
  const auto byte_of = [](std::size_t script, int m, std::size_t k) {
    return test::pattern(m, static_cast<int>(script), k);
  };
  const auto& reg = obs::metrics();
  const std::uint64_t offers0 = reg.counter_value("net.rtr_tx");
  const std::uint64_t used0 = reg.counter_value("net.rtr_used");
  run_net_threads(
      3,
      [&](Comm& c) -> Task<void> {
        auto ctl = c.create_subcomm(std::vector<int>{0, 1, 2});
        for (std::size_t s = 0; s < scripts.size(); ++s) {
          const Script& sc = scripts[s];
          const auto sender_of = [&](int batch) {
            const auto& ids = sc.batches[static_cast<std::size_t>(batch)];
            return sc.msgs[static_cast<std::size_t>(ids.front())].sender;
          };
          if (c.rank() != 0) {
            std::vector<Buffer> out;
            out.reserve(sc.msgs.size());
            std::vector<Request> reqs;
            for (std::size_t b = 0; b < sc.batches.size(); ++b) {
              if (sender_of(static_cast<int>(b)) != c.rank()) {
                continue;
              }
              co_await ctl->recv(rt::MutView{}, 0, kGo);
              for (const int m : sc.batches[b]) {
                const Msg& msg = sc.msgs[static_cast<std::size_t>(m)];
                out.push_back(Buffer::real(msg.bytes));
                for (std::size_t k = 0; k < msg.bytes; ++k) {
                  out.back().data()[k] = byte_of(s, m, k);
                }
                reqs.push_back(c.isend(out.back().view(), 0, msg.tag));
              }
              (void)ctl->isend(rt::ConstView{}, 0, kMarker);
            }
            co_await c.wait_all(reqs);
            continue;
          }
          std::vector<Buffer> in;
          in.reserve(sc.recvs.size());
          for (const Recv& r : sc.recvs) {
            in.push_back(Buffer::real(r.len));
          }
          std::vector<Request> reqs(sc.recvs.size());
          for (const Step& st : sc.steps) {
            const auto i = static_cast<std::size_t>(st.index);
            if (st.kind == Step::kPost) {
              reqs[i] = c.irecv(in[i].view(), sc.recvs[i].src, sc.recvs[i].tag);
            } else if (st.kind == Step::kGoOn) {
              (void)ctl->isend(rt::ConstView{}, sender_of(st.index), kGo);
            } else {
              co_await ctl->recv(rt::MutView{}, sender_of(st.index), kMarker);
            }
          }
          co_await c.wait_all(reqs);
          for (std::size_t i = 0; i < sc.recvs.size(); ++i) {
            const int m = sc.recvs[i].msg;
            const std::size_t bytes = sc.msgs[static_cast<std::size_t>(m)].bytes;
            for (std::size_t k = 0; k < bytes; ++k) {
              if (in[i].data()[k] != byte_of(s, m, k)) {
                ADD_FAILURE() << "script " << s << ": receive " << i
                              << " does not hold message " << m << " ("
                              << bytes << " B) at byte " << k;
                break;
              }
            }
          }
        }
      },
      /*rails=*/3, kEager, kStripe);
  // The scripts exercised the offers: some were used, some went stale.
  const std::uint64_t offers = reg.counter_value("net.rtr_tx") - offers0;
  const std::uint64_t used = reg.counter_value("net.rtr_used") - used0;
  EXPECT_GT(used, 0u);
  EXPECT_GT(offers, used);
}

TEST(NetSubcomm, IsolationAndDeterministicKeys) {
  run_net_threads(4, [](Comm& c) -> Task<void> {
    // Same tag on world and on the even/odd subcomm; never cross-matches.
    std::vector<int> mine;
    for (int r = c.rank() % 2; r < 4; r += 2) {
      mine.push_back(r);
    }
    auto sub = c.create_subcomm(mine);
    const int speer = 1 - sub->rank();
    Buffer w = Buffer::real(4);
    Buffer s = Buffer::real(4);
    Buffer rw = Buffer::real(4);
    Buffer rs = Buffer::real(4);
    w.typed<int>()[0] = 10 + c.rank();
    s.typed<int>()[0] = 20 + c.rank();
    const int wpeer = (c.rank() + 2) % 4;  // same parity: also in `mine`
    co_await c.sendrecv(w.view(), wpeer, 5, rw.view(), wpeer, 5);
    co_await sub->sendrecv(s.view(), speer, 5, rs.view(), speer, 5);
    if (rw.typed<int>()[0] != 10 + wpeer) {
      throw std::runtime_error("world message misrouted");
    }
    if (rs.typed<int>()[0] != 20 + mine[static_cast<std::size_t>(speer)]) {
      throw std::runtime_error("subcomm message misrouted");
    }
  });
}

/// Run `body` on `ranks` ranks of `backend`: "sim", "smp" or "net".
void run_backend(const std::string& backend, int ranks,
                 const std::function<Task<void>(Comm&)>& body) {
  if (backend == "sim") {
    test::run_sim_flat(ranks, body);
  } else if (backend == "smp") {
    test::run_smp(ranks, body);
  } else {
    run_net_threads(ranks, body);
  }
}

/// One create_subcomm contract on every backend: each bad member list, and
/// each bad progression, throws the same exception type on every rank, and
/// the ranks can still create communicators afterwards. A list and the
/// equal progression are one set, also through a sub-communicator.
class SubcommContract : public ::testing::TestWithParam<std::string> {};

TEST_P(SubcommContract, BadListsThrowAlikeOnEveryRank) {
  constexpr int kRanks = 3;
  using rt::RankSet;
  struct BadList {
    const char* what;
    std::vector<int> (*members)(int rank);
    const char* expect;
  };
  static const BadList kBad[] = {
      {"empty", [](int) { return std::vector<int>{}; }, "invalid_argument"},
      {"member past the end",
       [](int) { return std::vector<int>{0, 1, 2, 3}; }, "out_of_range"},
      {"negative member", [](int) { return std::vector<int>{0, 1, -1, 2}; },
       "out_of_range"},
      {"range checked before duplicates",
       [](int) { return std::vector<int>{0, 1, 1, 2, 5}; }, "out_of_range"},
      {"duplicate member", [](int) { return std::vector<int>{0, 1, 2, 1}; },
       "invalid_argument"},
      {"caller not listed",
       [](int rank) { return std::vector<int>{(rank + 1) % kRanks}; },
       "invalid_argument"},
  };
  struct BadProgression {
    const char* what;
    RankSet (*members)(int rank);
    const char* expect;
  };
  static const BadProgression kBadProgressions[] = {
      {"count 0", [](int) { return RankSet::progression(0, 0, 1); },
       "invalid_argument"},
      {"negative count", [](int) { return RankSet::progression(0, -2, 1); },
       "invalid_argument"},
      {"last member past the end",
       [](int) { return RankSet::progression(0, 4, 1); }, "out_of_range"},
      {"negative first", [](int) { return RankSet::progression(-1, 4, 1); },
       "out_of_range"},
      {"negative last", [](int) { return RankSet::progression(2, 4, -1); },
       "out_of_range"},
      {"range checked before stride 0",
       [](int) { return RankSet::progression(5, 2, 0); }, "out_of_range"},
      {"stride 0", [](int) { return RankSet::progression(1, 3, 0); },
       "invalid_argument"},
      {"count times stride overflows int",
       [](int) { return RankSet::progression(0, INT_MAX, INT_MAX); },
       "out_of_range"},
      {"count times negative stride overflows int",
       [](int) { return RankSet::progression(2, INT_MAX, INT_MIN); },
       "out_of_range"},
      {"caller not a member",
       [](int rank) {
         // The two other ranks: strides 1, -2 and 1 on ranks 0, 1 and 2.
         const int a = (rank + 1) % kRanks;
         const int b = (rank + 2) % kRanks;
         return RankSet::progression(a, 2, b - a);
       },
       "invalid_argument"},
  };
  constexpr std::size_t kLists = std::size(kBad);
  constexpr std::size_t kCases = kLists + std::size(kBadProgressions);
  const auto expected = [&](std::size_t i) {
    return i < kLists ? kBad[i].expect : kBadProgressions[i - kLists].expect;
  };
  std::vector<std::string> got(kRanks * kCases);
  const auto body = [&](Comm& c) -> Task<void> {
    for (std::size_t i = 0; i < kCases; ++i) {
      std::string& kind = got[static_cast<std::size_t>(c.rank()) * kCases + i];
      try {
        if (i < kLists) {
          (void)c.create_subcomm(kBad[i].members(c.rank()));
        } else {
          (void)c.create_subcomm(kBadProgressions[i - kLists].members(c.rank()));
        }
        kind = "none";
      } catch (const std::out_of_range&) {
        kind = "out_of_range";
      } catch (const std::invalid_argument&) {
        kind = "invalid_argument";
      } catch (...) {
        kind = "other";
      }
    }
    // A rejected set counts no creation: the ranks still agree. Odd and
    // even ranks pass the forms of one set in opposite orders, and still
    // join the same two communicators (the k-th creation rule).
    const std::vector<int> list{2, 1, 0};
    const RankSet down = RankSet::progression(2, 3, -1);
    const bool even = c.rank() % 2 == 0;
    std::unique_ptr<Comm> first = c.create_subcomm(even ? RankSet(list) : down);
    std::unique_ptr<Comm> second = c.create_subcomm(even ? down : RankSet(list));
    // A progression over a sub-communicator composes: ranks 2, 1, 0 of
    // `first` are world ranks 0, 1, 2, the set the odd ranks list.
    std::unique_ptr<Comm> composed =
        even ? first->create_subcomm(down)
             : c.create_subcomm(std::vector<int>{0, 1, 2});
    EXPECT_EQ(composed->rank(), c.rank());
    // Every ring carries its own value; a rank that joined another
    // communicator than its peers would misroute or never be matched.
    Comm* const subs[] = {first.get(), second.get(), composed.get()};
    int expect_offset = 0;
    for (Comm* sub : subs) {
      Buffer out = Buffer::real(sizeof(int));
      Buffer in = Buffer::real(sizeof(int));
      out.typed<int>()[0] = expect_offset + c.rank();
      const int next = (sub->rank() + 1) % kRanks;
      const int prev = (sub->rank() + kRanks - 1) % kRanks;
      co_await sub->sendrecv(out.view(), next, 4, in.view(), prev, 4);
      const int prev_world = sub == composed.get() ? prev : 2 - prev;
      EXPECT_EQ(in.typed<int>()[0], expect_offset + prev_world);
      expect_offset += 10;
    }
  };
  run_backend(GetParam(), kRanks, body);
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kCases; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(r) * kCases + i], expected(i))
          << (i < kLists ? kBad[i].what : kBadProgressions[i - kLists].what)
          << ", rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SubcommContract,
                         ::testing::Values("sim", "smp", "net"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

/// One point-to-point argument contract on every backend (rt::Comm):
/// isend and irecv throw before anything is queued — out_of_range for a
/// rank outside the communicator, then invalid_argument for a negative tag
/// — and irecv accepts kAnySource and kAnyTag. The blocking send, recv and
/// sendrecv throw the same at their co_await; sendrecv checks its send
/// half first, and a bad half of either kind sends nothing.
class P2PContract : public ::testing::TestWithParam<std::string> {};

TEST_P(P2PContract, BadArgumentsThrowAlike) {
  constexpr int kRanks = 3;
  enum class Call { kIsend, kIrecv, kSend, kRecv, kSendRecv };
  struct BadCall {
    const char* what;
    Call call;
    int peer;  ///< the destination of a send, else the receive's source
    int tag;   ///< the send's tag, else the receive's tag
    const char* expect;
    int src = 1;   ///< sendrecv: the receive's source
    int rtag = 4;  ///< sendrecv: the receive's tag
  };
  static const BadCall kBad[] = {
      {"isend past the end", Call::kIsend, kRanks, 4, "out_of_range"},
      {"isend to rank -1", Call::kIsend, -1, 4, "out_of_range"},
      {"isend to INT_MIN", Call::kIsend, std::numeric_limits<int>::min(), 4,
       "out_of_range"},
      {"isend with tag -5", Call::kIsend, 1, -5, "invalid_argument"},
      {"isend with kAnyTag", Call::kIsend, 1, rt::kAnyTag, "invalid_argument"},
      {"isend checks the rank first", Call::kIsend, kRanks, -5,
       "out_of_range"},
      {"irecv past the end", Call::kIrecv, kRanks, 4, "out_of_range"},
      {"irecv from rank -2", Call::kIrecv, -2, 4, "out_of_range"},
      {"irecv with tag -5", Call::kIrecv, 1, -5, "invalid_argument"},
      {"irecv checks the rank first", Call::kIrecv, kRanks, -5,
       "out_of_range"},
      {"send past the end", Call::kSend, kRanks, 4, "out_of_range"},
      {"send to rank -1", Call::kSend, -1, 4, "out_of_range"},
      {"send with tag -5", Call::kSend, 1, -5, "invalid_argument"},
      {"send checks the rank first", Call::kSend, kRanks, -5, "out_of_range"},
      {"recv past the end", Call::kRecv, kRanks, 4, "out_of_range"},
      {"recv from rank -2", Call::kRecv, -2, 4, "out_of_range"},
      {"recv with tag -5", Call::kRecv, 1, -5, "invalid_argument"},
      {"sendrecv to a rank past the end", Call::kSendRecv, kRanks, 4,
       "out_of_range"},
      {"sendrecv with send tag -5", Call::kSendRecv, 1, -5,
       "invalid_argument"},
      {"sendrecv checks the send first", Call::kSendRecv, 1, -5,
       "invalid_argument", /*src=*/kRanks},
  };
  // sendrecv whose receive half is bad: its isend, to this rank with
  // kStrayTag, is valid and must not be posted either.
  constexpr int kStrayTag = 9;
  static const BadCall kBadReceiveHalf[] = {
      {"sendrecv from rank -2", Call::kSendRecv, 0, kStrayTag, "out_of_range",
       /*src=*/-2},
      {"sendrecv with receive tag -5", Call::kSendRecv, 0, kStrayTag,
       "invalid_argument", /*src=*/1, /*rtag=*/-5},
  };
  constexpr std::size_t kCases = std::size(kBad) + std::size(kBadReceiveHalf);
  std::vector<std::string> got(kRanks * kCases);
  std::vector<std::uint64_t> sent(kRanks * kCases, 0);
  run_backend(GetParam(), kRanks, [&](Comm& c) -> Task<void> {
    // Messages the simulator has sent so far (0 on the other backends).
    const auto messages = [&c] {
      auto* sc = dynamic_cast<sim::SimComm*>(&c);
      return sc != nullptr ? sc->cluster().messages_sent() : std::uint64_t{0};
    };
    Buffer b = Buffer::real(sizeof(int));
    Buffer in = Buffer::real(sizeof(int));
    for (std::size_t i = 0; i < kCases; ++i) {
      BadCall bad = i < std::size(kBad) ? kBad[i]
                                        : kBadReceiveHalf[i - std::size(kBad)];
      if (i >= std::size(kBad)) {
        bad.peer = c.rank();
      }
      const std::size_t slot = static_cast<std::size_t>(c.rank()) * kCases + i;
      std::string& kind = got[slot];
      const std::uint64_t before = messages();
      try {
        switch (bad.call) {
          case Call::kIsend:
            (void)c.isend(b.view(), bad.peer, bad.tag);
            break;
          case Call::kIrecv:
            (void)c.irecv(b.view(), bad.peer, bad.tag);
            break;
          case Call::kSend:
            co_await c.send(b.view(), bad.peer, bad.tag);
            break;
          case Call::kRecv:
            co_await c.recv(b.view(), bad.peer, bad.tag);
            break;
          case Call::kSendRecv:
            co_await c.sendrecv(b.view(), bad.peer, bad.tag, in.view(),
                                bad.src, bad.rtag);
            break;
        }
        kind = "none";
      } catch (const std::out_of_range&) {
        kind = "out_of_range";
      } catch (const std::invalid_argument&) {
        kind = "invalid_argument";
      } catch (...) {
        kind = "other";
      }
      sent[slot] = messages() - before;
    }
    // Nothing was queued: a wildcard receive meets only this ring
    // message.
    Buffer out = Buffer::real(sizeof(int));
    out.typed<int>()[0] = c.rank();
    const int next = (c.rank() + 1) % kRanks;
    const int prev = (c.rank() + kRanks - 1) % kRanks;
    co_await c.sendrecv(out.view(), next, 4, in.view(), rt::kAnySource,
                        rt::kAnyTag);
    EXPECT_EQ(in.typed<int>()[0], prev);
  });
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kCases; ++i) {
      const bool receive_half = i >= std::size(kBad);
      const BadCall& bad =
          receive_half ? kBadReceiveHalf[i - std::size(kBad)] : kBad[i];
      const std::size_t slot = static_cast<std::size_t>(r) * kCases + i;
      EXPECT_EQ(got[slot], bad.expect) << bad.what << ", rank " << r;
      EXPECT_EQ(sent[slot], 0u) << bad.what << ", rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, P2PContract,
                         ::testing::Values("sim", "smp", "net"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

/// One matching rule on every backend (rt::MatchQueue). Receives posted
/// before their messages arrive go earliest-posted first; receives posted
/// after their messages arrived take the earliest arrival. Each phase has
/// one sender, so the expected matches do not depend on how the traffic of
/// different sources interleaves.
class MatchOrder : public ::testing::TestWithParam<std::string> {};

TEST_P(MatchOrder, EarliestPostedAndEarliestArrivedWin) {
  constexpr int kGo = 1;      ///< rank 0 -> a sender: start the phase
  constexpr int kMarker = 2;  ///< sender -> rank 0: every message is out
  constexpr int kMsgs = 6;
  // Both senders send message i with tag kTags[i] and payload {rank, i}.
  static constexpr int kTags[kMsgs] = {5, 6, 5, 7, 6, 8};
  struct Recv {
    int src;
    int tag;
    int expect;  ///< index of the message this receive must get
  };
  // Phase 1: rank 0 posts these, in this order, before rank 1 sends.
  static constexpr Recv kPosted[kMsgs] = {
      {rt::kAnySource, 7, 3},
      {rt::kAnySource, 5, 0},  // beats the later (1, 5) for message 0
      {1, 5, 2},
      {1, rt::kAnyTag, 1},  // beats the later (1, 6) for message 1
      {1, 6, 4},
      {rt::kAnySource, rt::kAnyTag, 5},
  };
  // Phase 2: rank 0 posts these only after all of rank 2's messages
  // arrived (its marker follows them on the same pair).
  static constexpr Recv kUnexpected[kMsgs] = {
      {rt::kAnySource, 6, 1},  // skips message 0 (tag 5)
      {2, rt::kAnyTag, 0},
      {rt::kAnySource, rt::kAnyTag, 2},
      {2, 6, 4},
      {rt::kAnySource, 7, 3},
      {2, 8, 5},
  };
  constexpr std::size_t kLen = 2 * sizeof(int);
  run_backend(GetParam(), 3, [&](Comm& c) -> Task<void> {
    Buffer token = Buffer::real(kLen);
    if (c.rank() != 0) {
      co_await c.recv(token.view(), 0, kGo);
      Buffer out = Buffer::real(kLen);
      for (int i = 0; i < kMsgs; ++i) {
        out.typed<int>()[0] = c.rank();
        out.typed<int>()[1] = i;
        co_await c.send(out.view(), 0, kTags[i]);
      }
      co_await c.send(token.view(), 0, kMarker);
      co_return;
    }
    const auto post_all = [&](const Recv(&recvs)[kMsgs],
                              std::vector<Buffer>& in,
                              std::vector<Request>& reqs) {
      for (const Recv& r : recvs) {
        in.push_back(Buffer::real(kLen));
        reqs.push_back(c.irecv(in.back().view(), r.src, r.tag));
      }
    };
    const auto check = [&](const Recv(&recvs)[kMsgs],
                           const std::vector<Buffer>& in, int sender) {
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(in[static_cast<std::size_t>(i)].typed<int>()[0], sender)
            << "receive " << i << " of sender " << sender;
        EXPECT_EQ(in[static_cast<std::size_t>(i)].typed<int>()[1],
                  recvs[i].expect)
            << "receive " << i << " of sender " << sender;
      }
    };
    for (const int sender : {1, 2}) {
      std::vector<Buffer> in;
      std::vector<Request> reqs;
      in.reserve(kMsgs);
      if (sender == 1) {
        post_all(kPosted, in, reqs);
        co_await c.send(token.view(), sender, kGo);
        co_await c.recv(token.view(), sender, kMarker);
      } else {
        co_await c.send(token.view(), sender, kGo);
        co_await c.recv(token.view(), sender, kMarker);
        post_all(kUnexpected, in, reqs);
      }
      co_await c.wait_all(reqs);
      check(sender == 1 ? kPosted : kUnexpected, in, sender);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, MatchOrder,
                         ::testing::Values("sim", "smp", "net"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

/// execute() and start()/wait() are one operation on every backend. Each
/// rank makes kN execute() calls, then kN start()+wait() calls, on an
/// alltoall plan and an in-place allreduce plan, each plan on its own
/// communicator. Every call moves the right bytes; each plan counts 2 kN
/// executions and draws tag streams 1..2 kN; the registry's
/// plan.executions and plan.exec_micros.<backend>.<op> grow by exactly
/// that. A rejected execute() throws at its co_await and, like a rejected
/// start(), draws no stream and counts nothing. On sim the run is repeated
/// with the halves swapped, and every call's per-rank virtual duration
/// must equal the other form's at the same position, bit for bit.
class CollectivePlan : public ::testing::TestWithParam<std::string> {};

TEST_P(CollectivePlan, ExecuteMatchesStartWait) {
  constexpr int kRanks = 4;
  constexpr int kN = 3;
  constexpr int kCalls = 2 * kN;
  constexpr std::size_t kBlock = 16;
  constexpr std::size_t kCount = 8;
  const std::string backend = GetParam();
  const topo::Machine machine = topo::generic(2, 2);
  const model::NetParams net = model::test_params();
  obs::Counter& execs = obs::metrics().counter("plan.executions");
  obs::Histogram& a2a_micros =
      obs::metrics().histogram("plan.exec_micros." + backend + ".alltoall");
  obs::Histogram& ar_micros =
      obs::metrics().histogram("plan.exec_micros." + backend + ".allreduce");

  // Per-call durations on each rank, [plan][rank][call].
  const auto slot = [](int plan, int rank, int call) {
    return static_cast<std::size_t>((plan * kRanks + rank) * kCalls + call);
  };
  const auto run = [&](bool execute_first) {
    std::vector<double> dur(slot(2, 0, 0), 0.0);
    const std::uint64_t execs0 = execs.value();
    const std::uint64_t a2a0 = a2a_micros.count();
    const std::uint64_t ar0 = ar_micros.count();
    run_backend(backend, kRanks, [&](Comm& world) -> Task<void> {
      std::vector<int> all(kRanks);
      std::iota(all.begin(), all.end(), 0);
      std::unique_ptr<Comm> a2a_comm = world.create_subcomm(all);
      std::unique_ptr<Comm> ar_comm = world.create_subcomm(all);
      coll::AlltoallDesc ad;
      ad.block = kBlock;
      ad.algo = coll::Algo::kNodeAware;
      plan::CollectivePlan a2a = plan::make_plan(*a2a_comm, machine, net, ad);
      coll::AllreduceDesc rd;
      rd.count = kCount;
      rd.combiner = coll::sum_combiner<std::int64_t>();
      rd.algo = coll::AllreduceAlgo::kNodeAware;
      plan::CollectivePlan ar = plan::make_plan(*ar_comm, machine, net, rd);
      const int me = world.rank();
      Buffer send = Buffer::real(kBlock * kRanks);
      Buffer recv = Buffer::real(kBlock * kRanks);
      Buffer data = Buffer::real(kCount * sizeof(std::int64_t));
      Buffer bad = Buffer::real(kBlock);

      // start() rejects at the call; execute() only at its co_await.
      EXPECT_THROW((void)a2a.start(rt::ConstView(bad.view()), recv.view()),
                   std::invalid_argument);
      EXPECT_THROW((void)ar.start_inplace(bad.view()), std::invalid_argument);
      Task<void> bad_a2a = a2a.execute(rt::ConstView(bad.view()), recv.view());
      Task<void> bad_ar = ar.execute_inplace(bad.view());
      int rejected = 0;
      try {
        co_await std::move(bad_a2a);
      } catch (const std::invalid_argument&) {
        ++rejected;
      }
      try {
        co_await std::move(bad_ar);
      } catch (const std::invalid_argument&) {
        ++rejected;
      }
      EXPECT_EQ(rejected, 2);

      // Byte b of the block rank `from` sends rank `to` in call k.
      const auto byte_of = [](int from, int to, int k, std::size_t b) {
        return static_cast<std::byte>(from * 31 + to * 7 + k * 3 +
                                      static_cast<int>(b));
      };
      for (int k = 0; k < kCalls; ++k) {
        const bool execute = (k < kN) == execute_first;
        for (int to = 0; to < kRanks; ++to) {
          for (std::size_t b = 0; b < kBlock; ++b) {
            send.data()[static_cast<std::size_t>(to) * kBlock + b] =
                byte_of(me, to, k, b);
          }
        }
        std::memset(recv.data(), 0xee, recv.size());
        double t0 = world.now();
        if (execute) {
          co_await a2a.execute(rt::ConstView(send.view()), recv.view());
        } else {
          plan::CollectiveHandle h =
              a2a.start(rt::ConstView(send.view()), recv.view());
          EXPECT_EQ(h.tag_stream(), k + 1);
          co_await h.wait();
        }
        dur[slot(0, me, k)] = world.now() - t0;
        for (int from = 0; from < kRanks; ++from) {
          for (std::size_t b = 0; b < kBlock; ++b) {
            EXPECT_EQ(recv.data()[static_cast<std::size_t>(from) * kBlock + b],
                      byte_of(from, me, k, b))
                << "alltoall call " << k << ", block from " << from;
          }
        }

        const std::span<std::int64_t> vals = data.typed<std::int64_t>();
        for (std::size_t e = 0; e < kCount; ++e) {
          vals[e] = me * 100 + k * 10 + static_cast<std::int64_t>(e);
        }
        t0 = world.now();
        if (execute) {
          co_await ar.execute_inplace(data.view());
        } else {
          plan::CollectiveHandle h = ar.start_inplace(data.view());
          EXPECT_EQ(h.tag_stream(), k + 1);
          co_await h.wait();
        }
        dur[slot(1, me, k)] = world.now() - t0;
        for (std::size_t e = 0; e < kCount; ++e) {
          // sum over ranks r of r * 100 + k * 10 + e.
          EXPECT_EQ(vals[e], 600 + kRanks * (k * 10 + static_cast<int>(e)))
              << "allreduce call " << k << ", element " << e;
        }
      }
      EXPECT_EQ(a2a.executions(), std::uint64_t{kCalls});
      EXPECT_EQ(ar.executions(), std::uint64_t{kCalls});
      // Every call drew exactly one stream and the rejected ones none.
      EXPECT_EQ(a2a_comm->acquire_tag_stream(), kCalls + 1);
      EXPECT_EQ(ar_comm->acquire_tag_stream(), kCalls + 1);
    });
    EXPECT_EQ(execs.value() - execs0, std::uint64_t{2 * kRanks * kCalls});
    EXPECT_EQ(a2a_micros.count() - a2a0, std::uint64_t{kRanks * kCalls});
    EXPECT_EQ(ar_micros.count() - ar0, std::uint64_t{kRanks * kCalls});
    return dur;
  };
  const std::vector<double> execute_first = run(true);
  const std::vector<double> start_first = run(false);
  if (backend == "sim") {
    for (std::size_t i = 0; i < execute_first.size(); ++i) {
      EXPECT_GT(execute_first[i], 0.0) << "slot " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(execute_first[i]),
                std::bit_cast<std::uint64_t>(start_first[i]))
          << "slot " << i << ": " << execute_first[i] << " vs "
          << start_first[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CollectivePlan,
                         ::testing::Values("sim", "smp", "net"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

TEST(NetTeardown, PeerLossErrorsInsteadOfHanging) {
  run_net_threads(3, [](Comm& c) -> Task<void> {
    auto& nc = static_cast<net::NetComm&>(c);
    if (c.rank() == 1) {
      // Drop every socket without the Bye handshake.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      nc.endpoint().abort_for_test();
      co_return;
    }
    Buffer b = Buffer::real(1 << 16);
    bool threw = false;
    try {
      const Request r = c.irecv(b.view(), 1, 3);
      c.wait_try({&r, 1});
    } catch (const std::runtime_error& e) {
      threw = std::string(e.what()).find("lost") != std::string::npos;
    }
    if (!threw) {
      throw std::runtime_error("peer loss did not error the wait");
    }
  });
}

TEST(NetTeardown, SendToDeadPeerErrorsInsteadOfSigpipe) {
  run_net_threads(2, [](Comm& c) -> Task<void> {
    auto& nc = static_cast<net::NetComm&>(c);
    if (c.rank() == 1) {
      nc.endpoint().abort_for_test();  // no Bye, no flush: looks crashed
      co_return;
    }
    // Keep flushing eager frames at the dead peer. The first writes land
    // in the socket buffer; once the peer's RST comes back the kernel
    // returns EPIPE, which must surface as the documented runtime_error —
    // not as a process-killing SIGPIPE (all socket writes use
    // MSG_NOSIGNAL). Unlike the receive-side test above, this drives the
    // *write* path against a reset connection.
    Buffer b = Buffer::real(512);
    bool threw = false;
    try {
      for (int i = 0; i < 10000 && !threw; ++i) {
        (void)c.isend(b.view(), 1, 4);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const std::runtime_error&) {
      threw = true;
    }
    if (!threw) {
      throw std::runtime_error("send to dead peer did not error");
    }
    co_return;
  });
}

TEST(NetTeardown, FailedEndpointWritesNoReceiveBuffer) {
  // Rank 1 crashes while rank 0 has a 24 KiB receive from rank 2 posted
  // (and offered). Rank 0's wait throws and its buffer goes away; only
  // then does rank 2 send the body, which sits in rank 0's socket during
  // teardown. A failed endpoint must not drain it into the freed buffer
  // (under ASan that write is a heap-use-after-free).
  std::atomic<bool> go_seen{false};
  std::atomic<bool> thrown{false};
  std::atomic<bool> sent{false};
  const auto wait_for = [](const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  constexpr std::size_t kBytes = 24 * 1024;
  run_net_threads(3, [&](Comm& c) -> Task<void> {
    if (c.rank() == 1) {
      wait_for(go_seen);
      static_cast<net::NetComm&>(c).endpoint().abort_for_test();
      co_return;
    }
    if (c.rank() == 2) {
      co_await c.recv(rt::MutView{}, 0, 7);
      go_seen = true;
      wait_for(thrown);
      Buffer b = Buffer::real(kBytes);
      const Request r = c.isend(b.view(), 0, 5);
      sent = true;
      try {
        c.wait_try({&r, 1});
      } catch (const std::runtime_error&) {
        // Rank 1's crash may reach this rank first; the body is queued.
      }
      co_return;
    }
    {
      Buffer b = Buffer::real(kBytes);
      (void)c.irecv(b.view(), 2, 5);
      const Request from1 = c.irecv(rt::MutView{}, 1, 6);
      (void)c.isend(rt::ConstView{}, 2, 7);
      try {
        c.wait_try({&from1, 1});
      } catch (const std::runtime_error&) {
        thrown = true;
      }
      wait_for(sent);
    }
    if (!thrown) {
      throw std::runtime_error("rank 1's crash did not fail the wait");
    }
  });
}

TEST(NetObs, CountersAndBackendName) {
  const auto& reg = obs::metrics();
  const std::uint64_t eager0 = reg.counter_value("net.eager_tx");
  const std::uint64_t frames0 = reg.counter_value("net.frames_tx");
  run_net_threads(2, [](Comm& c) -> Task<void> {
    if (c.backend_name() != "net") {
      throw std::runtime_error("backend_name");
    }
    if (c.now() < 0.0) {
      throw std::runtime_error("clock");
    }
    Buffer b = Buffer::real(256);
    co_await c.sendrecv(b.view(), 1 - c.rank(), 6, b.view(), 1 - c.rank(), 6);
  });
  EXPECT_GT(reg.counter_value("net.eager_tx"), eager0);
  EXPECT_GT(reg.counter_value("net.frames_tx"), frames0);
}

TEST(NetObs, SameHostRailsUseUnixSockets) {
  // Two ranks in one network namespace: every rail of both (two ranks,
  // two rails each) is an AF_UNIX socket, and the datapath runs on them.
  const auto& reg = obs::metrics();
  const std::uint64_t conns0 = reg.counter_value("net.connections");
  const std::uint64_t unix0 = reg.counter_value("net.connections_unix");
  run_net_threads(2, [](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    Buffer s = Buffer::real(64 << 10);
    Buffer r = Buffer::real(64 << 10);
    co_await c.sendrecv(s.view(), peer, 3, r.view(), peer, 3);
  });
  EXPECT_EQ(reg.counter_value("net.connections") - conns0, 4u);
  EXPECT_EQ(reg.counter_value("net.connections_unix") - unix0, 4u);
}

TEST(NetObs, BusyPollFollowsCpuAffinity) {
  // The progress mode is picked at bootstrap: poll when this host's ranks
  // fit the CPUs a rank may run on. Rank threads inherit the launching
  // thread's affinity mask, so pinned to one CPU two ranks must sleep in
  // epoll_wait; with the mask restored (two CPUs or more) they poll.
  cpu_set_t saved;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) {
    ++first;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  struct RestoreMask {
    const cpu_set_t& mask;
    ~RestoreMask() { ::sched_setaffinity(0, sizeof(mask), &mask); }
  };
  auto exchange = [](Comm& c) -> Task<void> {
    const int peer = 1 - c.rank();
    Buffer s = Buffer::real(64);
    Buffer r = Buffer::real(64);
    co_await c.sendrecv(s.view(), peer, 8, r.view(), peer, 8);
  };
  const auto& reg = obs::metrics();
  {
    RestoreMask restore{saved};
    ASSERT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
    run_net_threads(2, exchange);
    EXPECT_EQ(reg.gauge_value("net.busy_poll"), 0);
  }
  if (CPU_COUNT(&saved) >= 2) {
    run_net_threads(2, exchange);
    EXPECT_EQ(reg.gauge_value("net.busy_poll"), 1);
  }
}

}  // namespace
}  // namespace mca2a
