#pragma once
/// Shared test helpers: deterministic payload patterns (so any misrouted or
/// corrupted byte is caught), and one-line drivers for both backends.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "coll_ext/allreduce.hpp"
#include "coll_ext/op_desc.hpp"
#include "model/presets.hpp"
#include "runtime/buffer.hpp"
#include "runtime/comm.hpp"
#include "runtime/task.hpp"
#include "sim/cluster.hpp"
#include "smp/smp_runtime.hpp"
#include "topo/presets.hpp"

namespace mca2a::test {

/// Descriptors that leave the algorithm to the tuner, for selection tests
/// (partial aggregate initializers trip -Wmissing-field-initializers).
inline coll::OpDesc alltoall_desc(std::size_t block) {
  coll::AlltoallDesc d;
  d.block = block;
  return d;
}

inline coll::OpDesc allgather_desc(std::size_t block) {
  coll::AllgatherDesc d;
  d.block = block;
  return d;
}

/// `count` elements of `elem_size` bytes. The combiner sums doubles, so
/// plan and execute only with the default element size.
inline coll::OpDesc allreduce_desc(std::size_t count,
                                   std::size_t elem_size = sizeof(double)) {
  coll::AllreduceDesc d;
  d.count = count;
  d.combiner = coll::sum_combiner<double>();
  d.combiner.elem_size = elem_size;
  return d;
}

/// An alltoallv described by its skew signature alone (no count vectors).
inline coll::OpDesc alltoallv_desc(const coll::AlltoallvSkew& skew) {
  coll::AlltoallvDesc d;
  d.skew = skew;
  return d;
}

/// Pattern byte for the k-th byte of the (src -> dst) block.
inline std::byte pattern(int src, int dst, std::size_t k) {
  return static_cast<std::byte>((src * 131 + dst * 17 +
                                 static_cast<int>(k % 251) * 7) &
                                0xFF);
}

/// Fill an alltoall send buffer: block d carries pattern(me, d, .).
inline void fill_send(rt::Buffer& buf, int me, int p, std::size_t block) {
  auto bytes = buf.view();
  for (int d = 0; d < p; ++d) {
    for (std::size_t k = 0; k < block; ++k) {
      bytes.ptr[d * block + k] = pattern(me, d, k);
    }
  }
}

/// Check an alltoall recv buffer: block s must carry pattern(s, me, .).
inline ::testing::AssertionResult check_recv(const rt::Buffer& buf, int me,
                                             int p, std::size_t block) {
  auto bytes = buf.view();
  for (int s = 0; s < p; ++s) {
    for (std::size_t k = 0; k < block; ++k) {
      const std::byte want = pattern(s, me, k);
      const std::byte got = bytes.ptr[s * block + k];
      if (got != want) {
        return ::testing::AssertionFailure()
               << "rank " << me << ": block from " << s << " byte " << k
               << ": got " << static_cast<int>(got) << " want "
               << static_cast<int>(want);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Run `body` as every rank of a simulated cluster (payloads carried).
/// Returns the final virtual time; `messages`, when given, receives the
/// number of messages the run sent.
inline double run_sim(const topo::Machine& machine,
                      const std::function<rt::Task<void>(rt::Comm&)>& body,
                      model::NetParams net = model::test_params(),
                      bool carry_data = true, std::uint64_t seed = 1,
                      std::uint64_t* messages = nullptr) {
  sim::ClusterConfig cfg;
  cfg.machine = machine.desc();
  cfg.net = std::move(net);
  cfg.carry_data = carry_data;
  cfg.noise_seed = seed;
  sim::Cluster cluster(cfg);
  const double t = cluster.run(body);
  if (messages != nullptr) {
    *messages = cluster.messages_sent();
  }
  return t;
}

/// Run `body` as every rank of a flat simulated machine.
inline double run_sim_flat(
    int ranks, const std::function<rt::Task<void>(rt::Comm&)>& body) {
  return run_sim(topo::generic(1, ranks), body);
}

/// Run `body` on the threads backend with `ranks` OS threads.
inline void run_smp(int ranks,
                    const std::function<rt::Task<void>(rt::Comm&)>& body) {
  smp::run_threads(ranks, body);
}

/// Two communicators over world ranks {0, 1} held by one rank.
using CommPair =
    std::pair<std::unique_ptr<rt::Comm>, std::unique_ptr<rt::Comm>>;

/// Ways two ranks come to hold the same two separate communicators under
/// the k-th-creation rule: a rank's k-th creation over a world-rank list
/// joins the k-th communicator over that list.
struct KthCreationCase {
  const char* name;
  std::function<CommPair(rt::Comm& world)> make;
};

inline std::vector<KthCreationCase> kth_creation_cases() {
  return {
      {"lists A and B created in opposite orders",
       [](rt::Comm& world) {
         const std::vector<int> a{0, 1};
         const std::vector<int> b{1, 0};
         CommPair p;
         if (world.rank() == 0) {
           p.first = world.create_subcomm(a);
           p.second = world.create_subcomm(b);
         } else {
           p.second = world.create_subcomm(b);
           p.first = world.create_subcomm(a);
         }
         return p;
       }},
      {"one list created twice",
       [](rt::Comm& world) {
         const std::vector<int> both{0, 1};
         CommPair p;
         p.first = world.create_subcomm(both);
         p.second = world.create_subcomm(both);
         return p;
       }},
      {"a sub-communicator of a sub-communicator",
       [](rt::Comm& world) {
         // Rank 0 reaches world list [0, 1] through [1, 0]; rank 1
         // creates it from the world directly.
         const std::vector<int> reversed{1, 0};
         CommPair p;
         p.first = world.create_subcomm(reversed);
         p.second = world.rank() == 0
                        ? p.first->create_subcomm(reversed)
                        : world.create_subcomm(std::vector<int>{0, 1});
         return p;
       }},
  };
}

/// Both ranks send one value on `a` and another on `b` with the same tag,
/// then receive on `b` before `a`: a message that crossed communicators
/// lands in the wrong receive.
inline rt::Task<void> expect_separate_contexts(rt::Comm& world, rt::Comm& a,
                                               rt::Comm& b) {
  constexpr int kTag = 9;
  const int me = world.rank();
  rt::Buffer out = rt::Buffer::real(2 * sizeof(int));
  out.typed<int>()[0] = 10 * me + 1;
  out.typed<int>()[1] = 10 * me + 2;
  const rt::Request on_a =
      a.isend(out.view(0, sizeof(int)), 1 - a.rank(), kTag);
  const rt::Request on_b =
      b.isend(out.view(sizeof(int), sizeof(int)), 1 - b.rank(), kTag);
  rt::Buffer in = rt::Buffer::real(sizeof(int));
  co_await b.recv(in.view(), 1 - b.rank(), kTag);
  EXPECT_EQ(in.typed<int>()[0], 10 * (1 - me) + 2) << "rank " << me << " on b";
  co_await a.recv(in.view(), 1 - a.rank(), kTag);
  EXPECT_EQ(in.typed<int>()[0], 10 * (1 - me) + 1) << "rank " << me << " on a";
  co_await a.wait(on_a);
  co_await b.wait(on_b);
}

}  // namespace mca2a::test
