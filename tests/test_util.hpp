#pragma once
/// Shared test helpers: deterministic payload patterns (so any misrouted or
/// corrupted byte is caught), and one-line drivers for both backends.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>

#include "model/presets.hpp"
#include "runtime/buffer.hpp"
#include "runtime/comm.hpp"
#include "runtime/task.hpp"
#include "sim/cluster.hpp"
#include "smp/smp_runtime.hpp"
#include "topo/presets.hpp"

namespace mca2a::test {

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

}  // namespace mca2a::test
