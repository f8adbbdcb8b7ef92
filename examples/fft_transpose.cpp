/// \file fft_transpose.cpp
/// The paper's motivating workload: the global matrix transpose at the
/// heart of a distributed 2-D FFT. An N x N matrix is distributed by rows
/// (N/p contiguous rows per rank); the transpose re-distributes it by
/// columns. The communication pattern is exactly MPI_Alltoall with blocks
/// of (N/p)^2 elements, plus local pre/post packing.
///
/// Runs on the threads backend, validates the transpose element-by-element,
/// and compares the direct and locality-aware algorithms. The exchange
/// executes through a persistent CollectivePlan — the transpose of an
/// iterative FFT repeats the same descriptor every step, so setup is paid
/// once.
///
///   ./build/examples/fft_transpose [ranks] [N]

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/alltoall.hpp"
#include "model/presets.hpp"
#include "plan/plan.hpp"
#include "runtime/collectives.hpp"
#include "smp/smp_runtime.hpp"
#include "topo/presets.hpp"

using namespace mca2a;
using Complexd = std::complex<double>;

namespace {

/// Value at matrix position (r, c).
Complexd element(int r, int c) {
  return Complexd(static_cast<double>(r) + 0.25,
                  static_cast<double>(c) - 0.5);
}

}  // namespace

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const int n = argc > 2 ? std::atoi(argv[2]) : 256;
  if (n % ranks != 0 || ranks % 2 != 0) {
    std::fprintf(stderr,
                 "need an even rank count dividing the matrix size "
                 "(got ranks=%d, N=%d)\n",
                 ranks, n);
    return 1;
  }
  const int rows_per_rank = n / ranks;
  const std::size_t block_elems =
      static_cast<std::size_t>(rows_per_rank) * rows_per_rank;
  const std::size_t block = block_elems * sizeof(Complexd);
  std::printf("fft_transpose: %dx%d matrix on %d ranks (%zu B blocks)\n", n, n,
              ranks, block);

  const topo::Machine machine = topo::generic(2, ranks / 2);
  const coll::Algo algos[] = {coll::Algo::kPairwiseDirect,
                              coll::Algo::kBruckDirect,
                              coll::Algo::kNodeAware};

  smp::SmpRuntime runtime(ranks);
  for (coll::Algo algo : algos) {
    std::vector<double> elapsed(ranks, 0.0);
    std::vector<int> errors(ranks, 0);
    runtime.run([&](rt::Comm& world) -> rt::Task<void> {
      const int me = world.rank();
      const int p = world.size();
      // Plan the exchange once, before packing: selection, communicator
      // construction and scratch live here, not in the timed region.
      coll::AlltoallDesc desc;
      desc.block = block;
      desc.algo = algo;
      plan::CollectivePlan pl =
          plan::make_plan(world, machine, model::test_params(), desc);

      // My rows [me*rows_per_rank, (me+1)*rows_per_rank), row-major.
      std::vector<Complexd> mine(static_cast<std::size_t>(rows_per_rank) * n);
      for (int r = 0; r < rows_per_rank; ++r) {
        for (int c = 0; c < n; ++c) {
          mine[static_cast<std::size_t>(r) * n + c] =
              element(me * rows_per_rank + r, c);
        }
      }

      // Pack: block d = my rows' columns owned by rank d after transpose,
      // i.e. the (rows_per_rank x rows_per_rank) tile (me, d).
      std::vector<Complexd> send(block_elems * p);
      for (int d = 0; d < p; ++d) {
        for (int r = 0; r < rows_per_rank; ++r) {
          for (int c = 0; c < rows_per_rank; ++c) {
            send[d * block_elems + r * rows_per_rank + c] =
                mine[static_cast<std::size_t>(r) * n + d * rows_per_rank + c];
          }
        }
      }

      std::vector<Complexd> recv(block_elems * p);
      rt::ConstView sview{reinterpret_cast<const std::byte*>(send.data()),
                          send.size() * sizeof(Complexd)};
      rt::MutView rview{reinterpret_cast<std::byte*>(recv.data()),
                        recv.size() * sizeof(Complexd)};

      co_await rt::barrier(world);
      const auto t0 = std::chrono::steady_clock::now();
      co_await pl.execute(sview, rview);
      co_await rt::barrier(world);
      elapsed[me] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();

      // Unpack: tile from rank s holds rows [s*rpr, ...) of the original,
      // columns [me*rpr, ...). Transposed, I own rows me*rpr.. as columns.
      // Validate transposed(r, c) == element(c_global, r_global).
      for (int s = 0; s < p; ++s) {
        for (int r = 0; r < rows_per_rank; ++r) {
          for (int c = 0; c < rows_per_rank; ++c) {
            // After transpose my row (me*rpr + c) column (s*rpr + r):
            const Complexd got = recv[s * block_elems + r * rows_per_rank + c];
            const Complexd want = element(s * rows_per_rank + r,
                                          me * rows_per_rank + c);
            if (got != want) {
              ++errors[me];
            }
          }
        }
      }
    });
    double worst = 0.0;
    int bad = 0;
    for (int r = 0; r < ranks; ++r) {
      worst = std::max(worst, elapsed[r]);
      bad += errors[r];
    }
    std::printf("  %-20s %8.3f ms   %s\n",
                std::string(coll::algo_name(algo)).c_str(), worst * 1e3,
                bad == 0 ? "transpose OK" : "TRANSPOSE WRONG");
  }
  return 0;
}
