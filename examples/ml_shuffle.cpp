/// \file ml_shuffle.cpp
/// Deep-learning motivation from the paper's introduction: the token
/// shuffle of a mixture-of-experts (MoE) layer. Every rank routes a batch
/// of tokens to the rank owning the chosen expert, processes the tokens it
/// receives, and routes them back — two all-to-all exchanges per layer.
///
/// Token counts per destination are unequal, so this is exactly the
/// irregular workload the locality-aware alltoallv targets. The example
/// runs the standard recipe end to end:
///
///   1. a regular 8-byte alltoall of per-peer byte counts (every rank
///      learns what it will receive);
///   2. an allgather of per-rank (total, max) so every rank agrees on the
///      global AlltoallvSkew signature — the tuner's collective input;
///   3. the shuffle itself through a locality-aware alltoallv plan
///      (multi-leader node-aware when the node width allows, hierarchical
///      otherwise), no padding, no capacity factor.
///
/// The imbalance factor the tuner saw, and what it would have picked, are
/// printed.
///
/// After the shuffle, the example switches to the data-parallel view of
/// the same training step: the backward pass fills gradient *buckets*, and
/// each bucket's allreduce is started nonblocking as soon as its bucket is
/// ready — the classic communication/compute overlap, expressed with
/// plan::Schedule over started handles. On this threads backend each
/// start() progresses eagerly (blocking-MPI semantics); the simulator
/// genuinely overlaps the buckets — bench/overlap_window.cpp measures it.
///
///   ./build/examples/ml_shuffle [ranks] [tokens-per-rank]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "coll_ext/alltoallv.hpp"
#include "coll_ext/ext_tuner.hpp"
#include "coll_ext/op_desc.hpp"
#include "core/alltoall.hpp"
#include "model/presets.hpp"
#include "plan/plan.hpp"
#include "plan/schedule.hpp"
#include "runtime/collectives.hpp"
#include "smp/smp_runtime.hpp"
#include "topo/presets.hpp"

using namespace mca2a;

namespace {

struct Token {
  int origin_rank;
  int origin_slot;
  float activation;
};

/// One persistent alltoallv per traffic direction: planning (leader
/// communicators, displacement tables, scratch) happens here, outside any
/// timed region, exactly what the plan machinery is for.
plan::CollectivePlan make_shuffle_plan(rt::Comm& world,
                                       const topo::Machine& machine,
                                       const std::vector<std::size_t>& scounts,
                                       const std::vector<std::size_t>& rcounts,
                                       const coll::AlltoallvSkew& skew,
                                       coll::AlltoallvAlgo algo,
                                       int group_size) {
  coll::AlltoallvDesc desc;
  desc.send_counts = scounts;
  desc.recv_counts = rcounts;
  desc.algo = algo;
  desc.skew = skew;
  plan::PlanOptions popts;
  popts.group_size = group_size;
  return plan::make_plan(world, machine, model::test_params(), desc, popts);
}

}  // namespace

int main(int argc, char** argv) {
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const int tokens = argc > 2 ? std::atoi(argv[2]) : 512;
  std::printf("ml_shuffle: %d experts (ranks), %d tokens per rank\n", ranks,
              tokens);

  // Machine view of the thread pool: two "nodes" when the rank count
  // splits evenly (so the locality algorithms have an inter-node
  // dimension), one otherwise.
  const int nodes = (ranks >= 4 && ranks % 2 == 0) ? 2 : 1;
  const topo::Machine machine = topo::generic(nodes, ranks / nodes);
  const int ppn = machine.ppn();
  // Multi-leader node-aware when the node splits into 2 leader groups,
  // classic hierarchical (one leader per node) otherwise.
  const coll::AlltoallvAlgo algo =
      ppn % 2 == 0 ? coll::AlltoallvAlgo::kMultileaderNodeAware
                   : coll::AlltoallvAlgo::kHierarchical;
  const int group_size = ppn % 2 == 0 ? ppn / 2 : ppn;

  std::vector<long> checksums(ranks, 0);
  std::vector<long> expected(ranks, 0);
  std::vector<double> elapsed(ranks, 0.0);

  smp::run_threads(ranks, [&](rt::Comm& world) -> rt::Task<void> {
    const int me = world.rank();
    const int p = world.size();
    std::mt19937 rng(1234 + me);
    std::uniform_int_distribution<int> expert(0, p - 1);

    // Create tokens and pick an expert for each.
    std::vector<std::vector<Token>> outbox(p);
    for (int t = 0; t < tokens; ++t) {
      Token tok{me, t, static_cast<float>(me) + 0.001f * t};
      const int e = expert(rng);
      outbox[e].push_back(tok);
      expected[me] += e;  // every token contributes its expert id
    }

    // --- count-metadata exchange: the alltoallv preamble ------------------
    // A regular 8-byte alltoall tells every rank how much it will receive
    // from whom — the counts MPI_Alltoallv requires up front.
    std::vector<std::size_t> scounts(p), rcounts(p);
    for (int d = 0; d < p; ++d) {
      scounts[d] = outbox[d].size() * sizeof(Token);
    }
    {
      rt::Buffer cs = rt::Buffer::real(p * sizeof(std::size_t));
      rt::Buffer cr = rt::Buffer::real(p * sizeof(std::size_t));
      std::memcpy(cs.data(), scounts.data(), p * sizeof(std::size_t));
      co_await coll::alltoall_nonblocking(world, cs.view(), cr.view(),
                                          sizeof(std::size_t));
      std::memcpy(rcounts.data(), cr.data(), p * sizeof(std::size_t));
    }

    // --- agree on the global skew signature -------------------------------
    // The tuner's input is collective: allgather per-rank (row total, row
    // max) and reduce locally, so every rank sees the same AlltoallvSkew.
    coll::AlltoallvSkew skew;
    {
      std::size_t row[2] = {0, 0};
      for (int d = 0; d < p; ++d) {
        row[0] += scounts[d];
        row[1] = std::max(row[1], scounts[d]);
      }
      rt::Buffer mine = rt::Buffer::real(sizeof(row));
      rt::Buffer all = rt::Buffer::real(p * sizeof(row));
      std::memcpy(mine.data(), row, sizeof(row));
      co_await rt::allgather(world, mine.view(), all.view());
      const auto* rows = reinterpret_cast<const std::size_t*>(all.data());
      for (int r = 0; r < p; ++r) {
        skew.total_bytes += rows[2 * r];
        skew.max_bytes = std::max(skew.max_bytes, rows[2 * r + 1]);
      }
    }
    if (me == 0) {
      const auto choice = coll::select_alltoallv_algorithm(
          machine, model::test_params(), skew);
      std::printf(
          "  tuner saw imbalance %.2f (total %zu B); it would pick %s, "
          "this run uses %s (g=%d)\n",
          choice.imbalance, skew.total_bytes,
          std::string(coll::alltoallv_algo_name(choice.algo)).c_str(),
          std::string(coll::alltoallv_algo_name(algo)).c_str(), group_size);
    }

    // --- route out: locality-aware alltoallv, no padding ------------------
    // One persistent plan per direction (route-out and route-back have
    // transposed counts), built before the timed region so the measured
    // time is the exchange, not plan construction.
    auto out_plan = make_shuffle_plan(world, machine, scounts, rcounts, skew,
                                      algo, group_size);
    auto back_plan = make_shuffle_plan(world, machine, rcounts, scounts, skew,
                                       algo, group_size);
    const std::size_t stotal =
        std::accumulate(scounts.begin(), scounts.end(), std::size_t{0});
    const std::size_t rtotal =
        std::accumulate(rcounts.begin(), rcounts.end(), std::size_t{0});
    rt::Buffer send = rt::Buffer::real(stotal);
    rt::Buffer recv = rt::Buffer::real(rtotal);
    {
      std::size_t off = 0;
      for (int d = 0; d < p; ++d) {
        std::memcpy(send.data() + off, outbox[d].data(), scounts[d]);
        off += scounts[d];
      }
    }
    co_await rt::barrier(world);
    const auto t0 = std::chrono::steady_clock::now();
    co_await out_plan.execute(rt::ConstView(send.view()), recv.view());
    elapsed[me] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // "Expert" work: every received token contributes my expert id, then
    // bounce everything home — the return counts are the transpose of the
    // outbound ones, already in hand.
    for (int s = 0; s < p; ++s) {
      checksums[me] +=
          static_cast<long>(rcounts[s] / sizeof(Token)) * me;
    }
    rt::Buffer back = rt::Buffer::real(stotal);
    co_await back_plan.execute(rt::ConstView(recv.view()), back.view());

    // Every token must arrive back with its origin intact.
    int mine_back = 0;
    {
      const auto* toks = reinterpret_cast<const Token*>(back.data());
      const int count = static_cast<int>(stotal / sizeof(Token));
      for (int t = 0; t < count; ++t) {
        if (toks[t].origin_rank != me) {
          std::fprintf(stderr, "token returned to the wrong rank\n");
          std::abort();
        }
        ++mine_back;
      }
    }
    if (mine_back != tokens) {
      std::fprintf(stderr, "rank %d lost tokens: %d of %d returned\n", me,
                   mine_back, tokens);
      std::abort();
    }

    // --- gradient-bucket overlap -----------------------------------------
    // Backward pass, data-parallel: 4 gradient buckets, each reduced
    // across ranks as soon as it is produced. One persistent allreduce
    // plan per bucket (a plan admits one in-flight op); the Schedule
    // starts bucket b's allreduce the moment its compute is charged,
    // overlapping it with the remaining buckets' compute.
    constexpr int kBuckets = 4;
    constexpr int kBucketFloats = 1024;
    constexpr std::size_t kBucketBytes = kBucketFloats * sizeof(float);
    coll::AllreduceDesc gdesc;
    gdesc.count = kBucketFloats;
    gdesc.combiner = coll::sum_combiner<float>();
    gdesc.algo = coll::AllreduceAlgo::kRecursiveDoubling;
    std::vector<plan::CollectivePlan> bucket_plans;
    std::vector<rt::Buffer> grads;
    for (int b = 0; b < kBuckets; ++b) {
      bucket_plans.push_back(plan::make_plan(world, topo::generic(1, p),
                                             model::test_params(), gdesc));
      grads.push_back(rt::Buffer::real(kBucketBytes));
      auto v = grads[b].typed<float>();
      for (int i = 0; i < kBucketFloats; ++i) {
        v[i] = static_cast<float>(me) + 0.01f * b;
      }
    }
    plan::Schedule sched;
    for (int b = 0; b < kBuckets; ++b) {
      // compute_bytes models producing bucket b before its reduction may
      // start (charged on the simulator; free on threads).
      sched.add_inplace(bucket_plans[b], grads[b].view(),
                        /*compute_bytes=*/kBucketBytes);
    }
    co_await sched.run();
    for (int b = 0; b < kBuckets; ++b) {
      auto v = grads[b].typed<float>();
      const float want =
          static_cast<float>(p) * (p - 1) / 2 + p * 0.01f * b;
      for (int i = 0; i < kBucketFloats; ++i) {
        if (std::fabs(v[i] - want) > 1e-3f) {
          std::fprintf(stderr, "rank %d: bucket %d gradient mismatch\n", me,
                       b);
          std::abort();
        }
      }
    }
    if (me == 0) {
      std::printf(
          "  gradient buckets: %d x %d floats allreduced via Schedule "
          "(makespan %.3f ms)\n",
          kBuckets, kBucketFloats, sched.makespan() * 1e3);
    }
  });

  long total_expected = 0;
  long total_got = 0;
  double worst = 0.0;
  for (int r = 0; r < ranks; ++r) {
    total_expected += expected[r];
    total_got += checksums[r];
    worst = std::max(worst, elapsed[r]);
  }
  std::printf("  routed checksum %ld (expected %ld) — %s\n", total_got,
              total_expected, total_got == total_expected ? "OK" : "MISMATCH");
  std::printf("  shuffle time (max rank): %.3f ms\n", worst * 1e3);
  return total_got == total_expected ? 0 : 1;
}
