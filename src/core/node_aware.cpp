/// \file node_aware.cpp
/// Algorithm 4 of the paper: node-aware / locality-aware all-to-all.
///
/// Phase 1 exchanges aggregated per-region blocks among ranks that share an
/// in-group position (group_cross): rank r sends region j its data for all
/// g ranks of j. Because regions tile the world consecutively, the original
/// send buffer is already ordered by region — no pre-pack is needed.
/// Phase 2 redistributes within the region (local_comm). One group per node
/// (g == ppn) is classic node-aware aggregation; several groups per node is
/// the paper's locality-aware aggregation (cheaper redistribution, more
/// inter-node messages).
///
/// Layouts (s = block, nreg regions, my position ℓ):
///   after phase 1: T1[j][i]  = data  src (j*g+ℓ) -> dst (my_region*g + i)
///   pack:          T2[i][j]  = block for local peer i
///   after phase 2: T3[i'][j] = data  src (j*g+i') -> me
///   unpack:        recv[j*g+i'] = T3[i'][j]

#include "core/alltoall.hpp"
#include "core/phase.hpp"
#include "runtime/scratch.hpp"

namespace mca2a::coll {

rt::Task<void> alltoall_node_aware(const rt::LocalityComms& lc,
                                   rt::ConstView send, rt::MutView recv,
                                   std::size_t block, const Options& opts) {
  rt::Comm& world = *lc.world;
  rt::Comm& cross = *lc.group_cross;
  rt::Comm& local = *lc.local_comm;
  const int g = lc.group_size;
  const int nreg = lc.regions();
  const std::size_t s = block;
  const std::size_t psz = static_cast<std::size_t>(world.size()) * s;

  // --- phase 1: inter-region exchange (block g*s) ---------------------------
  rt::ScratchBuffer t1 = rt::alloc_scratch(world, opts.scratch, psz);
  {
    PhaseScope ph(world, opts.trace, Phase::kInterA2A, opts.tag_stream,
                  {{"bytes", static_cast<std::int64_t>(psz)}});
    co_await alltoall_inner(opts.inner, cross, send, t1.view(),
                            static_cast<std::size_t>(g) * s, opts.scratch,
                            opts.tag_stream);
  }

  // --- pack per-local-peer blocks -------------------------------------------
  rt::ScratchBuffer t2 = rt::alloc_scratch(world, opts.scratch, psz);
  {
    PhaseScope ph(world, opts.trace, Phase::kPack, opts.tag_stream);
    if (t1.data() != nullptr && t2.data() != nullptr) {
      for (int i = 0; i < g; ++i) {
        for (int j = 0; j < nreg; ++j) {
          rt::copy_bytes(
              t2.view((static_cast<std::size_t>(i) * nreg + j) * s, s),
              t1.view((static_cast<std::size_t>(j) * g + i) * s, s));
        }
      }
    }
    // Each repack moves all g * nreg = p blocks once.
    world.charge_copy(psz);
  }

  // --- phase 2: intra-region redistribution (block nreg*s) ------------------
  rt::ScratchBuffer t3 = rt::alloc_scratch(world, opts.scratch, psz);
  {
    PhaseScope ph(world, opts.trace, Phase::kIntraA2A, opts.tag_stream,
                  {{"bytes", static_cast<std::int64_t>(psz)}});
    co_await alltoall_inner(opts.inner, local, rt::ConstView(t2.view()),
                            t3.view(), static_cast<std::size_t>(nreg) * s,
                            opts.scratch, opts.tag_stream);
  }

  // --- unpack into source-rank order -----------------------------------------
  {
    PhaseScope ph(world, opts.trace, Phase::kPack, opts.tag_stream);
    if (t3.data() != nullptr && recv.ptr != nullptr) {
      for (int i2 = 0; i2 < g; ++i2) {
        for (int j = 0; j < nreg; ++j) {
          rt::copy_bytes(
              recv.sub((static_cast<std::size_t>(j) * g + i2) * s, s),
              t3.view((static_cast<std::size_t>(i2) * nreg + j) * s, s));
        }
      }
    }
    world.charge_copy(psz);
  }
}

}  // namespace mca2a::coll
