/// \file hierarchical.cpp
/// Algorithm 3 of the paper: hierarchical / multi-leader all-to-all.
///
/// Each group of `g` consecutive node-local ranks gathers its members' full
/// send buffers at the group leader; leaders perform an all-to-all among all
/// n*G leaders (block g*g*s: my g members' data for the target region's g
/// members); leaders scatter results back. With g == ppn this is the classic
/// single-leader hierarchical algorithm; smaller g is the multi-leader
/// variant (more leaders shrink the gather/scatter funnel but multiply
/// inter-node message counts by L^2 per node pair).
///
/// Layouts (s = block, p = world size, region j covers world ranks
/// [j*g, (j+1)*g)):
///   gathered  G[i][w]        i = member, w = destination world rank
///   leader send L[j][i][d]   j = region, d = destination position in j
///   leader recv R[j][i'][m]  i' = source position in j, m = my member
///   scatter   S[m][w']       w' = source world rank

#include "core/alltoall.hpp"
#include "core/phase.hpp"
#include "runtime/collectives.hpp"
#include "runtime/scratch.hpp"

namespace mca2a::coll {

rt::Task<void> alltoall_hierarchical(const rt::LocalityComms& lc,
                                     rt::ConstView send, rt::MutView recv,
                                     std::size_t block, const Options& opts) {
  rt::Comm& world = *lc.world;
  rt::Comm& local = *lc.local_comm;
  const int p = world.size();
  const int g = lc.group_size;
  const int nreg = lc.regions();
  const std::size_t s = block;
  const std::size_t psz = static_cast<std::size_t>(p) * s;
  // Phase timings are meaningful at the leaders (the ranks doing the work);
  // a non-leader's "scatter" time would mostly measure waiting for its
  // leader to get through the exchange. Flight-recorder spans are emitted
  // on every rank — each rank owns its own trace file, so a non-leader's
  // wait *is* the interesting shape there.
  Trace* sink = lc.is_leader ? opts.trace : nullptr;

  // --- gather members' send buffers to the leader --------------------------
  rt::ScratchBuffer gathered;
  if (lc.is_leader) {
    gathered = rt::alloc_scratch(world, opts.scratch,
                                 static_cast<std::size_t>(g) * psz);
  }
  {
    PhaseScope ph(world, sink, Phase::kGather, opts.tag_stream,
                  {{"leader", lc.is_leader ? 1 : 0}});
    co_await rt::gather(local, send, gathered.view(), /*root=*/0, opts.scratch,
                        opts.tag_stream);
  }

  if (!lc.is_leader) {
    PhaseScope ph(world, sink, Phase::kScatter, opts.tag_stream,
                  {{"leader", 0}});
    co_await rt::scatter(local, rt::ConstView{}, recv, /*root=*/0,
                         opts.scratch, opts.tag_stream);
    co_return;
  }

  // --- leader: repack into per-region blocks --------------------------------
  const std::size_t gg = static_cast<std::size_t>(g) * g * s;  // region block
  rt::ScratchBuffer lsend = rt::alloc_scratch(
      world, opts.scratch, static_cast<std::size_t>(nreg) * gg);
  PhaseScope pack(world, sink, Phase::kPack, opts.tag_stream);
  if (lsend.data() != nullptr && gathered.data() != nullptr) {
    const std::size_t run = static_cast<std::size_t>(g) * s;
    for (int j = 0; j < nreg; ++j) {
      for (int i = 0; i < g; ++i) {
        rt::copy_bytes(
            lsend.view(static_cast<std::size_t>(j) * gg + i * run, run),
            gathered.view(static_cast<std::size_t>(i) * psz +
                              static_cast<std::size_t>(j) * run,
                          run));
      }
    }
  }
  // Each repack moves the leader's whole nreg * g * g * s payload once.
  world.charge_copy(static_cast<std::size_t>(nreg) * gg);
  pack.close();

  // --- all-to-all among leaders (leaders' group_cross spans all leaders) ----
  rt::ScratchBuffer lrecv = rt::alloc_scratch(
      world, opts.scratch, static_cast<std::size_t>(nreg) * gg);
  {
    PhaseScope ph(world, sink, Phase::kInterA2A, opts.tag_stream,
                  {{"bytes", static_cast<std::int64_t>(
                                 static_cast<std::size_t>(nreg) * gg)}});
    co_await alltoall_inner(opts.inner, *lc.group_cross,
                            rt::ConstView(lsend.view()), lrecv.view(), gg,
                            opts.scratch, opts.tag_stream);
  }

  // --- repack received region blocks into per-member scatter blocks ---------
  rt::ScratchBuffer sc = rt::alloc_scratch(
      world, opts.scratch, static_cast<std::size_t>(g) * psz);
  PhaseScope pack2(world, sink, Phase::kPack, opts.tag_stream);
  if (sc.data() != nullptr && lrecv.data() != nullptr) {
    for (int j = 0; j < nreg; ++j) {
      for (int i2 = 0; i2 < g; ++i2) {
        const int src_world = j * g + i2;
        for (int m = 0; m < g; ++m) {
          rt::copy_bytes(
              sc.view(static_cast<std::size_t>(m) * psz +
                          static_cast<std::size_t>(src_world) * s,
                      s),
              lrecv.view(static_cast<std::size_t>(j) * gg +
                             (static_cast<std::size_t>(i2) * g + m) * s,
                         s));
        }
      }
    }
  }
  world.charge_copy(static_cast<std::size_t>(nreg) * gg);
  pack2.close();

  // --- scatter per-member results -------------------------------------------
  {
    PhaseScope ph(world, sink, Phase::kScatter, opts.tag_stream,
                  {{"leader", 1}});
    co_await rt::scatter(local, rt::ConstView(sc.view()), recv, /*root=*/0,
                         opts.scratch, opts.tag_stream);
  }
}

}  // namespace mca2a::coll
