/// \file multileader_node_aware.cpp
/// Algorithm 5 of the paper — the novel multi-leader + node-aware
/// all-to-all. The inter-node exchange of the hierarchical algorithm is
/// replaced by the node-aware one: leaders of group k on every node exchange
/// aggregated node-destined blocks among themselves (one message per node
/// pair per leader), then the leaders within a node redistribute, then
/// scatter. Gather/scatter funnels stay small (g ranks per leader) while
/// each leader sends only a single message to every other node.
///
/// Layouts at a leader of group k on node b (s = block, g = ppl, G leaders
/// per node, n nodes, ppn = G*g, p = n*ppn):
///   gathered  A[i][w]          i = my member, w = destination world rank
///   inter send B[b'][i][d]     d = destination local rank on node b'
///   inter recv C[b'][i'][d]    src = b'*ppn + k*g + i', d = dst local on b
///   intra send D[k2][b'][i'][e] e = dst position within group k2
///   intra recv E[k'][b'][i'][m] src = b'*ppn + k'*g + i', m = my member
///   scatter   S[m][w']         w' = source world rank

#include "core/alltoall.hpp"

#include <stdexcept>

#include "core/phase.hpp"
#include "runtime/collectives.hpp"
#include "runtime/scratch.hpp"

namespace mca2a::coll {

rt::Task<void> alltoall_multileader_node_aware(const rt::LocalityComms& lc,
                                               rt::ConstView send,
                                               rt::MutView recv,
                                               std::size_t block,
                                               const Options& opts) {
  rt::Comm& world = *lc.world;
  rt::Comm& local = *lc.local_comm;
  const int p = world.size();
  const int g = lc.group_size;
  const int G = lc.groups_per_node;
  const int n = lc.nodes();
  const int ppn = lc.ppn();
  const std::size_t s = block;
  const std::size_t psz = static_cast<std::size_t>(p) * s;
  // Leaders only: non-leader phase times would measure leader waits.
  Trace* sink = lc.is_leader ? opts.trace : nullptr;

  // --- gather member buffers to the leader ----------------------------------
  rt::ScratchBuffer gathered;
  if (lc.is_leader) {
    if (!lc.leader_cross || !lc.leaders_node) {
      throw std::logic_error(
          "multileader_node_aware: bundle built without leader comms");
    }
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

  const std::size_t node_blk =
      static_cast<std::size_t>(g) * ppn * s;  // inter-node block
  const std::size_t ppn_s = static_cast<std::size_t>(ppn) * s;

  // --- repack: per-target-node blocks (destinations are contiguous) ---------
  rt::ScratchBuffer bsend = rt::alloc_scratch(
      world, opts.scratch, static_cast<std::size_t>(n) * node_blk);
  {
    PhaseScope ph(world, sink, Phase::kPack, opts.tag_stream);
    if (bsend.data() != nullptr && gathered.data() != nullptr) {
      for (int b2 = 0; b2 < n; ++b2) {
        for (int i = 0; i < g; ++i) {
          rt::copy_bytes(
              bsend.view(static_cast<std::size_t>(b2) * node_blk + i * ppn_s,
                         ppn_s),
              gathered.view(static_cast<std::size_t>(i) * psz + b2 * ppn_s,
                            ppn_s));
        }
      }
    }
    // Each repack moves the leader's whole g * p * s payload once.
    world.charge_copy(static_cast<std::size_t>(g) * psz);
  }

  // --- inter-node all-to-all among same-group leaders (block g*ppn*s) -------
  rt::ScratchBuffer crecv = rt::alloc_scratch(
      world, opts.scratch, static_cast<std::size_t>(n) * node_blk);
  {
    PhaseScope ph(world, sink, Phase::kInterA2A, opts.tag_stream,
                  {{"bytes", static_cast<std::int64_t>(
                                 static_cast<std::size_t>(n) * node_blk)}});
    co_await alltoall_inner(opts.inner, *lc.leader_cross,
                            rt::ConstView(bsend.view()), crecv.view(), node_blk,
                            opts.scratch, opts.tag_stream);
  }

  // --- repack: per-node-local-leader blocks ----------------------------------
  const std::size_t intra_blk = static_cast<std::size_t>(n) * g * g * s;
  rt::ScratchBuffer dsend = rt::alloc_scratch(
      world, opts.scratch, static_cast<std::size_t>(G) * intra_blk);
  {
    PhaseScope ph(world, sink, Phase::kPack, opts.tag_stream);
    if (dsend.data() != nullptr && crecv.data() != nullptr) {
      const std::size_t run = static_cast<std::size_t>(g) * s;
      for (int k2 = 0; k2 < G; ++k2) {
        for (int b2 = 0; b2 < n; ++b2) {
          for (int i2 = 0; i2 < g; ++i2) {
            rt::copy_bytes(
                dsend.view(static_cast<std::size_t>(k2) * intra_blk +
                               (static_cast<std::size_t>(b2) * g + i2) * run,
                           run),
                crecv.view(static_cast<std::size_t>(b2) * node_blk +
                               static_cast<std::size_t>(i2) * ppn_s +
                               static_cast<std::size_t>(k2) * run,
                           run));
          }
        }
      }
    }
    world.charge_copy(static_cast<std::size_t>(G) * intra_blk);
  }

  // --- intra-node all-to-all among this node's leaders (block n*g*g*s) ------
  rt::ScratchBuffer erecv = rt::alloc_scratch(
      world, opts.scratch, static_cast<std::size_t>(G) * intra_blk);
  {
    PhaseScope ph(world, sink, Phase::kIntraA2A, opts.tag_stream,
                  {{"bytes", static_cast<std::int64_t>(
                                 static_cast<std::size_t>(G) * intra_blk)}});
    co_await alltoall_inner(opts.inner, *lc.leaders_node,
                            rt::ConstView(dsend.view()), erecv.view(),
                            intra_blk, opts.scratch, opts.tag_stream);
  }

  // --- repack into per-member, source-ordered scatter blocks ----------------
  rt::ScratchBuffer sc = rt::alloc_scratch(
      world, opts.scratch, static_cast<std::size_t>(g) * psz);
  {
    PhaseScope ph(world, sink, Phase::kPack, opts.tag_stream);
    if (sc.data() != nullptr && erecv.data() != nullptr) {
      for (int k1 = 0; k1 < G; ++k1) {
        for (int b2 = 0; b2 < n; ++b2) {
          for (int i1 = 0; i1 < g; ++i1) {
            const std::size_t src_w =
                static_cast<std::size_t>(b2) * ppn + k1 * g + i1;
            const std::size_t base =
                static_cast<std::size_t>(k1) * intra_blk +
                (static_cast<std::size_t>(b2) * g + i1) *
                    (static_cast<std::size_t>(g) * s);
            for (int m = 0; m < g; ++m) {
              rt::copy_bytes(
                  sc.view(static_cast<std::size_t>(m) * psz + src_w * s, s),
                  erecv.view(base + static_cast<std::size_t>(m) * s, s));
            }
          }
        }
      }
    }
    world.charge_copy(static_cast<std::size_t>(G) * intra_blk);
  }

  // --- scatter ---------------------------------------------------------------
  {
    PhaseScope ph(world, sink, Phase::kScatter, opts.tag_stream,
                  {{"leader", 1}});
    co_await rt::scatter(local, rt::ConstView(sc.view()), recv, /*root=*/0,
                         opts.scratch, opts.tag_stream);
  }
}

}  // namespace mca2a::coll
