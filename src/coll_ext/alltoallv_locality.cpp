/// \file alltoallv_locality.cpp
/// Locality-aware variable-count all-to-all: the vector counterparts of the
/// paper's Algorithms 3 (hierarchical / multi-leader) and 5 (multi-leader
/// node-aware).
///
/// The fixed-size algorithms know every block size a priori; here the
/// aggregated message sizes depend on the data distribution, so each
/// payload phase is preceded by the matching *count-metadata* exchange:
///
///   1. members gather their per-peer byte-count vectors at the group
///      leader (an equal-block rt::gather of p counts);
///   2. leaders run an inner *regular* alltoall of per-peer count matrices
///      (fixed block: g*g counts for the hierarchical leader exchange,
///      g*ppn / n*g*g counts for the two phases of the node-aware one);
///   3. only then do the variable-size aggregated payloads move.
///
/// Payload funnels (member -> leader and back) are variable-size, so they
/// use dedicated gatherv/scatterv point-to-point fan-ins on tags
/// kExtAlltoallvGatherv / kExtAlltoallvScatterv. Every staging buffer —
/// count matrices included — recycles through Options::scratch; sizes are
/// a pure function of the (fixed) count vectors, so a persistent plan's
/// warm executions allocate nothing from the arena.
///
/// Because the count metadata must genuinely travel, these algorithms
/// require a data-carrying transport: real user buffers, and a backend
/// that delivers bytes (the threads backend always, the simulator only
/// with carry_data). Virtual payloads throw std::invalid_argument — the
/// direct pairwise/nonblocking variants remain the data-oblivious choice.

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "coll_ext/alltoallv.hpp"
#include "core/phase.hpp"
#include "obs/trace.hpp"
#include "runtime/collectives.hpp"
#include "runtime/scratch.hpp"

namespace mca2a::coll {

namespace {

using SizeSpan = std::span<const std::size_t>;

std::size_t sum_counts(SizeSpan counts) {
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

void check_vector_args(const rt::Comm& world, rt::ConstView send,
                       SizeSpan send_counts, SizeSpan send_displs,
                       rt::MutView recv, SizeSpan recv_counts,
                       SizeSpan recv_displs) {
  check_alltoallv_args(world, send, send_counts, send_displs, recv,
                       recv_counts, recv_displs);
  if (send.is_virtual() || recv.is_virtual()) {
    throw std::invalid_argument(
        "alltoallv: the locality algorithms route count metadata through "
        "the payload path and need real buffers (virtual-payload "
        "simulation is only supported by the direct variants)");
  }
}

/// Counts live in scratch byte buffers (so they recycle like payload);
/// view them as size_t arrays. Buffer::real memory is new[]-aligned, which
/// is sufficient for std::size_t.
std::size_t* counts_of(rt::ScratchBuffer& b) {
  return reinterpret_cast<std::size_t*>(b.data());
}

constexpr std::size_t kC = sizeof(std::size_t);

/// Throws when the transport cannot deliver the count metadata (scratch
/// allocated through a virtual-buffer communicator).
void require_carrying(const rt::ScratchBuffer& counts, std::size_t bytes) {
  if (bytes > 0 && counts.data() == nullptr) {
    throw std::invalid_argument(
        "alltoallv: locality algorithms need a data-carrying transport "
        "(enable carry_data on the simulator)");
  }
}

/// Member-side dense send staging: the leader funnel ships one contiguous
/// message per member, so a gappy user layout is packed first.
struct DenseSend {
  rt::ScratchBuffer stage;  ///< holds the packed bytes when staging happened
  rt::ConstView view;       ///< what to forward (== send when already dense)
};

DenseSend make_dense_send(rt::Comm& world, rt::ScratchArena* scratch,
                          rt::ConstView send, SizeSpan counts,
                          SizeSpan displs, std::size_t total) {
  DenseSend d;
  if (alltoallv_dense_layout(counts, displs)) {
    d.view = send.sub(0, total);
    return d;
  }
  d.stage = rt::alloc_scratch(world, scratch, total);
  std::size_t off = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    rt::copy_bytes(d.stage.view(off, counts[r]), send.sub(displs[r], counts[r]));
    off += counts[r];
  }
  world.charge_copy(total);
  d.view = d.stage.view();
  return d;
}

/// Member-side result unpack: the leader delivers one dense source-ordered
/// block; spread it to the user's displacements (no copy when the target
/// is the staging buffer itself — callers pass recv directly when dense).
void unpack_dense_recv(rt::Comm& world, rt::ConstView dense, rt::MutView recv,
                       SizeSpan counts, SizeSpan displs) {
  std::size_t off = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    rt::copy_bytes(recv.sub(displs[r], counts[r]), dense.sub(off, counts[r]));
    off += counts[r];
  }
  world.charge_copy(off);
}

/// Non-leader body shared by both algorithms: ship counts (via the
/// collective gather below), payload to the leader, then await the dense
/// source-ordered result.
rt::Task<void> member_exchange(const rt::LocalityComms& lc, rt::ConstView send,
                              SizeSpan send_counts, SizeSpan send_displs,
                              rt::MutView recv, SizeSpan recv_counts,
                              SizeSpan recv_displs, const Options& opts) {
  rt::Comm& world = *lc.world;
  rt::Comm& local = *lc.local_comm;
  const std::size_t stotal = sum_counts(send_counts);
  const std::size_t rtotal = sum_counts(recv_counts);
  const int gather_tag =
      rt::tags::make(rt::tags::kExtAlltoallvGatherv, opts.tag_stream);
  const int scatter_tag =
      rt::tags::make(rt::tags::kExtAlltoallvScatterv, opts.tag_stream);

  DenseSend ds = make_dense_send(world, opts.scratch, send, send_counts,
                                 send_displs, stotal);
  co_await local.send(ds.view, /*dst=*/0, gather_tag);

  const bool dense_recv = alltoallv_dense_layout(recv_counts, recv_displs);
  if (dense_recv) {
    co_await local.recv(recv.sub(0, rtotal), /*src=*/0, scatter_tag);
    co_return;
  }
  rt::ScratchBuffer stage = rt::alloc_scratch(world, opts.scratch, rtotal);
  co_await local.recv(stage.view(), /*src=*/0, scatter_tag);
  unpack_dense_recv(world, rt::ConstView(stage.view()), recv, recv_counts,
                    recv_displs);
}

/// What the shared funnel prologue hands the leader-side algorithm body.
struct FunnelIngest {
  /// True when this rank is a member whose whole exchange (payload to the
  /// leader, dense result back) was already handled — the caller returns.
  bool is_member = false;
  rt::ScratchBuffer cnt_all;               ///< leaders: cnt[i * p + w]
  std::vector<std::size_t> member_totals;  ///< leaders: per-member send bytes
  std::vector<std::size_t> member_off;
  rt::ScratchBuffer gathered;              ///< leaders: members' dense payload
};

/// Leader-side variable gather: receive each member's dense payload at its
/// offset (member totals come from the already-gathered count matrix).
rt::Task<void> gatherv_payload(rt::Comm& world, rt::Comm& local,
                               rt::ConstView my_dense, rt::MutView gathered,
                               const std::vector<std::size_t>& member_offsets,
                               const std::vector<std::size_t>& member_totals,
                               int tag) {
  std::vector<rt::Request> reqs;
  reqs.reserve(member_totals.size());
  for (std::size_t i = 1; i < member_totals.size(); ++i) {
    reqs.push_back(local.irecv(
        gathered.sub(member_offsets[i], member_totals[i]), static_cast<int>(i),
        tag));
  }
  world.copy_and_charge(gathered.sub(member_offsets[0], member_totals[0]),
                        my_dense);
  co_await local.wait_all(reqs);
}

/// Leader-side variable scatter: ship member m its dense block; unpack the
/// leader's own slice into its user recv buffer.
rt::Task<void> scatterv_payload(rt::Comm& world, rt::Comm& local,
                                rt::ConstView packed,
                                const std::vector<std::size_t>& member_offsets,
                                const std::vector<std::size_t>& member_totals,
                                rt::MutView recv, SizeSpan recv_counts,
                                SizeSpan recv_displs, int tag) {
  std::vector<rt::Request> reqs;
  reqs.reserve(member_totals.size());
  for (std::size_t m = 1; m < member_totals.size(); ++m) {
    reqs.push_back(local.isend(
        packed.sub(member_offsets[m], member_totals[m]), static_cast<int>(m),
        tag));
  }
  unpack_dense_recv(world, packed.sub(member_offsets[0], member_totals[0]),
                    recv, recv_counts, recv_displs);
  co_await local.wait_all(reqs);
}

/// The funnel prologue both locality algorithms share: gather every
/// member's count vector at the group leader, handle the member early path
/// entirely (payload up, dense result down), and — at leaders — gather the
/// members' dense payloads. The kGather phase window (count + payload
/// gather) is recorded here; `sink` must already be leader-filtered.
rt::Task<FunnelIngest> funnel_ingest(const rt::LocalityComms& lc,
                                     rt::ConstView send, SizeSpan send_counts,
                                     SizeSpan send_displs, rt::MutView recv,
                                     SizeSpan recv_counts,
                                     SizeSpan recv_displs, const Options& opts,
                                     Trace* sink) {
  rt::Comm& world = *lc.world;
  rt::Comm& local = *lc.local_comm;
  const auto P = static_cast<std::size_t>(world.size());
  const int g = lc.group_size;
  const int gather_tag =
      rt::tags::make(rt::tags::kExtAlltoallvGatherv, opts.tag_stream);

  FunnelIngest in;
  rt::ScratchBuffer cnt_mine = rt::alloc_scratch(world, opts.scratch, P * kC);
  require_carrying(cnt_mine, P * kC);
  std::memcpy(cnt_mine.data(), send_counts.data(), P * kC);
  if (lc.is_leader) {
    in.cnt_all = rt::alloc_scratch(world, opts.scratch,
                                   static_cast<std::size_t>(g) * P * kC);
  }
  PhaseScope gather_phase(world, sink, Phase::kGather, opts.tag_stream,
                          {{"leader", lc.is_leader ? 1 : 0}});
  co_await rt::gather(local, rt::ConstView(cnt_mine.view()),
                      in.cnt_all.view(), /*root=*/0, opts.scratch,
                      opts.tag_stream);

  if (!lc.is_leader) {
    gather_phase.close();
    obs::Span sp(world.tracer(), "member-exchange", "phase", opts.tag_stream);
    co_await member_exchange(lc, send, send_counts, send_displs, recv,
                             recv_counts, recv_displs, opts);
    in.is_member = true;
    co_return in;
  }

  const std::size_t* cnt = counts_of(in.cnt_all);  // cnt[i*p + w]
  in.member_totals.resize(g);
  for (int i = 0; i < g; ++i) {
    in.member_totals[i] =
        sum_counts(SizeSpan(cnt + static_cast<std::size_t>(i) * P, P));
  }
  in.member_off = displs_from_counts(in.member_totals);
  in.gathered = rt::alloc_scratch(
      world, opts.scratch, in.member_off.back() + in.member_totals.back());
  DenseSend ds = make_dense_send(world, opts.scratch, send, send_counts,
                                 send_displs, in.member_totals[0]);
  co_await gatherv_payload(world, local, ds.view, in.gathered.view(),
                           in.member_off, in.member_totals, gather_tag);
  gather_phase.close();
  co_return in;
}

}  // namespace

rt::Task<void> alltoallv_hierarchical(const rt::LocalityComms& lc,
                                      rt::ConstView send,
                                      SizeSpan send_counts,
                                      SizeSpan send_displs, rt::MutView recv,
                                      SizeSpan recv_counts,
                                      SizeSpan recv_displs,
                                      const Options& opts) {
  rt::Comm& world = *lc.world;
  rt::Comm& local = *lc.local_comm;
  check_vector_args(world, send, send_counts, send_displs, recv, recv_counts,
                    recv_displs);
  const int p = world.size();
  const int g = lc.group_size;
  const int nreg = lc.regions();
  const std::size_t P = static_cast<std::size_t>(p);
  // Leaders only, like the fixed-size algorithm: a member's phase times
  // would mostly measure waiting for its leader.
  Trace* sink = lc.is_leader ? opts.trace : nullptr;
  const int scatter_tag =
      rt::tags::make(rt::tags::kExtAlltoallvScatterv, opts.tag_stream);

  // --- count gather + payload funnel (members return inside) ---------------
  FunnelIngest in = co_await funnel_ingest(lc, send, send_counts, send_displs,
                                           recv, recv_counts, recv_displs,
                                           opts, sink);
  if (in.is_member) {
    co_return;
  }
  const std::size_t* cnt = counts_of(in.cnt_all);  // cnt[i*p + w]
  const std::vector<std::size_t>& member_off = in.member_off;
  rt::ScratchBuffer& gathered = in.gathered;

  // --- count alltoall among leaders (block g*g counts) ----------------------
  const std::size_t gg = static_cast<std::size_t>(g) * g;
  rt::ScratchBuffer csend =
      rt::alloc_scratch(world, opts.scratch, nreg * gg * kC);
  rt::ScratchBuffer crecv =
      rt::alloc_scratch(world, opts.scratch, nreg * gg * kC);
  std::size_t* cs = counts_of(csend);
  for (int j = 0; j < nreg; ++j) {
    for (int i = 0; i < g; ++i) {
      for (int d = 0; d < g; ++d) {
        cs[(static_cast<std::size_t>(j) * g + i) * g + d] =
            cnt[static_cast<std::size_t>(i) * P + j * g + d];
      }
    }
  }
  world.charge_copy(2 * nreg * gg * kC);
  {
    PhaseScope ph(world, sink, Phase::kInterA2A, opts.tag_stream,
                  {{"meta", 1}});
    co_await alltoall_inner(opts.inner, *lc.group_cross,
                            rt::ConstView(csend.view()), crecv.view(), gg * kC,
                            opts.scratch, opts.tag_stream);
  }
  const std::size_t* cr = counts_of(crecv);  // cr[(j*g + i2)*g + m]

  // --- pack aggregated per-region blocks ------------------------------------
  std::vector<std::size_t> sb(nreg, 0), rb(nreg, 0);
  for (int j = 0; j < nreg; ++j) {
    for (std::size_t e = 0; e < gg; ++e) {
      sb[j] += cs[static_cast<std::size_t>(j) * gg + e];
      rb[j] += cr[static_cast<std::size_t>(j) * gg + e];
    }
  }
  const std::vector<std::size_t> sbd = displs_from_counts(sb);
  const std::vector<std::size_t> rbd = displs_from_counts(rb);
  rt::ScratchBuffer lsend =
      rt::alloc_scratch(world, opts.scratch, sbd.back() + sb.back());
  {
    PhaseScope ph(world, sink, Phase::kPack, opts.tag_stream);
    std::vector<std::size_t> cur(member_off);  // per-member read cursor
    std::size_t off = 0;
    for (int j = 0; j < nreg; ++j) {
      for (int i = 0; i < g; ++i) {
        for (int d = 0; d < g; ++d) {
          const std::size_t c =
              cnt[static_cast<std::size_t>(i) * P + j * g + d];
          rt::copy_bytes(lsend.view(off, c), gathered.view(cur[i], c));
          cur[i] += c;
          off += c;
        }
      }
    }
    world.charge_copy(off);
  }

  // --- variable-size leader exchange ----------------------------------------
  rt::ScratchBuffer lrecv =
      rt::alloc_scratch(world, opts.scratch, rbd.back() + rb.back());
  {
    PhaseScope ph(world, sink, Phase::kInterA2A, opts.tag_stream,
                  {{"bytes",
                    static_cast<std::int64_t>(sbd.back() + sb.back())}});
    co_await alltoallv_inner(opts.inner, *lc.group_cross,
                             rt::ConstView(lsend.view()), sb, sbd, lrecv.view(),
                             rb, rbd, opts.tag_stream);
  }

  // --- repack into per-member, source-ordered scatter blocks ----------------
  // Absolute offset of chunk (region j, source member i2, my member m) in
  // lrecv, filled in layout order.
  std::vector<std::size_t> coff(static_cast<std::size_t>(nreg) * gg);
  {
    std::size_t off = 0;
    for (std::size_t e = 0; e < coff.size(); ++e) {
      coff[e] = off;
      off += cr[e];
    }
  }
  std::vector<std::size_t> out_totals(g, 0);
  for (int m = 0; m < g; ++m) {
    for (int j = 0; j < nreg; ++j) {
      for (int i2 = 0; i2 < g; ++i2) {
        out_totals[m] += cr[(static_cast<std::size_t>(j) * g + i2) * g + m];
      }
    }
  }
  const std::vector<std::size_t> out_off = displs_from_counts(out_totals);
  rt::ScratchBuffer sc = rt::alloc_scratch(world, opts.scratch,
                                           out_off.back() + out_totals.back());
  {
    PhaseScope ph(world, sink, Phase::kPack, opts.tag_stream);
    std::size_t off = 0;
    for (int m = 0; m < g; ++m) {
      for (int j = 0; j < nreg; ++j) {
        for (int i2 = 0; i2 < g; ++i2) {
          const std::size_t e = (static_cast<std::size_t>(j) * g + i2) * g + m;
          rt::copy_bytes(sc.view(off, cr[e]), lrecv.view(coff[e], cr[e]));
          off += cr[e];
        }
      }
    }
    world.charge_copy(off);
  }

  // --- scatter ---------------------------------------------------------------
  {
    PhaseScope ph(world, sink, Phase::kScatter, opts.tag_stream,
                  {{"leader", 1}});
    co_await scatterv_payload(world, local, rt::ConstView(sc.view()), out_off,
                              out_totals, recv, recv_counts, recv_displs,
                              scatter_tag);
  }
}

rt::Task<void> alltoallv_multileader_node_aware(
    const rt::LocalityComms& lc, rt::ConstView send, SizeSpan send_counts,
    SizeSpan send_displs, rt::MutView recv, SizeSpan recv_counts,
    SizeSpan recv_displs, const Options& opts) {
  rt::Comm& world = *lc.world;
  rt::Comm& local = *lc.local_comm;
  check_vector_args(world, send, send_counts, send_displs, recv, recv_counts,
                    recv_displs);
  const int p = world.size();
  const int g = lc.group_size;
  const int G = lc.groups_per_node;
  const int n = lc.nodes();
  const int ppn = lc.ppn();
  const std::size_t P = static_cast<std::size_t>(p);
  Trace* sink = lc.is_leader ? opts.trace : nullptr;
  const int scatter_tag =
      rt::tags::make(rt::tags::kExtAlltoallvScatterv, opts.tag_stream);

  if (lc.is_leader && (!lc.leader_cross || !lc.leaders_node)) {
    throw std::logic_error(
        "alltoallv_multileader_node_aware: bundle built without leader "
        "comms");
  }

  // --- count gather + payload funnel (members return inside) ---------------
  FunnelIngest in = co_await funnel_ingest(lc, send, send_counts, send_displs,
                                           recv, recv_counts, recv_displs,
                                           opts, sink);
  if (in.is_member) {
    co_return;
  }
  const std::size_t* cnt = counts_of(in.cnt_all);  // cnt[i*p + w]
  const std::vector<std::size_t>& member_off = in.member_off;
  rt::ScratchBuffer& gathered = in.gathered;

  // --- inter-node count alltoall among same-group leaders -------------------
  // Block: g*ppn counts — my g members' bytes for every local rank of the
  // destination node.
  const std::size_t gp = static_cast<std::size_t>(g) * ppn;
  rt::ScratchBuffer c2send = rt::alloc_scratch(world, opts.scratch, n * gp * kC);
  rt::ScratchBuffer c2recv = rt::alloc_scratch(world, opts.scratch, n * gp * kC);
  std::size_t* c2s = counts_of(c2send);
  for (int b2 = 0; b2 < n; ++b2) {
    for (int i = 0; i < g; ++i) {
      for (int d = 0; d < ppn; ++d) {
        c2s[(static_cast<std::size_t>(b2) * g + i) * ppn + d] =
            cnt[static_cast<std::size_t>(i) * P + b2 * ppn + d];
      }
    }
  }
  world.charge_copy(2 * n * gp * kC);
  {
    PhaseScope ph(world, sink, Phase::kInterA2A, opts.tag_stream,
                  {{"meta", 1}});
    co_await alltoall_inner(opts.inner, *lc.leader_cross,
                            rt::ConstView(c2send.view()), c2recv.view(),
                            gp * kC, opts.scratch, opts.tag_stream);
  }
  const std::size_t* c2r = counts_of(c2recv);  // c2r[(b2*g + i2)*ppn + d]

  // --- pack and exchange per-destination-node aggregates --------------------
  std::vector<std::size_t> nbs(n, 0), nbr(n, 0);
  for (int b2 = 0; b2 < n; ++b2) {
    for (std::size_t e = 0; e < gp; ++e) {
      nbs[b2] += c2s[static_cast<std::size_t>(b2) * gp + e];
      nbr[b2] += c2r[static_cast<std::size_t>(b2) * gp + e];
    }
  }
  const std::vector<std::size_t> nbsd = displs_from_counts(nbs);
  const std::vector<std::size_t> nbrd = displs_from_counts(nbr);
  rt::ScratchBuffer bsend =
      rt::alloc_scratch(world, opts.scratch, nbsd.back() + nbs.back());
  {
    PhaseScope ph(world, sink, Phase::kPack, opts.tag_stream);
    std::vector<std::size_t> cur(member_off);
    std::size_t off = 0;
    for (int b2 = 0; b2 < n; ++b2) {
      for (int i = 0; i < g; ++i) {
        for (int d = 0; d < ppn; ++d) {
          const std::size_t c =
              cnt[static_cast<std::size_t>(i) * P + b2 * ppn + d];
          rt::copy_bytes(bsend.view(off, c), gathered.view(cur[i], c));
          cur[i] += c;
          off += c;
        }
      }
    }
    world.charge_copy(off);
  }
  rt::ScratchBuffer brecv =
      rt::alloc_scratch(world, opts.scratch, nbrd.back() + nbr.back());
  {
    PhaseScope ph(world, sink, Phase::kInterA2A, opts.tag_stream,
                  {{"bytes",
                    static_cast<std::int64_t>(nbsd.back() + nbs.back())}});
    co_await alltoallv_inner(opts.inner, *lc.leader_cross,
                             rt::ConstView(bsend.view()), nbs, nbsd,
                             brecv.view(), nbr, nbrd, opts.tag_stream);
  }

  // --- intra-node count alltoall among this node's leaders ------------------
  // Block: n*g*g counts — what I hold from every node's group-k2... members
  // for the destination group's g members.
  const std::size_t ngg = static_cast<std::size_t>(n) * g * g;
  rt::ScratchBuffer c3send =
      rt::alloc_scratch(world, opts.scratch, G * ngg * kC);
  rt::ScratchBuffer c3recv =
      rt::alloc_scratch(world, opts.scratch, G * ngg * kC);
  std::size_t* c3s = counts_of(c3send);
  for (int k2 = 0; k2 < G; ++k2) {
    for (int b2 = 0; b2 < n; ++b2) {
      for (int i2 = 0; i2 < g; ++i2) {
        for (int e = 0; e < g; ++e) {
          c3s[((static_cast<std::size_t>(k2) * n + b2) * g + i2) * g + e] =
              c2r[(static_cast<std::size_t>(b2) * g + i2) * ppn + k2 * g + e];
        }
      }
    }
  }
  world.charge_copy(2 * G * ngg * kC);
  {
    PhaseScope ph(world, sink, Phase::kIntraA2A, opts.tag_stream,
                  {{"meta", 1}});
    co_await alltoall_inner(opts.inner, *lc.leaders_node,
                            rt::ConstView(c3send.view()), c3recv.view(),
                            ngg * kC, opts.scratch, opts.tag_stream);
  }
  const std::size_t* c3r = counts_of(c3recv);  // c3r[((k1*n+b2)*g+i2)*g+e]

  // --- pack and exchange per-leader redistribution blocks -------------------
  // Absolute offset of chunk (b2, i2, d) in brecv, layout order.
  std::vector<std::size_t> boff(static_cast<std::size_t>(n) * gp);
  {
    std::size_t off = 0;
    for (std::size_t e = 0; e < boff.size(); ++e) {
      boff[e] = off;
      off += c2r[e];
    }
  }
  std::vector<std::size_t> dbs(G, 0), dbr(G, 0);
  for (int k = 0; k < G; ++k) {
    for (std::size_t e = 0; e < ngg; ++e) {
      dbs[k] += c3s[static_cast<std::size_t>(k) * ngg + e];
      dbr[k] += c3r[static_cast<std::size_t>(k) * ngg + e];
    }
  }
  const std::vector<std::size_t> dbsd = displs_from_counts(dbs);
  const std::vector<std::size_t> dbrd = displs_from_counts(dbr);
  rt::ScratchBuffer dsend =
      rt::alloc_scratch(world, opts.scratch, dbsd.back() + dbs.back());
  {
    PhaseScope ph(world, sink, Phase::kPack, opts.tag_stream);
    std::size_t off = 0;
    for (int k2 = 0; k2 < G; ++k2) {
      for (int b2 = 0; b2 < n; ++b2) {
        for (int i2 = 0; i2 < g; ++i2) {
          for (int e = 0; e < g; ++e) {
            const std::size_t c =
                c3s[((static_cast<std::size_t>(k2) * n + b2) * g + i2) * g + e];
            const std::size_t src =
                boff[(static_cast<std::size_t>(b2) * g + i2) * ppn + k2 * g +
                     e];
            rt::copy_bytes(dsend.view(off, c), brecv.view(src, c));
            off += c;
          }
        }
      }
    }
    world.charge_copy(off);
  }
  rt::ScratchBuffer erecv =
      rt::alloc_scratch(world, opts.scratch, dbrd.back() + dbr.back());
  {
    PhaseScope ph(world, sink, Phase::kIntraA2A, opts.tag_stream,
                  {{"bytes",
                    static_cast<std::int64_t>(dbsd.back() + dbs.back())}});
    co_await alltoallv_inner(opts.inner, *lc.leaders_node,
                             rt::ConstView(dsend.view()), dbs, dbsd,
                             erecv.view(), dbr, dbrd, opts.tag_stream);
  }

  // --- repack into per-member, source-ordered scatter blocks ----------------
  // Absolute offset of chunk (k1, b2, i2, e) in erecv, layout order.
  std::vector<std::size_t> eoff(static_cast<std::size_t>(G) * ngg);
  {
    std::size_t off = 0;
    for (std::size_t e = 0; e < eoff.size(); ++e) {
      eoff[e] = off;
      off += c3r[e];
    }
  }
  std::vector<std::size_t> out_totals(g, 0);
  for (std::size_t e = 0; e < eoff.size(); ++e) {
    out_totals[e % g] += c3r[e];
  }
  const std::vector<std::size_t> out_off = displs_from_counts(out_totals);
  rt::ScratchBuffer sc = rt::alloc_scratch(world, opts.scratch,
                                           out_off.back() + out_totals.back());
  {
    PhaseScope ph(world, sink, Phase::kPack, opts.tag_stream);
    std::size_t off = 0;
    // Source world rank b2*ppn + k1*g + i2 ascends with (b2, k1, i2).
    for (int e = 0; e < g; ++e) {
      for (int b2 = 0; b2 < n; ++b2) {
        for (int k1 = 0; k1 < G; ++k1) {
          for (int i2 = 0; i2 < g; ++i2) {
            const std::size_t idx =
                ((static_cast<std::size_t>(k1) * n + b2) * g + i2) * g + e;
            rt::copy_bytes(sc.view(off, c3r[idx]),
                           erecv.view(eoff[idx], c3r[idx]));
            off += c3r[idx];
          }
        }
      }
    }
    world.charge_copy(off);
  }

  // --- scatter ---------------------------------------------------------------
  {
    PhaseScope ph(world, sink, Phase::kScatter, opts.tag_stream,
                  {{"leader", 1}});
    co_await scatterv_payload(world, local, rt::ConstView(sc.view()), out_off,
                              out_totals, recv, recv_counts, recv_displs,
                              scatter_tag);
  }
}

}  // namespace mca2a::coll
