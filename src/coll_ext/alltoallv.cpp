#include "coll_ext/alltoallv.hpp"

#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mca2a::coll {

namespace {

/// Metric-name tag per vector algorithm (alltoallv_algo_name() is the
/// human display string).
std::string_view alltoallv_algo_tag(AlltoallvAlgo a) {
  switch (a) {
    case AlltoallvAlgo::kPairwise:
      return "pairwise";
    case AlltoallvAlgo::kNonblocking:
      return "nonblocking";
    case AlltoallvAlgo::kHierarchical:
      return "hierarchical";
    case AlltoallvAlgo::kMultileaderNodeAware:
      return "multileader_node_aware";
    case AlltoallvAlgo::kCount_:
      break;
  }
  return "unknown";
}

struct VAlgoBytes {
  obs::Counter* bytes[static_cast<int>(AlltoallvAlgo::kCount_)];
  VAlgoBytes() {
    for (int a = 0; a < static_cast<int>(AlltoallvAlgo::kCount_); ++a) {
      bytes[a] = &obs::metrics().counter(
          std::string("coll.v_bytes_by_algo.") +
          std::string(alltoallv_algo_tag(static_cast<AlltoallvAlgo>(a))));
    }
  }
};

VAlgoBytes& valgo_bytes() {
  static VAlgoBytes b;
  return b;
}

}  // namespace

void check_alltoallv_args(const rt::Comm& comm, rt::ConstView send,
                          std::span<const std::size_t> send_counts,
                          std::span<const std::size_t> send_displs,
                          rt::MutView recv,
                          std::span<const std::size_t> recv_counts,
                          std::span<const std::size_t> recv_displs) {
  const auto p = static_cast<std::size_t>(comm.size());
  if (send_counts.size() != p || send_displs.size() != p ||
      recv_counts.size() != p || recv_displs.size() != p) {
    throw std::invalid_argument("alltoallv: counts/displs must have one "
                                "entry per rank");
  }
  for (std::size_t r = 0; r < p; ++r) {
    if (!rt::in_bounds(send_displs[r], send_counts[r], send.len)) {
      throw std::out_of_range("alltoallv: send block out of range");
    }
    if (!rt::in_bounds(recv_displs[r], recv_counts[r], recv.len)) {
      throw std::out_of_range("alltoallv: recv block out of range");
    }
  }
}

std::vector<std::size_t> displs_from_counts(
    std::span<const std::size_t> counts) {
  std::vector<std::size_t> displs(counts.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    displs[i] = off;
    off += counts[i];
  }
  return displs;
}

bool alltoallv_dense_layout(std::span<const std::size_t> counts,
                            std::span<const std::size_t> displs) {
  std::size_t off = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (displs[i] != off) {
      return false;
    }
    off += counts[i];
  }
  return true;
}

rt::Task<void> alltoallv_inner(Inner inner, rt::Comm& comm, rt::ConstView send,
                               std::span<const std::size_t> send_counts,
                               std::span<const std::size_t> send_displs,
                               rt::MutView recv,
                               std::span<const std::size_t> recv_counts,
                               std::span<const std::size_t> recv_displs,
                               int tag_stream) {
  if (inner == Inner::kPairwise) {
    co_await alltoallv_pairwise(comm, send, send_counts, send_displs, recv,
                                recv_counts, recv_displs, tag_stream);
  } else {
    co_await alltoallv_nonblocking(comm, send, send_counts, send_displs, recv,
                                   recv_counts, recv_displs, tag_stream);
  }
}

rt::Task<void> run_alltoallv(AlltoallvAlgo algo, rt::Comm& world,
                             const rt::LocalityComms* lc, rt::ConstView send,
                             std::span<const std::size_t> send_counts,
                             std::span<const std::size_t> send_displs,
                             rt::MutView recv,
                             std::span<const std::size_t> recv_counts,
                             std::span<const std::size_t> recv_displs,
                             const Options& opts) {
  if (needs_locality(algo) && lc == nullptr) {
    throw std::invalid_argument(
        "run_alltoallv: this algorithm needs a LocalityComms bundle");
  }
  const std::size_t total_send = std::accumulate(
      send_counts.begin(), send_counts.end(), std::size_t{0});
  valgo_bytes().bytes[static_cast<int>(algo)]->add(total_send);
  obs::Span dispatch_span(
      world.tracer(), alltoallv_algo_name(algo), "coll.alltoallv",
      opts.tag_stream, {{"bytes", static_cast<std::int64_t>(total_send)}});
  switch (algo) {
    case AlltoallvAlgo::kPairwise:
      co_await alltoallv_pairwise(world, send, send_counts, send_displs, recv,
                                  recv_counts, recv_displs, opts.tag_stream);
      co_return;
    case AlltoallvAlgo::kNonblocking:
      co_await alltoallv_nonblocking(world, send, send_counts, send_displs,
                                     recv, recv_counts, recv_displs,
                                     opts.tag_stream);
      co_return;
    case AlltoallvAlgo::kHierarchical:
      co_await alltoallv_hierarchical(*lc, send, send_counts, send_displs,
                                      recv, recv_counts, recv_displs, opts);
      co_return;
    case AlltoallvAlgo::kMultileaderNodeAware:
      co_await alltoallv_multileader_node_aware(*lc, send, send_counts,
                                                send_displs, recv, recv_counts,
                                                recv_displs, opts);
      co_return;
    case AlltoallvAlgo::kCount_:
      break;
  }
  throw std::invalid_argument("run_alltoallv: unknown algorithm");
}

rt::Task<void> alltoallv_pairwise(rt::Comm& comm, rt::ConstView send,
                                  std::span<const std::size_t> send_counts,
                                  std::span<const std::size_t> send_displs,
                                  rt::MutView recv,
                                  std::span<const std::size_t> recv_counts,
                                  std::span<const std::size_t> recv_displs,
                                  int tag_stream) {
  check_alltoallv_args(comm, send, send_counts, send_displs, recv,
                       recv_counts, recv_displs);
  const int kTag = rt::tags::make(rt::tags::kExtAlltoallv, tag_stream);
  const int p = comm.size();
  const int me = comm.rank();
  comm.copy_and_charge(recv.sub(recv_displs[me], recv_counts[me]),
                       send.sub(send_displs[me], send_counts[me]));
  for (int i = 1; i < p; ++i) {
    const int dst = (me + i) % p;
    const int src = (me - i + p) % p;
    co_await comm.sendrecv(send.sub(send_displs[dst], send_counts[dst]), dst,
                           kTag,
                           recv.sub(recv_displs[src], recv_counts[src]), src,
                           kTag);
  }
}

rt::Task<void> alltoallv_nonblocking(rt::Comm& comm, rt::ConstView send,
                                     std::span<const std::size_t> send_counts,
                                     std::span<const std::size_t> send_displs,
                                     rt::MutView recv,
                                     std::span<const std::size_t> recv_counts,
                                     std::span<const std::size_t> recv_displs,
                                     int tag_stream) {
  check_alltoallv_args(comm, send, send_counts, send_displs, recv,
                       recv_counts, recv_displs);
  const int kTag = rt::tags::make(rt::tags::kExtAlltoallv, tag_stream);
  const int p = comm.size();
  const int me = comm.rank();
  comm.copy_and_charge(recv.sub(recv_displs[me], recv_counts[me]),
                       send.sub(send_displs[me], send_counts[me]));
  std::vector<rt::Request> reqs;
  reqs.reserve(2 * (p - 1));
  for (int i = 1; i < p; ++i) {
    const int src = (me - i + p) % p;
    reqs.push_back(
        comm.irecv(recv.sub(recv_displs[src], recv_counts[src]), src, kTag));
  }
  for (int i = 1; i < p; ++i) {
    const int dst = (me + i) % p;
    reqs.push_back(
        comm.isend(send.sub(send_displs[dst], send_counts[dst]), dst, kTag));
  }
  co_await comm.wait_all(reqs);
}

}  // namespace mca2a::coll
