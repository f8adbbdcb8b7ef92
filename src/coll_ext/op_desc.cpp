#include "coll_ext/op_desc.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mca2a::coll {

std::string_view op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kAlltoall:
      return "alltoall";
    case OpKind::kAlltoallv:
      return "alltoallv";
    case OpKind::kAllgather:
      return "allgather";
    case OpKind::kAllreduce:
      return "allreduce";
    case OpKind::kCount_:
      break;
  }
  return "?";
}

std::string_view op_kind_tag(OpKind k) {
  switch (k) {
    case OpKind::kAlltoall:
      return "a2a";
    case OpKind::kAlltoallv:
      return "a2av";
    case OpKind::kAllgather:
      return "ag";
    case OpKind::kAllreduce:
      return "ar";
    case OpKind::kCount_:
      break;
  }
  return "?";
}

std::optional<OpKind> op_kind_from_tag(std::string_view tag) {
  for (int i = 0; i < kNumOpKinds; ++i) {
    const auto k = static_cast<OpKind>(i);
    if (op_kind_tag(k) == tag) {
      return k;
    }
  }
  return std::nullopt;
}

int num_algos(OpKind k) {
  switch (k) {
    case OpKind::kAlltoall:
      return kNumAlgos;
    case OpKind::kAlltoallv:
      return kNumAlltoallvAlgos;
    case OpKind::kAllgather:
      return kNumAllgatherAlgos;
    case OpKind::kAllreduce:
      return kNumAllreduceAlgos;
    case OpKind::kCount_:
      break;
  }
  return 0;
}

std::string_view allgather_algo_name(AllgatherAlgo a) {
  switch (a) {
    case AllgatherAlgo::kRing:
      return "Ring";
    case AllgatherAlgo::kBruck:
      return "Bruck";
    case AllgatherAlgo::kHierarchical:
      return "Hierarchical";
    case AllgatherAlgo::kLocalityAware:
      return "Locality-Aware";
    case AllgatherAlgo::kCount_:
      break;
  }
  return "?";
}

bool needs_locality(AllgatherAlgo a) {
  return a == AllgatherAlgo::kHierarchical ||
         a == AllgatherAlgo::kLocalityAware;
}

std::string_view allreduce_algo_name(AllreduceAlgo a) {
  switch (a) {
    case AllreduceAlgo::kRecursiveDoubling:
      return "Recursive Doubling";
    case AllreduceAlgo::kRabenseifner:
      return "Rabenseifner";
    case AllreduceAlgo::kNodeAware:
      return "Node-Aware";
    case AllreduceAlgo::kCount_:
      break;
  }
  return "?";
}

bool needs_locality(AllreduceAlgo a) { return a == AllreduceAlgo::kNodeAware; }

std::string_view alltoallv_algo_name(AlltoallvAlgo a) {
  switch (a) {
    case AlltoallvAlgo::kPairwise:
      return "Pairwise";
    case AlltoallvAlgo::kNonblocking:
      return "Nonblocking";
    case AlltoallvAlgo::kHierarchical:
      return "Hierarchical";
    case AlltoallvAlgo::kMultileaderNodeAware:
      return "Multileader Node-Aware";
    case AlltoallvAlgo::kCount_:
      break;
  }
  return "?";
}

bool needs_locality(AlltoallvAlgo a) {
  return a == AlltoallvAlgo::kHierarchical ||
         a == AlltoallvAlgo::kMultileaderNodeAware;
}

bool needs_leader_comms(AlltoallvAlgo a) {
  return a == AlltoallvAlgo::kMultileaderNodeAware;
}

double AlltoallvSkew::imbalance(int ranks) const {
  if (total_bytes == 0 || ranks <= 0) {
    return 1.0;
  }
  const double mean = static_cast<double>(total_bytes) /
                      (static_cast<double>(ranks) * ranks);
  return mean > 0.0 ? static_cast<double>(max_bytes) / mean : 1.0;
}

AlltoallvSkew estimate_alltoallv_skew(
    std::span<const std::size_t> send_counts,
    std::span<const std::size_t> recv_counts) {
  AlltoallvSkew sk;
  std::size_t row = 0;
  for (std::size_t c : send_counts) {
    row += c;
    sk.max_bytes = std::max(sk.max_bytes, c);
  }
  for (std::size_t c : recv_counts) {
    sk.max_bytes = std::max(sk.max_bytes, c);
  }
  // This rank sees one row (its sends) of the matrix; assume the other
  // rows carry comparable volume.
  sk.total_bytes = row * std::max<std::size_t>(send_counts.size(), 1);
  return sk;
}

// --- AlltoallDesc ------------------------------------------------------------

void AlltoallDesc::validate(const rt::Comm& comm) const {
  (void)comm;  // any block size is exchangeable on any communicator
  if (algo && (*algo < Algo::kSystemMpi || *algo >= Algo::kCount_)) {
    throw std::invalid_argument("AlltoallDesc: algorithm out of range");
  }
}

// --- AlltoallvDesc -----------------------------------------------------------

std::size_t AlltoallvDesc::send_total() const {
  std::size_t t = 0;
  for (std::size_t c : send_counts) {
    t += c;
  }
  return t;
}

std::size_t AlltoallvDesc::recv_total() const {
  std::size_t t = 0;
  for (std::size_t c : recv_counts) {
    t += c;
  }
  return t;
}

void AlltoallvDesc::validate(const rt::Comm& comm) const {
  const auto p = static_cast<std::size_t>(comm.size());
  if (send_counts.size() != p || recv_counts.size() != p) {
    throw std::invalid_argument(
        "AlltoallvDesc: counts must have one entry per rank (got send " +
        std::to_string(send_counts.size()) + ", recv " +
        std::to_string(recv_counts.size()) + " for " + std::to_string(p) +
        " ranks)");
  }
  if (algo && (*algo < AlltoallvAlgo::kPairwise ||
               *algo >= AlltoallvAlgo::kCount_)) {
    throw std::invalid_argument("AlltoallvDesc: algorithm out of range");
  }
}

// --- AllgatherDesc -----------------------------------------------------------

void AllgatherDesc::validate(const rt::Comm& comm) const {
  (void)comm;
  if (algo &&
      (*algo < AllgatherAlgo::kRing || *algo >= AllgatherAlgo::kCount_)) {
    throw std::invalid_argument("AllgatherDesc: algorithm out of range");
  }
}

// --- AllreduceDesc -----------------------------------------------------------

void AllreduceDesc::validate(const rt::Comm& comm) const {
  (void)comm;
  if (combiner.fn == nullptr) {
    throw std::invalid_argument("AllreduceDesc: combiner must be set");
  }
  if (combiner.elem_size == 0) {
    throw std::invalid_argument("AllreduceDesc: element size must be >= 1");
  }
  if (algo && (*algo < AllreduceAlgo::kRecursiveDoubling ||
               *algo >= AllreduceAlgo::kCount_)) {
    throw std::invalid_argument("AllreduceDesc: algorithm out of range");
  }
}

// --- OpDesc ------------------------------------------------------------------

void OpDesc::validate(const rt::Comm& comm) const {
  std::visit([&comm](const auto& d) { d.validate(comm); }, v_);
}

}  // namespace mca2a::coll
