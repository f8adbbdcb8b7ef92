#pragma once
/// \file sim_comm.hpp
/// rt::Comm implementation backed by the discrete-event Cluster.
///
/// A SimComm is a per-rank endpoint of one simulated communicator. All state
/// lives in the Cluster; SimComm is a thin handle (comm id + rank) so it can
/// be created freely for sub-communicators.

#include <memory>

#include "runtime/comm.hpp"
#include "sim/cluster.hpp"

namespace mca2a::sim {

class SimComm final : public rt::Comm {
 public:
  SimComm(Cluster& cluster, std::uint32_t comm_id, int rank, int size)
      : rt::Comm(rank, size),
        cluster_(&cluster),
        comm_id_(comm_id),
        world_rank_(cluster.comms_[comm_id].world_ranks[rank]) {}

  bool wait_try(std::span<const rt::Request> reqs) override {
    return cluster_->wait_try_impl(world_rank_, reqs);
  }
  void wait_suspend(std::span<const rt::Request> reqs,
                    std::coroutine_handle<> h) override {
    cluster_->wait_suspend_impl(world_rank_, reqs, h);
  }
  double now() const override { return cluster_->rank_clock(world_rank_); }
  std::string_view backend_name() const noexcept override { return "sim"; }
  rt::Buffer alloc_buffer(std::size_t bytes) const override {
    return cluster_->carry_data() ? rt::Buffer::real(bytes)
                                  : rt::Buffer::virt(bytes);
  }
  void charge_copies(std::size_t bytes, std::size_t times) override {
    cluster_->charge_copies_impl(world_rank(), bytes, times);
  }
  std::unique_ptr<rt::Comm> create_subcomm(rt::RankSet members) override;
  obs::TraceBuffer* tracer() const noexcept override {
    return cluster_->tracer_for(world_rank());
  }

  /// Scale CPU-side costs (overheads, copies, matching) for operations on
  /// this communicator; used by the vendor-tuned System MPI surrogate.
  void set_cost_scale(double scale) {
    cluster_->set_cost_scale_impl(comm_id_, scale);
  }

  /// World rank of this endpoint.
  int world_rank() const noexcept { return world_rank_; }
  std::uint32_t comm_id() const noexcept { return comm_id_; }
  Cluster& cluster() noexcept { return *cluster_; }

 private:
  rt::Request do_isend(rt::ConstView buf, int dst, int tag) override {
    return cluster_->isend_impl(comm_id_, rank_, buf, dst, tag);
  }
  rt::Request do_irecv(rt::MutView buf, int src, int tag) override {
    return cluster_->irecv_impl(comm_id_, rank_, buf, src, tag);
  }

  Cluster* cluster_;
  std::uint32_t comm_id_;
  int world_rank_;
};

}  // namespace mca2a::sim
