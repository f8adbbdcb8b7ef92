#pragma once
/// \file net_comm.hpp
/// rt::Comm over real sockets: the third backend.
///
/// Where the simulator models a cluster inside one process and the smp
/// backend runs ranks as threads of one process, the net backend runs each
/// rank as its *own process*, connected to every peer by a mesh of stream
/// sockets — AF_UNIX within a network namespace, TCP across
/// (net/endpoint.hpp). A rank program built against rt::Comm
/// runs unchanged: `tools/a2arun -n 8 ./prog` launches eight processes,
/// each of which calls net::process_world() to join the job described by
/// its A2A_NET_* environment and gets back the world communicator.
///
/// The backend is blocking in the smp sense: wait_try drives the progress
/// engine until the requests complete and returns true; wait_suspend (a
/// simulator facility) throws. now() is this process's wall clock, so
/// autotune profiles recorded under backend "net" are real end-to-end
/// socket measurements and never pool with sim or smp samples.

#include <memory>
#include <span>
#include <string_view>

#include "net/endpoint.hpp"
#include "runtime/comm.hpp"

namespace mca2a::obs {
class MetricsAggregator;
}  // namespace mca2a::obs

namespace mca2a::net {

class NetComm final : public rt::Comm {
 public:
  /// World communicator: bootstrap the mesh described by `opts` (blocking;
  /// every process of the job must call this concurrently).
  static std::unique_ptr<NetComm> connect_world(NetOptions opts);
  /// World communicator from the A2A_NET_* environment (what a process
  /// launched by tools/a2arun calls first).
  static std::unique_ptr<NetComm> process_world();

  ~NetComm() override;

  bool wait_try(std::span<const rt::Request> reqs) override;
  [[noreturn]] void wait_suspend(std::span<const rt::Request> reqs,
                                 std::coroutine_handle<> h) override;
  double now() const override;
  std::string_view backend_name() const noexcept override { return "net"; }
  rt::Buffer alloc_buffer(std::size_t bytes) const override;
  void charge_copies(std::size_t, std::size_t) override {}  // wall time is real
  std::unique_ptr<rt::Comm> create_subcomm(rt::RankSet members) override;
  obs::TraceBuffer* tracer() const noexcept override;

  /// The endpoint shared by this communicator tree (test access).
  Endpoint& endpoint() noexcept { return *ep_; }

  /// Orderly leave: kBye handshake, drain, close every socket. Implied by
  /// destroying the world communicator; explicit calls are idempotent.
  void shutdown() noexcept;

 private:
  NetComm(std::shared_ptr<Endpoint> ep, std::uint64_t comm_key,
          const rt::SubcommRegistry::Creation& c);

  rt::Request do_isend(rt::ConstView buf, int dst, int tag) override;
  rt::Request do_irecv(rt::MutView buf, int src, int tag) override;

  /// World teardown under A2A_CLUSTER_METRICS: gather every rank's metric
  /// deltas over a fresh subcomm; rank 0 writes the combined JSON.
  void aggregate_cluster_metrics();

  std::shared_ptr<Endpoint> ep_;  ///< shared with every subcomm
  std::uint64_t comm_key_;
  /// Comm rank -> world rank, held by the endpoint's registry.
  std::span<const int> members_;
  rt::RankSet world_;  ///< members_, canonical (registry)
  bool is_world_;
  /// Armed by connect_world when A2A_CLUSTER_METRICS names an output file;
  /// its construction (before the endpoint's) opens the metrics epoch.
  std::unique_ptr<obs::MetricsAggregator> cluster_agg_;
};

}  // namespace mca2a::net
