#include "net/net_comm.hpp"

#include <numeric>
#include <stdexcept>

#include "obs/aggregate.hpp"
#include "obs/trace.hpp"
#include "runtime/env.hpp"

namespace mca2a::net {

std::unique_ptr<NetComm> NetComm::connect_world(NetOptions opts) {
  // Cluster metrics epoch opens BEFORE the endpoint exists, so the
  // bootstrap's own counters (net.bootstrap_micros, net.connections)
  // are part of the aggregated delta.
  std::unique_ptr<obs::MetricsAggregator> agg;
  if (rt::env::get_string("A2A_CLUSTER_METRICS")) {
    agg = std::make_unique<obs::MetricsAggregator>();
  }
  auto ep = std::make_shared<Endpoint>(std::move(opts));
  std::vector<int> members(static_cast<std::size_t>(ep->world_size()));
  std::iota(members.begin(), members.end(), 0);
  // The world is this process's first creation over every rank, so a
  // later subcomm over the same list draws a fresh key.
  std::uint64_t key = 0;
  const int rank =
      ep->create_comm(members, members, ep->world_rank(), &key).rank;
  auto comm = std::unique_ptr<NetComm>(
      new NetComm(std::move(ep), key, std::move(members), rank));
  comm->is_world_ = true;
  comm->cluster_agg_ = std::move(agg);
  return comm;
}

std::unique_ptr<NetComm> NetComm::process_world() {
  return connect_world(options_from_env());
}

NetComm::NetComm(std::shared_ptr<Endpoint> ep, std::uint64_t comm_key,
                 std::vector<int> members, int rank)
    : rt::Comm(rank, static_cast<int>(members.size())),
      ep_(std::move(ep)),
      comm_key_(comm_key),
      members_(std::move(members)),
      is_world_(false) {}

NetComm::~NetComm() {
  if (is_world_) {
    // Order matters: (1) the aggregation needs the mesh still up, (2) the
    // kBye handshake ends all traffic, (3) flushing the env-configured
    // writers here — not at atexit — guarantees this rank's trace and
    // metrics files are complete on disk even when the world lives in a
    // process-global static whose destructor interleaves with other
    // exit-time machinery. The atexit hooks then rewrite identical files.
    if (cluster_agg_ != nullptr) {
      try {
        aggregate_cluster_metrics();
      } catch (...) {
        // Teardown context: a failed aggregation (peer died mid-run) must
        // not turn a clean exit path into a terminate().
      }
    }
    ep_->shutdown();
    obs::flush_env_writers();
  }
}

void NetComm::aggregate_cluster_metrics() {
  std::vector<int> all(static_cast<std::size_t>(size_));
  std::iota(all.begin(), all.end(), 0);
  // Fresh subcomm = fresh comm key: the aggregation's fixed tags cannot
  // collide with any application traffic, even unconsumed leftovers.
  const std::unique_ptr<rt::Comm> sub = create_subcomm(all);
  const obs::ClusterMetrics cm = cluster_agg_->reduce(*sub);
  if (rank_ == 0) {
    if (const auto path = rt::env::get_string("A2A_CLUSTER_METRICS")) {
      obs::MetricsAggregator::write_json_file(cm, *path);
    }
  }
}

void NetComm::shutdown() noexcept { ep_->shutdown(); }

rt::Request NetComm::do_isend(rt::ConstView buf, int dst, int tag) {
  return ep_->post_send(comm_key_, members_, rank_, dst, tag, buf);
}

rt::Request NetComm::do_irecv(rt::MutView buf, int src, int tag) {
  return ep_->post_recv(comm_key_, members_, src, tag, buf);
}

bool NetComm::wait_try(std::span<const rt::Request> reqs) {
  ep_->wait(reqs);
  return true;  // blocking backend: complete on return, like smp
}

void NetComm::wait_suspend(std::span<const rt::Request>,
                           std::coroutine_handle<>) {
  throw std::logic_error(
      "net: wait_suspend is a simulator facility; the TCP backend blocks "
      "in wait_try");
}

double NetComm::now() const { return ep_->now(); }

rt::Buffer NetComm::alloc_buffer(std::size_t bytes) const {
  return rt::Buffer::real(bytes);  // sockets move real bytes, always
}

obs::TraceBuffer* NetComm::tracer() const noexcept { return ep_->tracer(); }

std::unique_ptr<rt::Comm> NetComm::create_subcomm(
    std::span<const int> members) {
  std::uint64_t key = 0;
  const rt::SubcommRegistry::Creation c =
      ep_->create_comm(members_, members, rank_, &key);
  return std::unique_ptr<rt::Comm>(new NetComm(
      ep_, key, std::vector<int>(c.world_ranks.begin(), c.world_ranks.end()),
      c.rank));
}

}  // namespace mca2a::net
