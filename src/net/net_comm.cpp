#include "net/net_comm.hpp"

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
  const rt::RankSet all = rt::RankSet::progression(0, ep->world_size(), 1);
  // The world is this process's first creation over every rank, so a
  // later subcomm over the same set draws a fresh key.
  std::uint64_t key = 0;
  const rt::SubcommRegistry::Creation c =
      ep->create_comm(all, all, ep->world_rank(), &key);
  auto comm =
      std::unique_ptr<NetComm>(new NetComm(std::move(ep), key, c));
  comm->is_world_ = true;
  comm->cluster_agg_ = std::move(agg);
  return comm;
}

std::unique_ptr<NetComm> NetComm::process_world() {
  return connect_world(options_from_env());
}

NetComm::NetComm(std::shared_ptr<Endpoint> ep, std::uint64_t comm_key,
                 const rt::SubcommRegistry::Creation& c)
    : rt::Comm(c.rank, static_cast<int>(c.world_ranks.size())),
      ep_(std::move(ep)),
      comm_key_(comm_key),
      members_(c.world_ranks),
      world_(c.world),
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
  // Fresh subcomm = fresh comm key: the aggregation's fixed tags cannot
  // collide with any application traffic, even unconsumed leftovers.
  const std::unique_ptr<rt::Comm> sub =
      create_subcomm(rt::RankSet::progression(0, size_, 1));
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
      "net: wait_suspend is a simulator facility; the net backend blocks "
      "in wait_try");
}

double NetComm::now() const { return ep_->now(); }

rt::Buffer NetComm::alloc_buffer(std::size_t bytes) const {
  return rt::Buffer::real(bytes);  // sockets move real bytes, always
}

obs::TraceBuffer* NetComm::tracer() const noexcept { return ep_->tracer(); }

std::unique_ptr<rt::Comm> NetComm::create_subcomm(rt::RankSet members) {
  std::uint64_t key = 0;
  const rt::SubcommRegistry::Creation c =
      ep_->create_comm(world_, members, rank_, &key);
  return std::unique_ptr<rt::Comm>(new NetComm(ep_, key, c));
}

}  // namespace mca2a::net
