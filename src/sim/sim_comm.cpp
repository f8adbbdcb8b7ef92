#include "sim/sim_comm.hpp"

namespace mca2a::sim {

std::unique_ptr<rt::Comm> SimComm::create_subcomm(rt::RankSet members) {
  const rt::SubcommRegistry::Creation c =
      cluster_->subcomm_impl(comm_id_, rank_, members);
  return std::make_unique<SimComm>(*cluster_, c.comm, c.rank,
                                   static_cast<int>(members.size()));
}

}  // namespace mca2a::sim
