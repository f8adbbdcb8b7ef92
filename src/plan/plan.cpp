#include "plan/plan.hpp"

#include <stdexcept>
#include <string>
#include <variant>

#include "autotune/autotune.hpp"
#include "autotune/selector.hpp"
#include "coll_ext/allgather.hpp"
#include "coll_ext/allreduce.hpp"
#include "coll_ext/alltoallv.hpp"
#include "coll_ext/ext_tuner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "plan/verify.hpp"

namespace mca2a::plan {

namespace {

[[noreturn]] void throw_extent(const char* op, const char* buf,
                               std::size_t want, std::size_t got) {
  throw std::invalid_argument(std::string("CollectivePlan::execute(") + op +
                              "): " + buf + " buffer must be " +
                              std::to_string(want) + " bytes (got " +
                              std::to_string(got) + ")");
}

}  // namespace

std::size_t CollectivePlan::block() const noexcept {
  switch (kind()) {
    case coll::OpKind::kAlltoall:
      return desc_.alltoall().block;
    case coll::OpKind::kAllgather:
      return desc_.allgather().block;
    default:
      return 0;
  }
}

void CollectiveHandle::reset() noexcept {
  if (!st_) {
    return;
  }
  if (!st_->op.done()) {
    // Abandoning a started operation: abort the coroutine mid-exchange.
    // Peers that already matched its traffic are left hanging — this is a
    // bug in the caller, hence the assert; the abort merely avoids leaking
    // the frame.
    assert(!"CollectiveHandle dropped before the operation completed");
    --st_->plan->in_flight_;
    st_->op.abort();
  }
  st_.reset();
}

void CollectivePlan::check_idle(const char* what) const {
  if (in_flight_ > 0) {
    throw std::logic_error(
        std::string("CollectivePlan: cannot ") + what +
        " a plan with an operation in flight (wait on the handle first)");
  }
}

void CollectivePlan::move_from(CollectivePlan&& other) {
  other.check_idle("move from");
  world_ = other.world_;
  machine_ = std::move(other.machine_);
  desc_ = std::move(other.desc_);
  algo_ = other.algo_;
  group_size_ = other.group_size_;
  predicted_seconds_ = other.predicted_seconds_;
  opts_ = other.opts_;
  lc_ = std::move(other.lc_);
  send_displs_ = std::move(other.send_displs_);
  recv_displs_ = std::move(other.recv_displs_);
  send_total_ = other.send_total_;
  recv_total_ = other.recv_total_;
  arena_ = std::move(other.arena_);
  executions_ = other.executions_;
  exec_micros_ = other.exec_micros_;
  autotune_ = other.autotune_;
  profile_key_ = std::move(other.profile_key_);
  in_flight_ = 0;
}

void CollectivePlan::validate_extents(rt::ConstView send,
                                      rt::MutView recv) const {
  const int p = world_->size();
  switch (kind()) {
    case coll::OpKind::kAlltoall: {
      const std::size_t total =
          static_cast<std::size_t>(p) * desc_.alltoall().block;
      if (send.len != total) throw_extent("alltoall", "send", total, send.len);
      if (recv.len != total) throw_extent("alltoall", "recv", total, recv.len);
      break;
    }
    case coll::OpKind::kAlltoallv:
      if (send.len != send_total_) {
        throw_extent("alltoallv", "send", send_total_, send.len);
      }
      if (recv.len != recv_total_) {
        throw_extent("alltoallv", "recv", recv_total_, recv.len);
      }
      break;
    case coll::OpKind::kAllgather: {
      const auto& d = desc_.allgather();
      const std::size_t total = static_cast<std::size_t>(p) * d.block;
      if (send.len != d.block) {
        throw_extent("allgather", "send", d.block, send.len);
      }
      if (recv.len != total) throw_extent("allgather", "recv", total, recv.len);
      break;
    }
    case coll::OpKind::kAllreduce: {
      const std::size_t bytes = desc_.allreduce().bytes();
      if (send.len != bytes) throw_extent("allreduce", "send", bytes, send.len);
      if (recv.len != bytes) throw_extent("allreduce", "recv", bytes, recv.len);
      break;
    }
    case coll::OpKind::kCount_:
      break;
  }
}

CollectiveHandle CollectivePlan::start(rt::ConstView send, rt::MutView recv,
                                       coll::Trace* trace) {
  // Every rejection comes before the stream draw: a failed start must not
  // consume a draw (the counter is part of the cross-rank contract).
  validate_extents(send, recv);
  check_can_start();
  return launch(send, recv, trace, world_->acquire_tag_stream());
}

CollectiveHandle CollectivePlan::start_inplace(rt::MutView data) {
  validate_inplace(data);
  check_can_start();
  return launch(rt::ConstView{}, data, nullptr, world_->acquire_tag_stream());
}

CollectiveHandle CollectivePlan::start_in_stream(rt::ConstView send,
                                                 rt::MutView recv,
                                                 int tag_stream) {
  validate_extents(send, recv);
  return launch(send, recv, nullptr, tag_stream);
}

CollectiveHandle CollectivePlan::start_inplace_in_stream(rt::MutView data,
                                                         int tag_stream) {
  validate_inplace(data);
  return launch(rt::ConstView{}, data, nullptr, tag_stream);
}

void CollectivePlan::validate_inplace(rt::MutView data) const {
  if (kind() != coll::OpKind::kAllreduce) {
    throw std::invalid_argument(
        "CollectivePlan::start_inplace: only allreduce plans reduce in "
        "place (this plan is " +
        std::string(coll::op_kind_name(kind())) + ")");
  }
  const std::size_t bytes = desc_.allreduce().bytes();
  if (data.len != bytes) throw_extent("allreduce", "data", bytes, data.len);
}

void CollectivePlan::check_can_start() const {
  if (in_flight_ > 0) {
    // MPI_Start on an active persistent request is erroneous; so is this.
    // Overlap distinct exchanges through distinct plans (or a Schedule).
    throw std::logic_error(
        "CollectivePlan::start: an operation is already in flight on this "
        "plan");
  }
}

double CollectivePlan::begin(int tag_stream) {
  check_can_start();
  // Static pre-flight verification (plan/verify.hpp): on in debug builds
  // and under A2A_VERIFY_PLANS=1, free otherwise.
  if (verify_enabled()) {
    require_verified(verify(*this, tag_stream), "CollectivePlan::start");
  }
  ++in_flight_;
  return world_->now();
}

double CollectivePlan::complete(double started_at, bool ok) {
  // The plan is idle again whether or not the exchange failed; only a
  // successful one counts. `this` is valid because move/destroy are barred
  // while in_flight_ > 0.
  const double finished_at = world_->now();
  --in_flight_;
  if (!ok) {
    return finished_at;
  }
  ++executions_;
  static obs::Counter& m_execs = obs::metrics().counter("plan.executions");
  m_execs.add();
  exec_micros_->observe(
      static_cast<std::uint64_t>((finished_at - started_at) * 1e6));
  if (autotune_ != nullptr) {
    // Every successful completion — execute(), start()/wait(), Schedule
    // batches alike — is one measured sample for the online autotuner.
    autotune_->record(profile_key_, finished_at - started_at);
  }
  return finished_at;
}

CollectiveHandle CollectivePlan::launch(rt::ConstView send, rt::MutView recv,
                                        coll::Trace* trace, int tag_stream) {
  auto st = std::make_shared<CollectiveHandle::State>();
  st->plan = this;
  st->stream = tag_stream;
  st->started_at = begin(tag_stream);
  rt::spawn_detached(run_started(st, send, recv, trace),
                     std::shared_ptr<rt::AsyncOp>(st, &st->op));
  return CollectiveHandle(std::move(st));
}

rt::Task<void> CollectivePlan::run_started(
    std::shared_ptr<CollectiveHandle::State> st, rt::ConstView send,
    rt::MutView recv, coll::Trace* trace) {
  try {
    co_await run_op(send, recv, trace, st->stream);
  } catch (...) {
    st->finished_at = complete(st->started_at, false);
    throw;  // lands in the handle's AsyncOp
  }
  st->finished_at = complete(st->started_at, true);
}

rt::Task<void> CollectivePlan::execute(rt::ConstView send, rt::MutView recv,
                                       coll::Trace* trace) {
  return run_inline(send, recv, trace, /*inplace=*/false);
}

rt::Task<void> CollectivePlan::execute_inplace(rt::MutView data) {
  return run_inline(rt::ConstView{}, data, nullptr, /*inplace=*/true);
}

rt::Task<void> CollectivePlan::run_inline(rt::ConstView send, rt::MutView recv,
                                          coll::Trace* trace, bool inplace) {
  // start()'s checks in start()'s order, at the caller's co_await: every
  // rejection comes before the stream draw.
  if (inplace) {
    validate_inplace(recv);
  } else {
    validate_extents(send, recv);
  }
  check_can_start();
  const int stream = world_->acquire_tag_stream();
  const double started_at = begin(stream);
  try {
    co_await run_op(send, recv, trace, stream);
  } catch (...) {
    complete(started_at, false);
    throw;
  }
  complete(started_at, true);
}

rt::Task<void> CollectivePlan::run_op(rt::ConstView send, rt::MutView recv,
                                      coll::Trace* trace, int tag_stream) {
  // Per-call copy so traces don't leak between calls; the scratch pointer
  // is bound here rather than at plan time so it stays valid across moves.
  coll::Options opts = opts_;
  opts.trace = trace;
  opts.scratch = &arena_;
  opts.tag_stream = tag_stream;

  // Op-level flight-recorder span on the operation's tag-stream lane; the
  // algorithms' phase spans nest inside it. Closed by the coroutine frame's
  // unwind, so a failed exchange still balances its begin.
  obs::Span op_span(world_->tracer(), coll::op_kind_name(kind()), "coll.op",
                    tag_stream,
                    {{"algo", algo_},
                     {"bytes", static_cast<std::int64_t>(recv.len)},
                     {"stream", tag_stream}});

  switch (kind()) {
    case coll::OpKind::kAlltoall:
      co_await coll::run_alltoall(static_cast<coll::Algo>(algo_), *world_,
                                  bundle(), send, recv,
                                  desc_.alltoall().block, opts);
      co_return;
    case coll::OpKind::kAlltoallv: {
      const auto& d = desc_.alltoallv();
      co_await coll::run_alltoallv(static_cast<coll::AlltoallvAlgo>(algo_),
                                   *world_, bundle(), send, d.send_counts,
                                   send_displs_, recv, d.recv_counts,
                                   recv_displs_, opts);
      co_return;
    }
    case coll::OpKind::kAllgather:
      switch (static_cast<coll::AllgatherAlgo>(algo_)) {
        case coll::AllgatherAlgo::kRing:
          co_await coll::allgather_ring(*world_, send, recv, tag_stream);
          co_return;
        case coll::AllgatherAlgo::kBruck:
          co_await coll::allgather_bruck(*world_, send, recv, &arena_,
                                         tag_stream);
          co_return;
        case coll::AllgatherAlgo::kHierarchical:
          co_await coll::allgather_hierarchical(*lc_, send, recv, &arena_,
                                                tag_stream);
          co_return;
        case coll::AllgatherAlgo::kLocalityAware:
          co_await coll::allgather_locality_aware(*lc_, send, recv, &arena_,
                                                  tag_stream);
          co_return;
        case coll::AllgatherAlgo::kCount_:
          break;
      }
      throw std::logic_error("CollectivePlan: bad allgather algorithm");
    case coll::OpKind::kAllreduce: {
      const auto& d = desc_.allreduce();
      // The (send, recv) form stages through recv; execute_inplace passes an
      // empty send and reduces recv directly.
      if (send.ptr != nullptr || send.len != 0) {
        world_->copy_and_charge(recv, send);
      }
      switch (static_cast<coll::AllreduceAlgo>(algo_)) {
        case coll::AllreduceAlgo::kRecursiveDoubling:
          co_await coll::allreduce_recursive_doubling(
              *world_, recv, d.combiner, &arena_, tag_stream);
          co_return;
        case coll::AllreduceAlgo::kRabenseifner:
          co_await coll::allreduce_rabenseifner(*world_, recv, d.combiner,
                                                &arena_, tag_stream);
          co_return;
        case coll::AllreduceAlgo::kNodeAware:
          co_await coll::allreduce_node_aware(*lc_, recv, d.combiner, &arena_,
                                              tag_stream);
          co_return;
        case coll::AllreduceAlgo::kCount_:
          break;
      }
      throw std::logic_error("CollectivePlan: bad allreduce algorithm");
    }
    case coll::OpKind::kCount_:
      break;
  }
  throw std::logic_error("CollectivePlan: bad op kind");
}

CollectivePlan make_plan(rt::Comm& world, const topo::Machine& machine,
                         const model::NetParams& net, coll::OpDesc desc,
                         const PlanOptions& opts) {
  if (world.size() != machine.total_ranks()) {
    throw std::invalid_argument(
        "make_plan: world size does not match the machine");
  }
  desc.validate(world);

  // Plan construction happens on the direct-call lane (stream 0): it is
  // not a collective exchange, but its cost and the algorithm decision it
  // makes are exactly what a timeline reader wants next to the op spans.
  obs::TraceBuffer* tb = world.tracer();
  obs::Span build_span(tb, "plan.build", "plan", 0,
                       {{"kind", static_cast<std::int64_t>(desc.kind())}});

  CollectivePlan p;
  p.world_ = &world;
  p.machine_ = std::make_shared<const topo::Machine>(machine);
  p.desc_ = std::move(desc);
  // Keyed by backend and op so virtual and wall microseconds never pool.
  std::string micros_name = "plan.exec_micros.";
  micros_name += world.backend_name();
  micros_name += '.';
  micros_name += coll::op_kind_name(p.desc_.kind());
  p.exec_micros_ = &obs::metrics().histogram(micros_name);
  p.opts_.inner = opts.inner;
  p.opts_.batch_window = opts.batch_window;
  p.opts_.system_small_threshold = opts.system_small_threshold;

  // The active online autotuner: the explicit one, else the env-configured
  // process-global one, else none (the pre-autotune path, bit-for-bit).
  autotune::OnlineSelector* tuner =
      opts.autotune != nullptr ? opts.autotune : autotune::global_selector();

  // The descriptor's algorithm, when it names one, as its enum value.
  const std::optional<int> given = std::visit(
      [](const auto& d) {
        return d.algo ? std::optional<int>(static_cast<int>(*d.algo))
                      : std::nullopt;
      },
      p.desc_.v());
  // The descriptor the tuners read: the plan's own, except that an
  // alltoallv one without a skew signature carries this rank's estimate
  // (see AlltoallvSkew for the cross-rank agreement caveat). The estimate
  // is O(p), so it is made once, and only when selection or the profile
  // key reads it.
  std::optional<coll::OpDesc> estimated;
  if (p.desc_.kind() == coll::OpKind::kAlltoallv && !p.desc_.alltoallv().skew &&
      (!given || tuner != nullptr)) {
    const auto& d = p.desc_.alltoallv();
    coll::AlltoallvDesc e;
    e.skew = coll::estimate_alltoallv_skew(d.send_counts, d.recv_counts);
    estimated.emplace(std::move(e));
  }
  const coll::OpDesc& sel = estimated ? *estimated : p.desc_;

  if (given) {
    p.algo_ = *given;
    p.group_size_ = opts.group_size == 0 ? machine.ppn() : opts.group_size;
  } else {
    // Resolution order: the online autotuner (adapt mode), then a
    // memoizing table, then the closed-form model.
    std::optional<coll::Choice> online;
    bool explored = false;
    if (tuner != nullptr) {
      online = tuner->choose(machine, net, sel, world.backend_name(),
                             &explored);
    }
    if (online && tb != nullptr) {
      tb->instant(explored ? "autotune.explore" : "autotune.exploit",
                  "autotune", 0,
                  {{"algo", online->algo}, {"group", online->group_size}});
    }
    const coll::Choice c =
        online ? *online
               : (opts.table != nullptr
                      ? opts.table->choose(machine, net, sel)
                      : coll::select_algorithm(machine, net, sel));
    p.algo_ = c.algo;
    p.group_size_ = c.group_size;
    p.predicted_seconds_ = c.predicted_seconds;
  }

  bool need_lc = false;
  bool need_leaders = false;
  switch (p.desc_.kind()) {
    case coll::OpKind::kAlltoall: {
      const auto a = static_cast<coll::Algo>(p.algo_);
      need_lc = coll::needs_locality(a);
      need_leaders = coll::needs_leader_comms(a);
      break;
    }
    case coll::OpKind::kAlltoallv: {
      const auto& d = p.desc_.alltoallv();
      const auto va = static_cast<coll::AlltoallvAlgo>(p.algo_);
      need_lc = coll::needs_locality(va);
      need_leaders = coll::needs_leader_comms(va);
      p.send_displs_ = coll::displs_from_counts(d.send_counts);
      p.recv_displs_ = coll::displs_from_counts(d.recv_counts);
      p.send_total_ = d.send_total();
      p.recv_total_ = d.recv_total();
      break;
    }
    case coll::OpKind::kAllgather:
      need_lc =
          coll::needs_locality(static_cast<coll::AllgatherAlgo>(p.algo_));
      break;
    case coll::OpKind::kAllreduce: {
      const auto& d = p.desc_.allreduce();
      if (static_cast<coll::AllreduceAlgo>(p.algo_) ==
              coll::AllreduceAlgo::kRabenseifner &&
          d.count < static_cast<std::size_t>(world.size()) &&
          world.size() > 1) {
        // Fail at plan time, not execute time: the algorithm needs at least
        // one element per rank to reduce-scatter.
        throw std::invalid_argument(
            "make_plan: Rabenseifner allreduce needs count >= ranks (" +
            std::to_string(d.count) + " < " + std::to_string(world.size()) +
            ")");
      }
      need_lc =
          coll::needs_locality(static_cast<coll::AllreduceAlgo>(p.algo_));
      break;
    }
    case coll::OpKind::kCount_:
      throw std::logic_error("make_plan: bad op kind");
  }

  if (tuner != nullptr) {
    p.autotune_ = tuner;
    p.profile_key_ = autotune::make_profile_key(
        machine, p.desc_.kind(), coll::size_class(sel, machine), p.algo_,
        p.group_size_, world.backend_name());
  }
  if (need_lc) {
    p.lc_.emplace(rt::build_locality_comms(world, *p.machine_, p.group_size_,
                                           need_leaders));
  }
  if (tb != nullptr) {
    tb->instant("plan.algo", "plan", 0,
                {{"kind", static_cast<std::int64_t>(p.desc_.kind())},
                 {"algo", p.algo_},
                 {"group", p.group_size_}});
  }
  return p;
}

CollectivePlan make_plan(rt::Comm& world, const topo::Machine& machine,
                         const model::NetParams& net, std::size_t block,
                         const PlanOptions& opts) {
  coll::AlltoallDesc d;
  d.block = block;
  return make_plan(world, machine, net, coll::OpDesc(std::move(d)), opts);
}

}  // namespace mca2a::plan
