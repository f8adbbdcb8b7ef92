#include "plan/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "plan/verify.hpp"

namespace mca2a::plan {

int Schedule::add(CollectivePlan& plan, rt::ConstView send, rt::MutView recv,
                  std::size_t compute_bytes) {
  if (ran_) {
    throw std::logic_error("Schedule::add: schedule already ran");
  }
  Op op;
  op.plan = &plan;
  op.send = send;
  op.recv = recv;
  op.compute_bytes = compute_bytes;
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

int Schedule::add_inplace(CollectivePlan& plan, rt::MutView data,
                          std::size_t compute_bytes) {
  const int id = add(plan, rt::ConstView{}, data, compute_bytes);
  ops_[id].inplace = true;
  return id;
}

void Schedule::check_op_id(int op) const {
  if (op < 0 || op >= static_cast<int>(ops_.size())) {
    throw std::out_of_range("Schedule: op id " + std::to_string(op) +
                            " out of range");
  }
}

void Schedule::add_dependency(int before, int after) {
  if (ran_) {
    throw std::logic_error("Schedule::add_dependency: schedule already ran");
  }
  check_op_id(before);
  check_op_id(after);
  if (before == after) {
    throw std::invalid_argument("Schedule: op cannot depend on itself");
  }
  ops_[after].deps.push_back(before);
}

void Schedule::check_acyclic() const {
  // Kahn's algorithm over the dependency edges; anything left unprocessed
  // sits on a cycle.
  const int n = static_cast<int>(ops_.size());
  std::vector<int> indegree(n, 0);
  for (int i = 0; i < n; ++i) {
    indegree[i] = static_cast<int>(ops_[i].deps.size());
  }
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  int processed = 0;
  while (!ready.empty()) {
    const int cur = ready.back();
    ready.pop_back();
    ++processed;
    for (int i = 0; i < n; ++i) {
      for (int d : ops_[i].deps) {
        if (d == cur && --indegree[i] == 0) {
          ready.push_back(i);
        }
      }
    }
  }
  if (processed != n) {
    throw std::invalid_argument("Schedule::run: dependency cycle");
  }
}

rt::Task<void> Schedule::drive(int i) {
  Op& op = ops_[i];
  for (int d : op.deps) {
    // Rethrows a failed dependency, which parks this op's own AsyncOp with
    // the same error: failures poison the downstream DAG.
    co_await done_[d]->wait();
  }
  rt::Comm& comm = op.plan->comm();
  if (obs::TraceBuffer* tb = comm.tracer()) {
    // Launch marker on the op's own lane: its dependencies have completed
    // and the collective span (plan.cpp's run_op) starts right here.
    tb->instant("sched.launch", "sched", op.tag_stream,
                {{"op", i},
                 {"deps", static_cast<std::int64_t>(op.deps.size())},
                 {"stream", op.tag_stream}});
  }
  if (op.compute_bytes > 0) {
    comm.charge_copy(op.compute_bytes);
  }
  // The tag stream was reserved in run() — the *start* order here is
  // dependency-completion order, which is rank-local and must not decide
  // which stream an op gets.
  CollectiveHandle h =
      op.inplace ? op.plan->start_inplace_in_stream(op.recv, op.tag_stream)
                 : op.plan->start_in_stream(op.send, op.recv, op.tag_stream);
  op.stats.started_at = h.started_at();
  try {
    co_await h.wait();
  } catch (...) {
    // A failed op reports zero times, like an op whose dependency failed;
    // a started_at with no finished_at would read as a negative duration.
    op.stats = OpStats{};
    throw;
  }
  op.stats.finished_at = h.finished_at();
}

rt::Task<void> Schedule::run() {
  if (ran_) {
    throw std::logic_error("Schedule::run: schedule already ran");
  }
  check_acyclic();
  ran_ = true;
  const int n = static_cast<int>(ops_.size());
  // Reserve every op's tag stream up front, in add order. Drivers start
  // ops as dependencies complete, and completion order is rank-local
  // (leaders finish before non-leaders, noise reorders events); drawing
  // at start time would let ranks disagree on stream assignment, which is
  // exactly the cross-matching the streams exist to prevent.
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    ops_[i].tag_stream = i < forced_streams_.size()
                             ? forced_streams_[i]
                             : ops_[i].plan->comm().acquire_tag_stream();
  }
  // Static batch verification (plan/verify.hpp): with the streams fixed,
  // prove tag-stream disjointness of every potentially-concurrent pair and
  // the one-in-flight-per-plan ordering before anything starts.
  if (verify_enabled()) {
    std::vector<VerifyOp> vops;
    vops.reserve(ops_.size());
    for (const Op& op : ops_) {
      VerifyOp v;
      v.comm = &op.plan->comm();
      v.tag_stream = op.tag_stream;
      v.plan = op.plan;
      v.deps = op.deps;
      vops.push_back(std::move(v));
    }
    require_verified(verify(vops), "Schedule::run");
  }
  // Dependency edges, once per run on the direct-call lane: a timeline
  // reader can reconstruct the DAG from (before, after) pairs and match
  // them to the sched.launch markers on the per-op lanes.
  for (int after = 0; after < n; ++after) {
    if (obs::TraceBuffer* tb = ops_[after].plan->comm().tracer()) {
      for (int before : ops_[after].deps) {
        tb->instant("sched.dep", "sched", 0,
                    {{"before", before}, {"after", after}});
      }
    }
  }
  done_.clear();
  done_.reserve(n);
  for (int i = 0; i < n; ++i) {
    done_.push_back(std::make_shared<rt::AsyncOp>());
  }
  // Two passes so every driver can wait on any other op's event: drivers
  // start (and may complete, on the threads backend) in add order, which
  // is exactly the deterministic start order the collective contract needs.
  for (int i = 0; i < n; ++i) {
    rt::spawn_detached(drive(i), done_[i]);
  }
  // Drain every op before reporting: a fast-failing op must not leave its
  // siblings in flight when the error propagates (their buffers unwind
  // with the caller). The first failure by op index is rethrown.
  std::exception_ptr first_error;
  for (int i = 0; i < n; ++i) {
    try {
      co_await done_[i]->wait();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

double Schedule::makespan() const {
  double t0 = 0.0;
  double t1 = 0.0;
  bool first = true;
  for (const Op& op : ops_) {
    if (op.stats.finished_at == 0.0) {
      continue;
    }
    t0 = first ? op.stats.started_at : std::min(t0, op.stats.started_at);
    t1 = first ? op.stats.finished_at : std::max(t1, op.stats.finished_at);
    first = false;
  }
  return first ? 0.0 : t1 - t0;
}

double Schedule::critical_path() const {
  const int n = static_cast<int>(ops_.size());
  std::vector<double> cp(n, -1.0);
  // Dependencies only ever point at already-added ops in typical use, but
  // add_dependency accepts any pair, so resolve with a worklist until all
  // chain sums settle (the DAG check in run() guarantees termination).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int i = 0; i < n; ++i) {
      if (cp[i] >= 0.0) {
        continue;
      }
      double longest_dep = 0.0;
      bool deps_ready = true;
      for (int d : ops_[i].deps) {
        if (cp[d] < 0.0) {
          deps_ready = false;
          break;
        }
        longest_dep = std::max(longest_dep, cp[d]);
      }
      if (deps_ready) {
        cp[i] = longest_dep + ops_[i].stats.seconds();
        progressed = true;
      }
    }
  }
  double best = 0.0;
  for (int i = 0; i < n; ++i) {
    best = std::max(best, cp[i]);
  }
  return best;
}

}  // namespace mca2a::plan
