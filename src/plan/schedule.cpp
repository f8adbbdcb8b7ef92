#include "plan/schedule.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"

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

void Schedule::sort_ops() {
  // Kahn's algorithm, with order_ as its queue: one pass over the edges.
  // Ops never queued sit on a cycle.
  const std::size_t n = ops_.size();
  std::vector<std::vector<int>> dependents(n);
  std::vector<std::size_t> waiting(n);
  order_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    waiting[i] = ops_[i].deps.size();
    for (int d : ops_[i].deps) {
      dependents[d].push_back(static_cast<int>(i));
    }
    if (waiting[i] == 0) {
      order_.push_back(static_cast<int>(i));
    }
  }
  for (std::size_t k = 0; k < order_.size(); ++k) {
    for (int i : dependents[order_[k]]) {
      if (--waiting[i] == 0) {
        order_.push_back(i);
      }
    }
  }
  if (order_.size() != n) {
    throw std::invalid_argument("Schedule::run: dependency cycle");
  }
}

void Schedule::check_unordered_ops() const {
  // Ops that share a plan, or a communicator and a tag stream, must form
  // one dependency chain. Taken in dependency order, that holds exactly
  // when each such op has a path from the previous one with its key: the
  // previous one sorts first, so no path that way means none at all.
  std::vector<int> seen(ops_.size(), -1);
  std::vector<int> stack;
  int walk = 0;
  const auto reaches = [&](int from, int to) {  // walks back from `to`
    ++walk;
    stack.assign(1, to);
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      for (int d : ops_[cur].deps) {
        if (d == from) {
          return true;
        }
        if (seen[d] != walk) {
          seen[d] = walk;
          stack.push_back(d);
        }
      }
    }
    return false;
  };
  // Keyed by (plan, -1) and (communicator, stream >= 0), so the two kinds
  // of key never meet.
  std::map<std::pair<const void*, int>, int> last;
  for (int i : order_) {
    const Op& op = ops_[i];
    const std::pair<const void*, int> keys[] = {
        {op.plan, -1}, {&op.plan->comm(), op.tag_stream}};
    for (const auto& key : keys) {
      const auto [it, first] = last.try_emplace(key, i);
      if (!first && !reaches(it->second, i)) {
        throw std::logic_error(
            "Schedule::run: ops " + std::to_string(std::min(it->second, i)) +
            " and " + std::to_string(std::max(it->second, i)) +
            (key.second < 0 ? " share a plan"
                            : " share tag stream " +
                                  std::to_string(key.second) +
                                  " on one communicator") +
            " with no dependency path between them");
      }
      it->second = i;
    }
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
  sort_ops();
  ran_ = true;
  const int n = size();
  // Reserve every op's tag stream up front, in add order. Drivers start
  // ops as dependencies complete, and completion order is rank-local
  // (leaders finish before non-leaders, noise reorders events); drawing
  // at start time would let ranks disagree on stream assignment, which is
  // exactly the cross-matching the streams exist to prevent.
  for (Op& op : ops_) {
    op.tag_stream = op.plan->comm().acquire_tag_stream();
  }
  check_unordered_ops();
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
  // Longest chain ending at each op, in dependency order. Before run()
  // order_ is empty and every duration is zero anyway.
  std::vector<double> cp(ops_.size(), 0.0);
  double best = 0.0;
  for (int i : order_) {
    double longest_dep = 0.0;
    for (int d : ops_[i].deps) {
      longest_dep = std::max(longest_dep, cp[d]);
    }
    cp[i] = longest_dep + ops_[i].stats.seconds();
    best = std::max(best, cp[i]);
  }
  return best;
}

}  // namespace mca2a::plan
