#include "engine/trace.h"

#include <cassert>
#include <utility>

namespace psme {

CycleTrace CycleTrace::split_off(size_t at) {
  CycleTrace tail;
  if (at >= tasks.size()) return tail;
  const auto base = static_cast<uint32_t>(at);
  tail.tasks.assign(tasks.begin() + static_cast<ptrdiff_t>(at), tasks.end());
  tasks.resize(at);
  for (TaskRecord& r : tail.tasks) {
    if (r.parent != UINT32_MAX) r.parent -= base;
  }
  return tail;
}

void TraceExecutor::emit(Activation&& a) {
  queue_.push_back(QueuedTask{a, current_parent_});
}

uint64_t TraceExecutor::drain(std::vector<Activation>& seeds,
                              const UpdateFilter& f) {
  assert(!state->unlinking && "the recorder keeps every join linked");
  filter = f;
  queue_.clear();  // residue of a drain an exception cut short
  // Quiescent drain boundary: alpha state and node ids compiled since the
  // last drain (chunk additions) must exist before any task touches them.
  state->ensure_alpha(net_.alpha_mem_count());
  state->ensure_links(net_.node_count());
  if (obs::MatchProfiler* p = observer_.profiler()) {
    p->ensure_nodes(net_.node_count());
    p->ensure_agents(1 + agent);
  }
  state->arena.begin_drain();
  current_parent_ = UINT32_MAX;
  for (auto& s : seeds) emit(std::move(s));
  uint64_t executed = 0;
  while (!queue_.empty()) {
    const QueuedTask task = queue_.front();
    queue_.pop_front();
    if (!net_.should_execute(task.act, *this)) continue;
    ++executed;
    current_parent_ = static_cast<uint32_t>(trace_.tasks.size());
    TaskRecord r;
    r.parent = task.parent;
    r.node = task.act.node;
    r.type = net_.node(task.act.node)->type;
    r.side = task.act.side;
    r.add = task.act.add;
    trace_.tasks.push_back(std::move(r));
    stats.reset();
    observer_.before(stats);
    net_.execute(task.act, *this);
    observer_.after(task.act, stats);
    trace_.tasks[current_parent_].stats = stats;
  }
  state->arena.reclaim_at_quiescence();
  return executed;
}

CycleTrace TraceExecutor::take_trace() {
  return std::exchange(trace_, CycleTrace{});
}

}  // namespace psme
