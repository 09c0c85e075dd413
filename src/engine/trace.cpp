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

uint64_t TraceExecutor::drain(std::vector<Activation>& seeds,
                              const UpdateFilter& f) {
  MatchState& ms = *ctx_.state;
  assert(!ms.unlinking && "the recorder keeps every join linked");
  ctx_.filter = f;
  std::vector<Activation>& queue = ctx_.out;
  queue.clear();  // residue of a drain an exception cut short
  // Quiescent drain boundary: alpha state and node ids compiled since the
  // last drain (chunk additions) must exist before any task touches them.
  ms.ensure_alpha(net_.alpha_mem_count());
  ms.ensure_links(net_.node_count());
  if (obs::MatchProfiler* p = observer_.profiler()) {
    p->ensure_nodes(net_.node_count());
    p->ensure_agents(1 + ctx_.agent);
  }
  ms.arena.begin_drain();
  for (const Activation& s : seeds) {
    if (net_.should_execute(s, ctx_)) queue.push_back(s);
  }
  parents_.assign(queue.size(), UINT32_MAX);
  for (size_t head = 0; head < queue.size(); ++head) {
    const Activation act = queue[head];  // copy: execute appends to queue
    const auto task = static_cast<uint32_t>(trace_.tasks.size());
    TaskRecord r;
    r.parent = parents_[head];
    r.node = act.node;
    r.type = net_.node(act.node)->type;
    r.side = act.side;
    r.add = act.add;
    trace_.tasks.push_back(std::move(r));
    ctx_.stats.reset();
    observer_.before(ctx_.stats);
    net_.execute(act, ctx_);
    observer_.after(act, ctx_.stats);
    trace_.tasks[task].stats = ctx_.stats;
    parents_.resize(queue.size(), task);
  }
  ms.arena.reclaim_at_quiescence();
  return queue.size();
}

CycleTrace TraceExecutor::take_trace() {
  return std::exchange(trace_, CycleTrace{});
}

}  // namespace psme
