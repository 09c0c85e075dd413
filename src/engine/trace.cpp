#include "engine/trace.h"

#include "obs/record.h"

namespace psme {

void CycleTrace::append(CycleTrace&& other) {
  const uint32_t base = static_cast<uint32_t>(tasks.size());
  for (TaskRecord& r : other.tasks) {
    if (r.parent != UINT32_MAX) r.parent += base;
    tasks.push_back(std::move(r));
  }
  for (auto& la : other.line_accesses) line_accesses.push_back(la);
}

void TraceExecutor::emit(Activation&& a) {
  queue_.push_back(QueuedTask{a, current_parent_});
}

CycleTrace TraceExecutor::run_to_quiescence(std::vector<Activation>& seeds) {
  trace_ = CycleTrace{};
  current_parent_ = UINT32_MAX;
  // Quiescent drain boundary: alpha state compiled since the last drain
  // (chunk additions) must exist before any task touches it.
  state->ensure_alpha(net_.alpha_mem_count());
  if (profiler_ != nullptr) {
    profiler_->ensure_nodes(net_.node_count());
    profiler_->ensure_agents(1 + agent);
  }
  for (auto& s : seeds) emit(std::move(s));
  while (!queue_.empty()) {
    const QueuedTask task = queue_.front();
    queue_.pop_front();
    if (!net_.should_execute(task.act, *this)) continue;
    ++executed_;
    uint32_t index = UINT32_MAX;
    if (record_) {
      index = static_cast<uint32_t>(trace_.tasks.size());
      TaskRecord r;
      r.parent = task.parent;
      r.node = task.act.node;
      r.type = net_.node(task.act.node)->type;
      r.side = task.act.side;
      r.add = task.act.add;
      trace_.tasks.push_back(std::move(r));
    }
    stats.reset();
    current_parent_ = index;
    const uint64_t t0 = tracer_ != nullptr ? tracer_->now_ns() : 0;
    uint64_t p0 = 0;
    bool timed = false;
    if (profiler_ != nullptr) {
      timed = profiler_->sample(0);
      if (timed) p0 = obs::profile_now_ns();
    }
    net_.execute(task.act, *this);
    if (profiler_ != nullptr) {
      profiler_->record(0, task.act.node, task.act.agent, timed,
                        timed ? obs::profile_now_ns() - p0 : 0, stats.emits);
    }
    if (tracer_ != nullptr) {
      obs::record_task(*tracer_, tracer_->ring(track_), t0, task.act, stats);
    }
    if (record_) trace_.tasks[index].stats = stats;
  }
  current_parent_ = UINT32_MAX;
  if (record_) {
    trace_.line_accesses = state->tables.harvest_cycle_accesses();
  } else {
    // No-trace cycles still reset the per-cycle counters, but without
    // building (and so allocating) the harvest vector.
    state->tables.reset_cycle_accesses();
  }
  return std::move(trace_);
}

}  // namespace psme
