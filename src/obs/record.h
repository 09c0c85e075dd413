// The per-task instrumentation path (TaskObserver) and the other hot-path
// recording helpers that need rete types (Activation, TaskStats). Kept out of
// tracer.h so the core tracing header stays dependency-free; included only
// by the executors (engine/trace.h, par/parallel_match.cpp).
#pragma once

#include "obs/profiler.h"
#include "obs/tracer.h"
#include "rete/network.h"

namespace psme::obs {

/// One executor's (or one worker's) view of the task-level instruments:
/// bound once, at a quiescent point, to a tracer track and a profiler shard,
/// then called once before and once after every Network::execute. It resets
/// the context's per-task stats, ticks the profiler's sampler, reads the
/// clocks, folds the task into its profiler cell and pushes its TaskExec
/// span. With both instruments off each call is two null tests. The state
/// between before() and after() lives here, so an observer is owned by
/// exactly one thread — the trace recorder or one matcher worker.
class TaskObserver {
 public:
  TaskObserver() = default;
  /// Either instrument may be null. Binding grows the tracer to `track` and
  /// the profiler to `shard`, so it must happen while no drain is running.
  TaskObserver(Tracer* tracer, size_t track, MatchProfiler* profiler,
               size_t shard)
      : tracer_(tracer), profiler_(profiler), shard_(shard) {
    if (tracer_ != nullptr) {
      tracer_->ensure_tracks(track + 1);
      ring_ = &tracer_->ring(track);
    }
    if (profiler_ != nullptr) profiler_->ensure_workers(shard + 1);
  }

  [[nodiscard]] MatchProfiler* profiler() const { return profiler_; }

  void before(TaskStats& stats) {
    if (ring_ != nullptr) {
      stats.reset();  // per-task deltas for the span and the profiler
      t0_ = tracer_->now_ns();
    }
    if (profiler_ != nullptr) {
      if (ring_ == nullptr) stats.reset();
      timed_ = profiler_->sample(shard_);
      if (timed_) p0_ = profile_now_ns();
    }
  }

  void after(const Activation& a, const TaskStats& stats) {
    if (profiler_ != nullptr) {
      profiler_->record(shard_, a.node, a.agent, timed_,
                        timed_ ? profile_now_ns() - p0_ : 0, stats.emits);
    }
    if (ring_ != nullptr) {
      TraceEvent e;
      e.ts_ns = t0_;
      e.dur_ns = tracer_->now_ns() - t0_;
      e.kind = EventKind::TaskExec;
      e.flags = static_cast<uint8_t>(
          (a.add ? kTaskFlagAdd : 0) |
          (a.side == Side::Right ? kTaskFlagRight : 0));
      e.node = a.node;
      e.v0 = stats.tests;
      e.v1 = stats.probes;
      e.v2 = stats.inserts;
      e.v3 = stats.emits;
      ring_->push(e);
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  EventRing* ring_ = nullptr;  // null = no task spans
  MatchProfiler* profiler_ = nullptr;  // null = profiling off
  size_t shard_ = 0;
  uint64_t t0_ = 0;
  uint64_t p0_ = 0;
  bool timed_ = false;
};

/// Pushes an instant event (dur == 0) stamped now.
inline void record_instant(Tracer& t, EventRing& ring, EventKind kind,
                           uint32_t node = 0, uint32_t v0 = 0) {
  TraceEvent e;
  e.ts_ns = t.now_ns();
  e.kind = kind;
  e.node = node;
  e.v0 = v0;
  ring.push(e);
}

}  // namespace psme::obs
