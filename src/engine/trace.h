// Task-trace recorder: the executor of an engine that records traces (an
// engine that records nothing drains on its ParallelMatcher).
//
// It drains node activations in FIFO order (like PSM-E's shared task queue,
// minus the other processes) and notes for every task which task spawned it
// and how much raw work it did. With every join linked, that trace is the
// exact task DAG of the cycle at the paper's granularity; the virtual
// multiprocessor (src/psim) schedules it on P processors to produce the
// paper's speedup figures, and the matcher's results are checked against
// this executor's for equivalence.
#pragma once

#include <cstdint>
#include <vector>

#include "base/ring.h"
#include "obs/record.h"
#include "rete/network.h"

namespace psme {

struct TaskRecord {
  uint32_t parent = UINT32_MAX;  // index of the spawning task; UINT32_MAX = seed
  uint32_t node = 0;
  NodeType type = NodeType::Const;
  Side side = Side::Left;
  bool add = true;
  TaskStats stats;
};

struct CycleTrace {
  std::vector<TaskRecord> tasks;

  [[nodiscard]] size_t task_count() const { return tasks.size(); }

  /// Moves tasks [at, end) into a trace of their own, parents re-based; used
  /// to cut a §5.2 update's DAG where its replay phase began. The tail must
  /// not reference tasks before `at` (a new drain's tasks never do).
  CycleTrace split_off(size_t at);
};

class TraceExecutor final : public ExecContext, public Drain {
 public:
  /// `observer` is this executor's per-task instrumentation (task spans,
  /// profiler shard 0), bound for its whole life. `ms` must keep every join
  /// linked (MatchState::unlinking off): the recorder runs no unlink sweep.
  TraceExecutor(Network& net, MatchState& ms, obs::TaskObserver observer = {})
      : net_(net), observer_(observer) {
    state = &ms;
  }

  void emit(Activation&& a) override;

  /// Drains `seeds` and everything they spawn under `filter`, as one arena
  /// epoch, and appends the tasks to the DAG that take_trace() hands over;
  /// returns the number of tasks executed.
  uint64_t drain(std::vector<Activation>& seeds,
                 const UpdateFilter& filter) override;

  /// The DAG recorded since the last take.
  CycleTrace take_trace();

 private:
  // std::pair is not trivially copyable in libstdc++ (its operator= is
  // user-provided), so the FIFO ring carries this explicit POD instead.
  struct QueuedTask {
    Activation act;
    uint32_t parent = UINT32_MAX;
  };
  static_assert(std::is_trivially_copyable_v<QueuedTask>);

  Network& net_;
  obs::TaskObserver observer_;
  uint32_t current_parent_ = UINT32_MAX;
  RingBuffer<QueuedTask> queue_;
  CycleTrace trace_;
};

}  // namespace psme
