// The threaded match executor: N match processes pull node activations from
// the scheduler and execute them against the shared network.
//
// The scheduler is work-first: every activation a worker emits goes onto
// that worker's private stack and is run next, touching no shared state; a
// task's children, like a cycle's seeds, run in the order they were emitted
// (DESIGN.md §8.5). Work reaches the worker's lock-free Chase–Lev deque
// (par/ws_deque.h) only when a peer can take it: once some peer has failed a
// steal sweep and found nothing since, a busy worker publishes the bottom
// half of its stack (the work it would reach last). Thieves steal from the
// deques with randomized CAS-only probes; idle workers back off
// exponentially across failed whole-pool sweeps and then park on an atomic
// wait (par/worker_pool.h) instead of hammering locks. A cycle's seeds start
// on the caller's private stack, so a cycle nobody helps with runs
// depth-first on the caller's thread with no per-task atomic, box or deque
// operation, and a one-worker matcher starts no thread at all: it is the
// executor of every engine that records no task DAG. The paper's spinlocked
// task queues (§2.3; one shared queue or one per process) are modeled by the
// virtual multiprocessor's QueuePolicy (src/psim), which is what the Figure
// 6-x reproductions measure.
//
// Worker threads are spawned once per ParallelMatcher lifetime (WorkerPool)
// and parked between cycles, so a matcher held by an Engine runs thousands
// of cycles without re-spawning threads or re-building queues.
//
// Termination detection: each worker owns a padded (created, executed)
// counter pair over *roots* — the seed batch and every published task. A
// creation is counted *before* the task is pushed; a root counts as
// executed only once the private stack it grew is empty, so work held
// privately keeps its root unbalanced. Idle workers sweep executed totals
// before created totals, so any observed equality implies true quiescence.
// See DESIGN.md §8.3.
//
// On hosts with 1–4 vCPUs a wide pool oversubscribes the cores, so a wide
// matcher is exercised for *correctness* (its final match state must equal
// the one-worker matcher's and the trace recorder's) and for real scheduler
// statistics. Paper speedup *curves* come from the virtual multiprocessor
// (src/psim), which schedules recorded task DAGs on P virtual processors.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/rng.h"
#include "obs/record.h"
#include "par/worker_pool.h"
#include "par/ws_deque.h"
#include "rete/network.h"

namespace psme {

struct ParallelStats {
  /// Buckets of the consecutive-failed-sweep histogram: run lengths
  /// 1, 2, 3-4, 5-8, 9-16, >16 (a run ends when a take succeeds, the worker
  /// parks, or the cycle drains).
  static constexpr size_t kSweepHistBuckets = 6;

  uint64_t tasks = 0;
  uint64_t steals = 0;            // successful cross-worker takes
  uint64_t failed_steals = 0;     // empty/lost-race steal attempts
  uint64_t failed_sweeps = 0;     // whole-pool sweeps finding nothing
  uint64_t sweep_backoff_ns = 0;  // time spent in the backoff ladder
  uint64_t parks = 0;             // times a worker parked
  uint64_t chain_inline = 0;      // tasks run from a private stack
  uint64_t shares = 0;            // activations published to a hungry peer
  uint64_t pool_slabs = 0;        // task-box slabs the workers hold
  uint64_t sweep_hist[kSweepHistBuckets] = {};  // failed-sweep run lengths
  /// The workers' match counters plus the end-of-cycle unlink sweep's.
  MatchCounters counters;
  double wall_seconds = 0;

  /// Folds another cycle's numbers into this accumulator: traffic counters
  /// and wall time add; the lifetime gauge (pool slabs) takes the newer
  /// cycle's value. The one merge rule for every call site instead of
  /// per-site field lists.
  void accumulate(const ParallelStats& st) {
    tasks += st.tasks;
    steals += st.steals;
    failed_steals += st.failed_steals;
    failed_sweeps += st.failed_sweeps;
    sweep_backoff_ns += st.sweep_backoff_ns;
    parks += st.parks;
    chain_inline += st.chain_inline;
    shares += st.shares;
    for (size_t i = 0; i < kSweepHistBuckets; ++i) {
      sweep_hist[i] += st.sweep_hist[i];
    }
    counters.accumulate(st.counters);
    wall_seconds += st.wall_seconds;
    pool_slabs = st.pool_slabs;
  }
};

class ParallelMatcher final : public Drain {
 public:
  /// No agent state is registered at construction: every agent session —
  /// including agent 0 — joins via register_agent(). Sessions multiplex
  /// over the same workers and network; every task carries its agent tag
  /// (Activation::agent) and is executed against exactly that agent's
  /// MatchState, so one agent's drain cannot observe or stall another's. A
  /// cycle run before any registration must carry no seeds.
  /// `tracer`, when non-null, turns on event recording: prewarm() binds
  /// each worker's TaskObserver to its own ring (tracks 1..n; track 0
  /// belongs to the engine thread) before any worker runs, and the
  /// scheduler loop records task spans, steal attempts/outcomes, park
  /// intervals and queue-depth samples into its own track. The tracer must
  /// outlive the matcher.
  /// `profiler`, when non-null, attributes every executed task to its
  /// (node, agent) cell in the worker's shard (obs/profiler.h), through the
  /// same observers; the run_cycle drain boundary grows the cells
  /// quiescently. The profiler must outlive the matcher.
  ParallelMatcher(Network& net, size_t n_workers,
                  obs::Tracer* tracer = nullptr,
                  obs::MatchProfiler* profiler = nullptr);
  ~ParallelMatcher();
  ParallelMatcher(const ParallelMatcher&) = delete;
  ParallelMatcher& operator=(const ParallelMatcher&) = delete;

  /// Registers another agent's state; returns its agent id (the tag its
  /// seeds must carry). Quiescent-only: never call while a cycle is in
  /// flight. The state must outlive the matcher (or at least every cycle
  /// that references its id).
  uint32_t register_agent(MatchState& st);

  [[nodiscard]] size_t agent_count() const { return states_.size(); }
  /// The instruments the workers record into (null = off). An Engine that
  /// joins this matcher records its own spans here too.
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }
  [[nodiscard]] obs::MatchProfiler* profiler() const { return profiler_; }
  [[nodiscard]] MatchState& agent_state(uint32_t agent) {
    return *states_[agent];
  }

  /// Drains `seeds` and everything they spawn across all workers; returns
  /// when the match is quiescent. The seeds are caller-owned scratch, read
  /// but not kept, so a persistent caller (Engine) pays no per-cycle
  /// seed-vector allocation. Seeds must be homogeneous — all additions or
  /// all deletions, not both: a delete token racing a sibling addition
  /// through the same memories is order-dependent (the join can install a
  /// fresh PI behind a delete token that already swept that line). Callers
  /// with a mixed wme batch drain the removals to quiescence first
  /// (run_match), which yields the recorder's final state. Seeds may mix
  /// *agents* freely (each tagged task only touches its own agent's state; the
  /// homogeneity rule applies per agent and holds trivially across agents)
  /// — this is how AgentGroup batches N agents' cycles into one drain,
  /// amortizing the pool dispatch across sessions. `filter` is the §5.2
  /// task filter, applied at emit time: a run_update phase passes it, so the
  /// new production's state update enjoys the full parallelism of the match
  /// (what Figure 6-9 measures). After the pool join the cycle unlinks every
  /// join its tasks left with an empty left memory (DESIGN.md §16); a mixed
  /// batch drained with run_match sweeps once, after its second drain.
  ParallelStats run_cycle(std::span<const Activation> seeds,
                          const UpdateFilter& filter = {});

  /// One match of a mixed wme batch: `seeds` holds the removals first and
  /// the additions after, `n_removes` of them removals. Drains the removals
  /// to quiescence, then the additions, then runs run_cycle's unlink sweep
  /// once for both (DESIGN.md §16.2). The drains are spanned on `track` of
  /// tracer().
  ParallelStats run_match(std::span<const Activation> seeds, size_t n_removes,
                          size_t track);

  /// Drain: run_cycle's executed-task count.
  uint64_t drain(std::vector<Activation>& seeds,
                 const UpdateFilter& filter) override {
    return run_cycle(seeds, filter).tasks;
  }

  [[nodiscard]] size_t workers() const { return n_workers_; }

  /// Aggregate over every cycle this matcher has run (persistent-lifetime
  /// diagnostics; per-cycle numbers come from the run_* return value).
  [[nodiscard]] uint64_t lifetime_tasks() const { return lifetime_tasks_; }
  [[nodiscard]] uint64_t lifetime_cycles() const { return lifetime_cycles_; }

 private:
  /// A worker's ExecContext, owned by its slot for the matcher's whole life,
  /// so its buffers keep their high-water capacity across every cycle. Emits
  /// land on the private stack, the worker's unpublished work: a task's
  /// children are reversed after it so the first emitted is popped next,
  /// and run_pass puts the seeds on worker 0's the same way. The §5.2 filter
  /// is applied at emit time, so dropped tasks are never stacked, counted or
  /// published.
  class StackCtx final : public ExecContext {
   public:
    StackCtx(Network& net, size_t worker_index) : net_(net) {
      worker = worker_index;  // child tokens spill into this worker's pool
    }

    void emit(Activation&& a) override {
      if (net_.should_execute(a, *this)) stack.push_back(a);
    }

    std::vector<Activation> stack;

   private:
    Network& net_;
  };

  /// Per-worker scheduler state, one cache line apart so the hot counters
  /// of different workers never share a line.
  struct alignas(64) WorkerSlot {
    WorkerSlot(Network& net, size_t worker, uint64_t seed)
        : rng(seed), ctx(net, worker) {}

    WsDeque<Activation> deque;
    // Termination counters: written by the owner, swept by idle workers.
    std::atomic<uint64_t> created{0};
    std::atomic<uint64_t> executed{0};
    // Owner-private traffic counters, accumulated at quiescence.
    ParallelStats stats;
    Rng rng;
    // Its private stack, its execute() scratch, and the joins its tasks
    // left with an empty left memory, swept after the pool join (DESIGN.md
    // §16). reset_slots() sets the filter and clears the stack and counters
    // each pass; the sweep clears the emptied list.
    StackCtx ctx;
    // This worker's task spans and profiler shard, bound at prewarm().
    obs::TaskObserver observer;

    // Task boxes: the deque holds pointers, so publish() copies each
    // published activation into the next box of this append-only buffer,
    // and reset_slots() rewinds it. A taker reads its task out of the box
    // and never frees it, so a box lives until the next quiescence and no
    // box crosses back to its owner (DESIGN.md §9.4). Slabs stay allocated:
    // the buffer grows to its high-water mark, then reuses it.
    static constexpr size_t kBoxSlab = 256;
    std::vector<std::unique_ptr<Activation[]>> box_slabs;
    size_t boxes_used = 0;

    Activation* box(const Activation& a) {
      if (boxes_used == box_slabs.size() * kBoxSlab) {
        box_slabs.push_back(std::make_unique<Activation[]>(kBoxSlab));
      }
      Activation* b = &box_slabs[boxes_used / kBoxSlab][boxes_used % kBoxSlab];
      ++boxes_used;
      *b = a;
      return b;
    }
  };

  /// run_cycle, with the closing unlink sweep only when `sweep` is set.
  ParallelStats run_pass(std::span<const Activation> seeds,
                         const UpdateFilter& filter, bool sweep);
  void steal_loop(size_t worker, std::atomic<bool>& abort);
  void run_root(size_t worker, Activation* root, std::atomic<bool>& abort);
  void publish(size_t worker, std::vector<Activation>& stack, size_t n);
  Activation* take_task(size_t worker);
  [[nodiscard]] bool quiescent() const;
  void reset_slots(const UpdateFilter& filter);
  void prewarm();

  Network& net_;
  // Registered agent states, indexed by agent id. The worker loop re-binds
  // its ExecContext from this table per task.
  std::vector<MatchState*> states_;
  size_t n_workers_;
  obs::Tracer* tracer_;  // null = tracing off (one branch per event site)
  obs::MatchProfiler* profiler_;  // null = profiling off (same discipline)
  WorkerPool pool_;
  ParkingLot lot_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  // Workers that failed a steal sweep and have found nothing since. A
  // worker with private work reads it once per task and shares when it is
  // non-zero; written only on idle transitions, so its own line stays
  // read-mostly.
  alignas(64) std::atomic<uint32_t> hungry_{0};
  uint64_t lifetime_tasks_ = 0;
  uint64_t lifetime_cycles_ = 0;
};

}  // namespace psme
