// The threaded match executor: N match processes pull node activations from
// the scheduler and execute them against the shared network.
//
// The scheduler is a work-stealing core: one lock-free Chase–Lev deque per
// worker (par/ws_deque.h), owner-side push/pop, randomized CAS-only
// stealing, per-worker cache-line-padded counters for termination detection
// and statistics, emit bursts published once per node execution, dependent
// activation chains executed inline up to a tunable split depth (long chains
// become stealable suffixes — see StealTuning), and idle workers that back
// off exponentially across failed whole-pool sweeps and then park on a
// condvar (par/worker_pool.h) instead of hammering locks. The paper's
// spinlocked task queues (§2.3; one shared queue or one per process) are
// modeled by the virtual multiprocessor's QueuePolicy (src/psim), which is
// what the Figure 6-x reproductions measure.
//
// Worker threads are spawned once per ParallelMatcher lifetime (WorkerPool)
// and parked between cycles, so a matcher held by an Engine runs thousands
// of cycles without re-spawning threads or re-building queues.
//
// Termination detection: each worker owns a padded (created, executed)
// counter pair; a creation is counted *before* the task is pushed and an
// execution *after* it completes, and idle workers sweep executed totals
// before created totals. Any observed equality therefore implies
// true quiescence for every task the observer can know about, and a task it
// cannot know about yet keeps its creator (or its thief) active — so the
// last worker standing always drains the residue. See DESIGN.md §8.
//
// On this container (1 CPU) the threads interleave rather than run in
// parallel; the executor is exercised for *correctness* (its final match
// state must equal the serial executor's) and for real scheduler
// statistics. Paper speedup *curves* come from the virtual multiprocessor
// (src/psim), which schedules recorded task DAGs on P virtual processors.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/arena.h"
#include "base/rng.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "par/worker_pool.h"
#include "par/ws_deque.h"
#include "rete/network.h"

namespace psme {

/// Tunables for the scheduler's idle path and chain execution.
/// Exposed on EngineOptions (`steal`) and the demos' CLIs; the defaults are
/// what every production caller gets.
struct StealTuning {
  /// Sweep backoff ladder: after a failed whole-pool sweep a worker runs
  /// `backoff_park_sweeps` backoff rounds before parking on its pre-sweep
  /// ticket; in round i it spins `backoff_base_spins << i` pause
  /// instructions (once the doubled budget reaches `backoff_max_spins` it
  /// yields the core instead). Rounds re-sweep only when the publish epoch
  /// has moved — otherwise the deques are provably still empty — so a
  /// quiet idle episode costs exactly one failed sweep. Zero rounds means
  /// park right after the first failed sweep. Lower park thresholds trade
  /// steal latency for idle cost — on an oversubscribed host (the common
  /// case at 8-13 workers) parking early is what keeps failed sweeps off
  /// the bus.
  uint32_t backoff_base_spins = 4;
  uint32_t backoff_max_spins = 512;
  uint32_t backoff_park_sweeps = 2;

  /// Dependent-chain splitting: a worker executes up to `chain_split_depth`
  /// dependent activations inline (each node execution continues directly
  /// into its last-emitted child, skipping the pool/deque/counter round
  /// trip), then pushes the continuation back onto its deque as a fresh,
  /// stealable task. 0 = never split (unbounded inline chains);
  /// 1 = split at every link (no inline chaining — the pre-backoff
  /// scheduler's behavior). The default is CostBudget::max_depth (64) / 8:
  /// the linter's longest tolerated chain split into one stealable segment
  /// per worker of a typical 8-wide pool.
  uint32_t chain_split_depth = 8;
};

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
  uint64_t chain_inline = 0;      // continuations executed inline
  uint64_t chain_splits = 0;      // continuations split to the deque
  uint64_t pool_slabs = 0;        // activation-pool slab mallocs
  uint64_t sweep_hist[kSweepHistBuckets] = {};  // failed-sweep run lengths
  double wall_seconds = 0;
  /// Token-arena snapshot taken at the end of the cycle (counters are
  /// lifetime totals; benches difference consecutive snapshots).
  MatchStats arena;

  /// Folds another cycle's numbers into this accumulator: traffic counters
  /// and wall time add; the lifetime gauges (pool slabs, arena snapshot)
  /// take the newer cycle's value. The one merge rule for every call site
  /// (Engine::match, bench_scheduler, ...) instead of per-site field lists.
  void accumulate(const ParallelStats& st) {
    tasks += st.tasks;
    steals += st.steals;
    failed_steals += st.failed_steals;
    failed_sweeps += st.failed_sweeps;
    sweep_backoff_ns += st.sweep_backoff_ns;
    parks += st.parks;
    chain_inline += st.chain_inline;
    chain_splits += st.chain_splits;
    for (size_t i = 0; i < kSweepHistBuckets; ++i) {
      sweep_hist[i] += st.sweep_hist[i];
    }
    wall_seconds += st.wall_seconds;
    pool_slabs = st.pool_slabs;
    arena = st.arena;
  }
};

/// Slab recycler for the heap Activations the worker deques point at. Each
/// worker owns a shard: allocation is a local free-list pop (or a slab bump
/// when cold), so the steady state does one slab malloc per kSlabNodes tasks
/// at most — in practice zero once warm. A task is usually freed by a
/// *different* worker than the one that allocated it (thieves execute what
/// victims push), so release returns the node to its owner shard through a
/// lock-free MPSC Treiber stack: push-only CAS (ABA-safe — the owner takes
/// the whole list with one exchange and never CAS-pops). No locks anywhere,
/// preserving the scheduler's lock-freedom.
class ActivationPool {
 public:
  explicit ActivationPool(size_t n_workers);
  ActivationPool(const ActivationPool&) = delete;
  ActivationPool& operator=(const ActivationPool&) = delete;

  /// Owner-only (or pre-dispatch from the coordinating thread).
  Activation* alloc(size_t worker, Activation&& a);

  /// Callable from any worker; `worker` is the *caller's* index (used to
  /// shortcut the CAS when a task dies on its home shard).
  void release(size_t worker, Activation* a);

  /// Materializes shard `worker`'s first slab (and the slab vector's
  /// buffer) so the shard's first real allocation is a free-list pop, not a
  /// malloc. Owner-only or pre-dispatch, like alloc().
  void warm(size_t worker);

  [[nodiscard]] uint64_t slab_allocs() const;

 private:
  struct Node {
    Activation act;  // first member: Activation* <-> Node* cast
    Node* next = nullptr;
    uint32_t owner = 0;
  };
  static constexpr size_t kSlabNodes = 256;

  struct alignas(64) Shard {
    Node* free = nullptr;                 // owner-only
    std::atomic<Node*> returns{nullptr};  // MPSC: any worker pushes
    std::vector<std::unique_ptr<Node[]>> slabs;
    size_t fill = kSlabNodes;  // next unused node in slabs.back()
    uint64_t slab_allocs = 0;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
};

class ParallelMatcher {
 public:
  /// No agent state is registered at construction: every agent session —
  /// including agent 0 — joins via register_agent(). Sessions multiplex
  /// over the same workers and network; every task carries its agent tag
  /// (Activation::agent) and is executed against exactly that agent's
  /// MatchState, so one agent's drain cannot observe or stall another's. A
  /// cycle run before any registration must carry no seeds.
  /// `tracer`, when non-null, turns on event recording: prewarm() sizes one
  /// ring per worker (tracks 1..n; track 0 belongs to the engine thread)
  /// before any worker runs, and the scheduler loop records task spans,
  /// steal attempts/outcomes, park intervals and queue-depth samples into
  /// its own track. The tracer must outlive the matcher.
  /// `tuning` parameterizes the idle backoff and chain splitting.
  /// `profiler`, when non-null, attributes every executed task to its
  /// (node, agent) cell in the worker's shard (obs/profiler.h): prewarm()
  /// and the run_impl drain boundary grow the shards quiescently, the
  /// scheduler loop calls sample()/record() around each execute. The
  /// profiler must outlive the matcher; it may be shared with the serial
  /// executor (worker indices line up: shard 0 is the engine thread only
  /// when the matcher is idle).
  ParallelMatcher(Network& net, size_t n_workers,
                  obs::Tracer* tracer = nullptr, StealTuning tuning = {},
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
  [[nodiscard]] MatchState& agent_state(uint32_t agent) {
    return *states_[agent];
  }

  /// The §5.2 task filter for run-time production addition: activations of
  /// stateful nodes older than `min_node_id` are dropped at emit time, and
  /// (during phase A) alpha memories do not emit to their Left successors.
  /// Mirrors ExecContext's update fields; see rete/update.h for the phase
  /// contract.
  struct UpdateFilter {
    uint32_t min_node_id = 0;
    bool suppress_alpha_left = false;
  };

  /// Drains `seeds` and everything they spawn across all workers; returns
  /// when the match is quiescent. The seed vector is caller-owned scratch
  /// (elements are consumed, capacity is retained), so a persistent caller
  /// (Engine) pays no per-cycle seed-vector allocation. Seeds must be
  /// homogeneous — all additions or all deletions, not both: a delete token
  /// racing a sibling addition through the same memories is
  /// order-dependent (the join can install a fresh PI behind a delete token
  /// that already swept that line). Callers with a mixed wme batch drain
  /// the removals as their own cycle first, which yields the serial
  /// executor's final state (see Engine::match). Seeds may mix *agents*
  /// freely (each tagged task only touches its own agent's state; the
  /// homogeneity rule applies per agent and holds trivially across agents)
  /// — this is how AgentGroup batches N agents' cycles into one drain,
  /// amortizing the pool dispatch across sessions.
  ParallelStats run_cycle(std::vector<Activation>& seeds);

  /// Same, but with the update filter applied — the parallel form of
  /// run_update_serial's phases (what Figure 6-9 measures: the new
  /// production's state update enjoys the full parallelism of the match).
  ParallelStats run_update(std::vector<Activation>& seeds,
                           const UpdateFilter& filter);

  [[nodiscard]] size_t workers() const { return n_workers_; }
  [[nodiscard]] const StealTuning& tuning() const { return tuning_; }

  /// Aggregate over every cycle this matcher has run (persistent-lifetime
  /// diagnostics; per-cycle numbers come from the run_* return value).
  [[nodiscard]] uint64_t lifetime_tasks() const { return lifetime_tasks_; }
  [[nodiscard]] uint64_t lifetime_cycles() const { return lifetime_cycles_; }

 private:
  /// Per-worker scheduler state, one cache line apart so the hot counters
  /// of different workers never share a line.
  struct alignas(64) WorkerSlot {
    explicit WorkerSlot(uint64_t seed) : rng(seed) {}

    WsDeque<Activation> deque;
    // Termination counters: written by the owner, swept by idle workers.
    std::atomic<uint64_t> created{0};
    std::atomic<uint64_t> executed{0};
    // Owner-private statistics, aggregated at quiescence.
    uint64_t done = 0;
    uint64_t steals = 0;
    uint64_t failed_steals = 0;
    uint64_t failed_sweeps = 0;
    uint64_t sweep_backoff_ns = 0;
    uint64_t parks = 0;
    uint64_t chain_inline = 0;
    uint64_t chain_splits = 0;
    uint64_t sweep_hist[ParallelStats::kSweepHistBuckets] = {};
    Rng rng;
    // Persistent per-worker scratch, leased into the worker's ExecContext
    // for the duration of a cycle (see Lease in parallel_match.cpp): emit
    // bursts and execute()'s under-lock child buffers reuse their
    // high-water capacity across every cycle this matcher ever runs.
    std::vector<Activation> emit_batch;
    std::vector<Token> scratch_children;
    std::vector<std::pair<Token, bool>> scratch_emissions;
  };

  ParallelStats run_impl(std::vector<Activation>& seeds,
                         const UpdateFilter* filter);
  void steal_loop(size_t worker, const UpdateFilter* filter,
                  std::atomic<bool>& abort);
  Activation* take_task(size_t worker);
  [[nodiscard]] bool quiescent() const;
  void reset_slots();
  void prewarm();

  Network& net_;
  // Registered agent states, indexed by agent id. The worker loop re-binds
  // its ExecContext from this table per task.
  std::vector<MatchState*> states_;
  size_t n_workers_;
  StealTuning tuning_;
  obs::Tracer* tracer_;  // null = tracing off (one branch per event site)
  obs::MatchProfiler* profiler_;  // null = profiling off (same discipline)
  WorkerPool pool_;
  ParkingLot lot_;
  ActivationPool apool_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  uint64_t lifetime_tasks_ = 0;
  uint64_t lifetime_cycles_ = 0;
};

}  // namespace psme
