#include "par/parallel_match.h"

#include <chrono>

namespace psme {
namespace {

/// Histogram bucket for a run of `run` consecutive failed whole-pool
/// sweeps: 1, 2, 3-4, 5-8, 9-16, >16 (ParallelStats::kSweepHistBuckets).
inline size_t sweep_bucket(uint32_t run) {
  if (run <= 2) return run - 1;
  if (run <= 4) return 2;
  if (run <= 8) return 3;
  if (run <= 16) return 4;
  return 5;
}

inline uint64_t backoff_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// ExecContext that buffers emits locally. The §5.2 filter is applied at
/// emit time, so dropped tasks are never counted or published. The owner
/// publishes the whole batch once per node execution (counter bump +
/// pushes + a single unpark), instead of touching shared state per
/// activation.
class BatchCtx final : public ExecContext {
 public:
  BatchCtx(Network& net, const UpdateFilter& f) : net_(net) { filter = f; }

  void emit(Activation&& a) override {
    if (!net_.should_execute(a, *this)) return;
    batch.push_back(std::move(a));
  }

  std::vector<Activation> batch;

 private:
  Network& net_;
};

/// Swaps a worker's persistent scratch buffers into its cycle-local
/// BatchCtx (emit batch included) and back out on scope exit —
/// exception-safe, so an aborted cycle still returns the buffers. This is
/// what makes the per-cycle contexts allocation-free: the vectors live in
/// the WorkerSlot and keep their high-water capacity for the matcher's
/// whole lifetime.
template <typename Slot>
class ScratchLease {
 public:
  ScratchLease(BatchCtx& ctx, Slot& slot) : ctx_(ctx), slot_(slot) {
    ctx_.scratch_children.swap(slot_.scratch_children);
    ctx_.scratch_emissions.swap(slot_.scratch_emissions);
    ctx_.batch.swap(slot_.emit_batch);
    ctx_.batch.clear();  // a previously aborted cycle may have left residue
  }
  ~ScratchLease() {
    ctx_.scratch_children.swap(slot_.scratch_children);
    ctx_.scratch_emissions.swap(slot_.scratch_emissions);
    ctx_.batch.swap(slot_.emit_batch);
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

 private:
  BatchCtx& ctx_;
  Slot& slot_;
};

}  // namespace

ActivationPool::ActivationPool(size_t n_workers) {
  shards_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Activation* ActivationPool::alloc(size_t worker, Activation&& a) {
  Shard& s = *shards_[worker];
  Node* n = s.free;
  if (n != nullptr) {
    s.free = n->next;
  } else if (Node* ret =
                 s.returns.exchange(nullptr, std::memory_order_acquire);
             ret != nullptr) {
    n = ret;
    s.free = ret->next;
  } else {
    if (s.fill == kSlabNodes) {
      s.slabs.push_back(std::make_unique<Node[]>(kSlabNodes));
      s.fill = 0;
      ++s.slab_allocs;
    }
    n = &s.slabs.back()[s.fill++];
    n->owner = static_cast<uint32_t>(worker);
  }
  n->act = std::move(a);
  return &n->act;
}

void ActivationPool::release(size_t worker, Activation* a) {
  Node* n = reinterpret_cast<Node*>(a);
  Shard& home = *shards_[n->owner];
  if (n->owner == worker) {
    n->next = home.free;
    home.free = n;
    return;
  }
  Node* head = home.returns.load(std::memory_order_relaxed);
  do {
    n->next = head;
  } while (!home.returns.compare_exchange_weak(
      head, n, std::memory_order_release, std::memory_order_relaxed));
}

void ActivationPool::warm(size_t worker) {
  Activation* a = alloc(worker, Activation{});
  release(worker, a);
}

uint64_t ActivationPool::slab_allocs() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->slab_allocs;
  return total;
}

ParallelMatcher::ParallelMatcher(Network& net, size_t n_workers,
                                 obs::Tracer* tracer, StealTuning tuning,
                                 obs::MatchProfiler* profiler)
    : net_(net),
      n_workers_(n_workers == 0 ? 1 : n_workers),
      tuning_(tuning),
      tracer_(tracer),
      profiler_(profiler),
      pool_(n_workers == 0 ? 1 : n_workers),
      apool_(n_workers == 0 ? 1 : n_workers) {
  slots_.reserve(n_workers_);
  for (size_t i = 0; i < n_workers_; ++i) {
    // Deterministic per-worker seeds: victim choice is randomized but
    // reproducible run to run.
    slots_.push_back(std::make_unique<WorkerSlot>(0x9e3779b9u + i));
  }
  prewarm();
}

void ParallelMatcher::prewarm() {
  // Touch every per-worker structure from the (quiescent, single-threaded)
  // constructor so first-touch growth can never land inside a measured
  // cycle. Without this the allocation-free guarantee of DESIGN.md §10
  // would depend on which workers happened to win tasks during an
  // application's warm-up cycles: a worker that sat idle through warm-up —
  // routine on a loaded machine — would charge its scratch-vector and
  // pool-slab growth to the first steady-state cycle it joins. All the
  // touches below are owner-only operations, legal here because no worker
  // thread has been dispatched yet (same contract as the seed distribution
  // in run_cycle).
  constexpr size_t kScratch = 64;
  for (size_t w = 0; w < n_workers_; ++w) {
    WorkerSlot& s = *slots_[w];
    s.emit_batch.reserve(kScratch);
    s.scratch_children.reserve(kScratch);
    s.scratch_emissions.reserve(kScratch);
    apool_.warm(w);
    // One ring per worker (tracks 1..n; track 0 is the engine thread) and
    // one profiler shard per worker, allocated here — quiescent,
    // single-threaded — so recording inside a cycle is a pure
    // bump-and-store (DESIGN.md §11).
    s.observer = obs::TaskObserver(tracer_, 1 + w, profiler_, w);
  }
  if (profiler_ != nullptr) {
    // Cells sized before any worker runs, same contract as the rings. Node
    // and agent capacity grow again at each drain boundary (run_cycle) as the
    // network and agent table do.
    profiler_->ensure_nodes(net_.node_count());
    profiler_->ensure_agents(states_.empty() ? 1 : states_.size());
  }
}

uint32_t ParallelMatcher::register_agent(MatchState& st) {
  // Quiescent-only (caller contract): no cycle is in flight, so growing the
  // state table and the new agent's arena is single-threaded.
  st.arena.ensure_workers(n_workers_);
  st.ensure_alpha(net_.alpha_mem_count());
  states_.push_back(&st);
  // Grown now so the next drain's ensure is a compare.
  if (profiler_ != nullptr) profiler_->ensure_agents(states_.size());
  return static_cast<uint32_t>(states_.size() - 1);
}

ParallelMatcher::~ParallelMatcher() { reset_slots(); }

void ParallelMatcher::reset_slots() {
  for (auto& s : slots_) {
    // A previous cycle that aborted on an exception may leave tasks behind;
    // every cycle starts from a clean, balanced state. Runs quiescent on the
    // coordinating thread (worker 0's shard takes the strays).
    while (Activation* a = s->deque.pop()) apool_.release(0, a);
    s->created.store(0, std::memory_order_relaxed);
    s->executed.store(0, std::memory_order_relaxed);
    s->stats = {};
  }
}

ParallelStats ParallelMatcher::run_cycle(std::vector<Activation>& seeds,
                                         const UpdateFilter& filter) {
  // Epoch lifecycle, pinned to the drain: every worker of this cycle enters
  // the new epoch before dispatch; the sweep runs after the pool join (the
  // ParkingLot exit cascade has completed and all workers are parked), when
  // all transient token copies of previous epochs are dead. Every
  // registered agent's arena participates — a cycle's seeds may carry any
  // mix of agent tags — and alpha state compiled since the last drain
  // (chunk additions) is materialized per agent at this quiescent boundary.
  for (MatchState* ms : states_) {
    ms->ensure_alpha(net_.alpha_mem_count());
    ms->arena.begin_drain(n_workers_);
  }
  if (profiler_ != nullptr) {
    // Quiescent boundary: grow the cells to whatever the network/agent
    // table became since the last drain, so record() never writes past a
    // cell array mid-cycle. Steady state: two integer compares.
    profiler_->ensure_nodes(net_.node_count());
    profiler_->ensure_agents(states_.empty() ? 1 : states_.size());
  }
  reset_slots();

  // Seed round-robin across the worker deques. Workers are not running yet,
  // so the owner-only push is safe from this thread; the pool dispatch
  // publishes everything before the first worker looks. Seeds pass through
  // the same §5.2 filter as emitted tasks.
  {
    BatchCtx seed_ctx(net_, filter);
    size_t w = 0;
    for (Activation& s : seeds) {
      if (!net_.should_execute(s, seed_ctx)) continue;
      slots_[w]->created.fetch_add(1, std::memory_order_relaxed);
      // Pre-dispatch, single-threaded: allocating from shard `w` on behalf
      // of its future owner is safe here (workers are not running yet).
      slots_[w]->deque.push(apool_.alloc(w, std::move(s)));
      w = (w + 1) % n_workers_;
    }
  }

  std::atomic<bool> abort{false};
  const auto t0 = std::chrono::steady_clock::now();
  // Raw-pointer dispatch over a stack job: a capturing lambda held in a
  // std::function would heap-allocate its closure every cycle.
  struct Job {
    ParallelMatcher* self;
    const UpdateFilter* filter;
    std::atomic<bool>* abort;
  } job{this, &filter, &abort};
  pool_.run(
      [](void* arg, size_t worker) {
        auto* j = static_cast<Job*>(arg);
        j->self->steal_loop(worker, *j->filter, *j->abort);
      },
      &job);

  ParallelStats st;
  st.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& s : slots_) st.accumulate(s->stats);
  for (MatchState* ms : states_) ms->arena.reclaim_at_quiescence();
  if (!states_.empty()) st.arena = states_[0]->arena.stats();
  st.pool_slabs = apool_.slab_allocs();
  lifetime_tasks_ += st.tasks;
  ++lifetime_cycles_;
  return st;
}

bool ParallelMatcher::quiescent() const {
  // Sweep order matters: executed before created. Every execution the sweep
  // observes carries a happens-before edge back to its creation count (the
  // creation was published before the task could be popped), so equality
  // can only be observed at true quiescence for all tasks the observer can
  // know about; tasks it cannot know about keep their creator active.
  uint64_t done = 0;
  for (const auto& s : slots_) {
    done += s->executed.load(std::memory_order_seq_cst);
  }
  uint64_t made = 0;
  for (const auto& s : slots_) {
    made += s->created.load(std::memory_order_seq_cst);
  }
  return done == made;
}

Activation* ParallelMatcher::take_task(size_t worker) {
  WorkerSlot& me = *slots_[worker];
  if (Activation* a = me.deque.pop()) return a;
  if (n_workers_ == 1) return nullptr;
  // Drained cycle: the termination counters say every created task has
  // executed, so every deque is provably empty — skip the probe sweep. A
  // sweep here would be pure exit-path noise in the idle accounting (one
  // guaranteed-failed sweep per worker per cycle) and real cache traffic
  // against the peers' deque tops. The counter sweep costs the same loads
  // but touches only padded, mostly-read lines.
  if (quiescent()) return nullptr;
  // Randomized stealing: one full sweep over the victims from a random
  // starting point — every peer is probed exactly once per look, and
  // different thieves start at different offsets so they spread out. A
  // failed attempt is a couple of loads — no lock, no lock-and-look, no
  // queue-side cost to the victim.
  const size_t peers = n_workers_ - 1;
  const size_t start = me.rng.below(peers);
  for (size_t i = 0; i < peers; ++i) {
    const size_t victim = (worker + 1 + ((start + i) % peers)) % n_workers_;
    if (Activation* a = slots_[victim]->deque.steal()) {
      ++me.stats.steals;
      if (tracer_ != nullptr) {
        obs::record_instant(*tracer_, tracer_->ring(1 + worker),
                            obs::EventKind::StealOk,
                            static_cast<uint32_t>(victim));
      }
      return a;
    }
    ++me.stats.failed_steals;
  }
  // One event per *failed sweep*, not per failed probe: the sweep is the
  // unit an idle worker pays for, and per-probe instants would flood the
  // ring during the pre-park spin.
  ++me.stats.failed_sweeps;
  if (tracer_ != nullptr) {
    obs::record_instant(*tracer_, tracer_->ring(1 + worker),
                        obs::EventKind::StealFail, 0,
                        static_cast<uint32_t>(peers));
  }
  return nullptr;
}

void ParallelMatcher::steal_loop(size_t worker, const UpdateFilter& filter,
                                 std::atomic<bool>& abort) {
  WorkerSlot& me = *slots_[worker];
  obs::EventRing* ring =
      tracer_ != nullptr ? &tracer_->ring(1 + worker) : nullptr;
  BatchCtx ctx(net_, filter);
  ctx.worker = worker;  // child tokens spill into this worker's arena pool
  ScratchLease lease(ctx, me);
  const uint32_t split_depth = tuning_.chain_split_depth;
  uint32_t idle = 0;  // consecutive failed whole-pool sweeps
  for (;;) {
    // Pre-sweep ticket: every publish bumps the ParkingLot epoch, so a
    // publish after this read invalidates any park taken on it, and a
    // publish before it is visible to the sweep below (both seq_cst). The
    // sweep itself is therefore the parking protocol's "final look" —
    // no separate post-ticket re-sweep is needed.
    uint32_t ticket = lot_.ticket();
    Activation* a = take_task(worker);
    if (a == nullptr) {
      if (abort.load(std::memory_order_acquire) || quiescent()) break;
      ++idle;
      // Exponential pause/yield ladder between the failed sweep and the
      // park, watching the publish epoch. A round re-sweeps only if the
      // epoch moved: deques grow only through publishes, so with the epoch
      // unchanged the previous sweep's empty verdict still holds and a
      // re-sweep is guaranteed to fail — the ladder waits without any
      // deque-top traffic. (Clock reads only run on this already-idle
      // path, never per task.)
      for (uint32_t round = 0;
           a == nullptr && round < tuning_.backoff_park_sweeps; ++round) {
        const uint64_t b0 = backoff_now_ns();
        sweep_backoff(round);
        me.stats.sweep_backoff_ns += backoff_now_ns() - b0;
        const uint32_t moved = lot_.ticket();
        if (moved == ticket) continue;  // nothing published: provably empty
        ticket = moved;
        a = take_task(worker);
        if (a == nullptr) ++idle;
      }
      if (a == nullptr) {
        // Quiescence never bumps the epoch (only the exiting worker's
        // unpark_all does), so re-check before sleeping on the ticket.
        if (abort.load(std::memory_order_acquire) || quiescent()) break;
        ++me.stats.parks;
        ++me.stats.sweep_hist[sweep_bucket(idle)];  // the run ends at the park
        if (ring != nullptr) {
          // The park interval is the span the idle-time accounting sums.
          const uint64_t p0 = tracer_->now_ns();
          lot_.park(ticket);
          obs::TraceEvent e;
          e.ts_ns = p0;
          e.dur_ns = tracer_->now_ns() - p0;
          e.kind = obs::EventKind::Park;
          ring->push(e);
        } else {
          lot_.park(ticket);
        }
        idle = 0;
        continue;
      }
    }
    if (idle != 0) {
      ++me.stats.sweep_hist[sweep_bucket(idle)];
      idle = 0;
    }
    // Execute the task and, below the split depth, its dependent chain
    // inline: each node execution continues directly into its last-emitted
    // child (the one the deque's LIFO pop would run next anyway) while the
    // siblings are published as stealable tasks. Inline links skip the
    // pool-alloc/push/pop and the two seq_cst counter bumps that made long
    // chains pay scheduler overhead per link; the depth-k split pushes the
    // continuation back onto the deque so a chain's suffix stays stealable
    // and no single chain can pin a cycle's tail to one worker
    // (StealTuning::chain_split_depth; 0 = never split).
    //
    // Termination invariant: the popped task's `executed` bump is deferred
    // until the whole inline chain (and every sibling publish) completes,
    // so an observer can never see created == executed while work derived
    // from this task is still unpublished. Token safety: arena reclamation
    // is pinned to reclaim_at_quiescence() after the pool join, so tokens
    // referenced by inline or split continuations stay live either way.
    Activation cont;         // stack slot for inline continuations
    bool is_inline = false;  // current link lives in `cont`, not the pool
    uint32_t depth = 1;      // links executed in this chain so far
    for (;;) {
      Activation* cur = is_inline ? &cont : a;
      me.observer.before(ctx.stats);
      // Re-bind the context to this task's agent: the tag names the only
      // MatchState the task may touch, and emit stamps it onto children.
      ctx.state = states_[cur->agent];
      ctx.agent = cur->agent;
      try {
        net_.execute(*cur, ctx);
      } catch (...) {
        // The pooled head was already released once the chain went inline.
        if (!is_inline) apool_.release(worker, a);
        // Count the popped task as executed so the cycle's books still
        // balance, then fail the whole cycle.
        me.executed.fetch_add(1, std::memory_order_seq_cst);
        abort.store(true, std::memory_order_release);
        lot_.unpark_all();
        throw;
      }
      me.observer.after(*cur, ctx.stats);
      if (!is_inline) apool_.release(worker, a);
      ++me.stats.tasks;
      bool have_cont = false;
      if (!ctx.batch.empty()) {
        if (split_depth == 0 || depth < split_depth) {
          cont = std::move(ctx.batch.back());
          ctx.batch.pop_back();
          have_cont = true;
          ++me.stats.chain_inline;
        } else {
          ++me.stats.chain_splits;  // cap reached: continuation to the deque
        }
      }
      if (!ctx.batch.empty()) {
        // Publish the emit burst once: one counter bump, owner-side pushes,
        // one wake. The count precedes the pushes (termination invariant).
        // unpark_one, not unpark_all: waking every sleeper per publish is a
        // thundering herd at high worker counts (all wake, sweep, fail,
        // re-park); one waker per publish keeps the wake chain proportional
        // to the work supply, and the exit cascade below still wakes
        // everyone for the final quiescence check.
        me.created.fetch_add(ctx.batch.size(), std::memory_order_seq_cst);
        for (Activation& child : ctx.batch) {
          me.deque.push(apool_.alloc(worker, std::move(child)));
        }
        ctx.batch.clear();
        lot_.unpark_one();
        if (ring != nullptr) {
          // Depth sampled at the natural load-balance point: right after an
          // emit burst is the moment thieves decide whether this deque is
          // worth raiding.
          obs::record_instant(*tracer_, *ring, obs::EventKind::QueueDepth, 0,
                              static_cast<uint32_t>(me.deque.size()));
        }
      }
      if (!have_cont) break;
      is_inline = true;
      ++depth;
    }
    me.executed.fetch_add(1, std::memory_order_seq_cst);
  }
  // A failed-sweep run still open at drain exit ends here.
  if (idle != 0) ++me.stats.sweep_hist[sweep_bucket(idle)];
  // Cascade the wake so every parked peer re-checks quiescence and exits.
  lot_.unpark_all();
}

}  // namespace psme
