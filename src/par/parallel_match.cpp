#include "par/parallel_match.h"

#include <algorithm>
#include <chrono>
#include <cstddef>

#include "obs/tracer.h"

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

}  // namespace

ParallelMatcher::ParallelMatcher(Network& net, size_t n_workers,
                                 obs::Tracer* tracer,
                                 obs::MatchProfiler* profiler)
    : net_(net),
      n_workers_(n_workers == 0 ? 1 : n_workers),
      tracer_(tracer),
      profiler_(profiler),
      pool_(n_workers == 0 ? 1 : n_workers) {
  slots_.reserve(n_workers_);
  for (size_t i = 0; i < n_workers_; ++i) {
    // Deterministic per-worker seeds: victim choice is randomized but
    // reproducible run to run.
    slots_.push_back(std::make_unique<WorkerSlot>(i, 0x9e3779b9u + i));
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
  // box-slab growth to the first steady-state cycle it joins. All the
  // touches below are owner-only operations, legal here because no worker
  // thread has been dispatched yet (same contract as the seed placement in
  // run_cycle).
  constexpr size_t kScratch = 64;
  for (size_t w = 0; w < n_workers_; ++w) {
    WorkerSlot& s = *slots_[w];
    s.ctx.out.reserve(kScratch);
    s.ctx.emptied.reserve(kScratch);
    // A one-worker matcher never publishes, so it boxes nothing.
    if (n_workers_ > 1) {
      s.box_slabs.push_back(
          std::make_unique<Activation[]>(WorkerSlot::kBoxSlab));
    }
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
  st.ensure_links(net_.node_count());
  states_.push_back(&st);
  // Grown now so the next drain's ensure is a compare.
  if (profiler_ != nullptr) profiler_->ensure_agents(states_.size());
  return static_cast<uint32_t>(states_.size() - 1);
}

ParallelMatcher::~ParallelMatcher() = default;

void ParallelMatcher::reset_slots(const UpdateFilter& filter) {
  for (auto& s : slots_) {
    // A previous cycle that aborted on an exception may leave tasks behind;
    // every cycle starts from a clean, balanced state. Runs quiescent on the
    // coordinating thread, after every taker of the last cycle's boxes has
    // joined, so the boxes can be rewound.
    while (s->deque.pop() != nullptr) {
    }
    s->boxes_used = 0;
    s->ctx.out.clear();
    s->ctx.filter = filter;
    s->ctx.counters = {};
    s->created.store(0, std::memory_order_relaxed);
    s->executed.store(0, std::memory_order_relaxed);
    s->stats = {};
  }
  hungry_.store(0, std::memory_order_relaxed);
}

ParallelStats ParallelMatcher::run_cycle(std::span<const Activation> seeds,
                                         const UpdateFilter& filter) {
  return run_pass(seeds, filter, /*sweep=*/true);
}

ParallelStats ParallelMatcher::run_match(std::span<const Activation> seeds,
                                         size_t n_removes, size_t track) {
  // One unlink sweep, after both drains: a join the removals empty stays
  // linked through the additions, so a left token they bring finds it
  // linked instead of relinking it (DESIGN.md §16.2). An empty removal
  // drain stands in when there are no additions.
  const std::span<const Activation> removes = seeds.first(n_removes);
  const std::span<const Activation> adds = seeds.subspan(n_removes);
  ParallelStats st;
  if (!removes.empty() || adds.empty()) {
    obs::Span span(tracer_, track, obs::EventKind::DrainRemoves);
    st = run_pass(removes, {}, /*sweep=*/adds.empty());
  }
  if (!adds.empty()) {
    obs::Span span(tracer_, track, obs::EventKind::DrainAdds);
    st.accumulate(run_pass(adds, {}, /*sweep=*/true));
  }
  return st;
}

ParallelStats ParallelMatcher::run_pass(std::span<const Activation> seeds,
                                        const UpdateFilter& filter,
                                        bool sweep) {
  // Epoch lifecycle, pinned to the drain: every worker of this cycle enters
  // the new epoch before dispatch; the sweep runs after the pool join (the
  // ParkingLot exit cascade has completed and all workers are parked), when
  // all transient token copies of previous epochs are dead. Every
  // registered agent's arena participates — a cycle's seeds may carry any
  // mix of agent tags — and alpha state compiled since the last drain
  // (chunk additions) is materialized per agent at this quiescent boundary.
  for (MatchState* ms : states_) {
    ms->ensure_alpha(net_.alpha_mem_count());
    ms->ensure_links(net_.node_count());
    ms->arena.begin_drain();
  }
  if (profiler_ != nullptr) {
    // Quiescent boundary: grow the cells to whatever the network/agent
    // table became since the last drain, so record() never writes past a
    // cell array mid-cycle. Steady state: two integer compares.
    profiler_->ensure_nodes(net_.node_count());
    profiler_->ensure_agents(states_.empty() ? 1 : states_.size());
  }
  reset_slots(filter);

  // The filtered seeds go onto the caller's private stack (worker 0 runs on
  // the calling thread) as one counted root, last first so the first runs
  // first: the caller drains them depth-first and shares them only when a
  // helper runs dry. Workers are not running yet, so writing worker 0's
  // stack and counter from here is safe; the pool dispatch publishes both
  // before the first worker looks. Seeds pass through the same §5.2 filter
  // as emitted tasks.
  WorkerSlot& caller = *slots_[0];
  for (auto s = seeds.rbegin(); s != seeds.rend(); ++s) {
    if (net_.should_execute(*s, caller.ctx)) caller.ctx.out.push_back(*s);
  }
  if (!caller.ctx.out.empty()) {
    caller.created.store(1, std::memory_order_relaxed);
  }

  std::atomic<bool> abort{false};
  const auto t0 = std::chrono::steady_clock::now();
  // Raw-pointer dispatch over a stack job: a capturing lambda held in a
  // std::function would heap-allocate its closure every cycle.
  struct Job {
    ParallelMatcher* self;
    std::atomic<bool>* abort;
  } job{this, &abort};
  pool_.run(
      [](void* arg, size_t worker) {
        auto* j = static_cast<Job*>(arg);
        j->self->steal_loop(worker, *j->abort);
      },
      &job);

  ParallelStats st;
  st.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& s : slots_) st.accumulate(s->stats);
  // Quiescent: unlink the joins whose left memory emptied (DESIGN.md §16).
  // The lists of a pass that did not sweep, or of an aborted cycle, are
  // swept here too: the sweep reads only the state at hand.
  if (sweep) {
    for (const auto& s : slots_) {
      for (const EmptiedJoin& e : s->ctx.emptied) {
        net_.unlink_if_empty(e.join, *states_[e.agent], st.counters);
      }
      s->ctx.emptied.clear();
    }
  }
  for (MatchState* ms : states_) ms->arena.reclaim_at_quiescence();
  for (const auto& s : slots_) st.pool_slabs += s->box_slabs.size();
  lifetime_tasks_ += st.tasks;
  ++lifetime_cycles_;
  return st;
}

bool ParallelMatcher::quiescent() const {
  // Sweep order matters: executed before created. Every root execution the
  // sweep observes carries a happens-before edge back to its creation count
  // (counted before the push, or before dispatch for the seed batch), so
  // the created sum can only exceed the executed sum; work the sweep cannot
  // see — private, or not yet published — keeps the root it descends from
  // uncounted. Equality therefore means true quiescence (DESIGN.md §8.3).
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

void ParallelMatcher::publish(size_t worker, std::vector<Activation>& stack,
                              size_t n) {
  // Moves the `n` bottom private activations (those the owner would reach
  // last) to the deque: one counter bump, owner-side pushes, one wake. The
  // count precedes the pushes (termination invariant). Pushed bottom first,
  // so thieves (top, FIFO) take those and the owner's own pop (bottom, LIFO)
  // keeps its order. unpark_one, not unpark_all: waking every sleeper per
  // publish is a thundering herd at high worker counts (all wake, sweep,
  // fail, re-park); one waker per publish keeps the wake chain proportional
  // to the work supply, and the exit cascade still wakes everyone for the
  // final quiescence check.
  WorkerSlot& me = *slots_[worker];
  me.created.fetch_add(n, std::memory_order_seq_cst);
  for (size_t i = 0; i < n; ++i) me.deque.push(me.box(stack[i]));
  stack.erase(stack.begin(), stack.begin() + static_cast<std::ptrdiff_t>(n));
  lot_.unpark_one();
  if (tracer_ != nullptr) {
    // Depth sampled at the natural load-balance point: right after a
    // publish is the moment thieves decide whether this deque is worth
    // raiding.
    obs::record_instant(*tracer_, tracer_->ring(1 + worker),
                        obs::EventKind::QueueDepth, 0,
                        static_cast<uint32_t>(me.deque.size()));
  }
}

void ParallelMatcher::run_root(size_t worker, Activation* root,
                               std::atomic<bool>& abort) {
  // Runs one root — a task taken from a deque, or (root == nullptr) the seed
  // batch already on worker 0's stack — and then the private stack it grows,
  // depth first, each task's children in emission order (reversed on the
  // stack after their task; DESIGN.md §8.5). Private work touches no
  // counter, box, deque or parking lot; it leaves the stack only by
  // publish(), on demand: a peer is hungry, this deque is empty and two or
  // more are held, so the bottom half goes.
  //
  // Termination invariant: the root's `executed` bump waits until the stack
  // is empty, so while any work derived from the root is held privately an
  // observer cannot see created == executed. An exception discards the stack
  // and still counts the root, so the books balance for the abort. Token
  // safety: arena reclamation is pinned to reclaim_at_quiescence() after the
  // pool join, so tokens referenced by stacked or published work stay live.
  WorkerSlot& me = *slots_[worker];
  ExecContext& ctx = me.ctx;
  std::vector<Activation>& stack = ctx.out;
  const bool can_share = n_workers_ > 1;
  auto exec = [&](const Activation& a) {
    const size_t first_child = stack.size();
    me.observer.before(ctx.stats);
    // Re-bind the context to this task's agent: the tag names the only
    // MatchState the task may touch, and emit stamps it onto children.
    ctx.state = states_[a.agent];
    ctx.agent = a.agent;
    net_.execute(a, ctx);
    me.observer.after(a, ctx.stats);
    ++me.stats.tasks;
    std::reverse(stack.begin() + static_cast<std::ptrdiff_t>(first_child),
                 stack.end());
  };
  try {
    if (root != nullptr) exec(*root);
    while (!stack.empty()) {
      if (can_share && stack.size() >= 2 &&
          hungry_.load(std::memory_order_relaxed) != 0 && me.deque.empty()) {
        const size_t half = stack.size() / 2;
        me.stats.shares += half;
        publish(worker, stack, half);
      }
      const Activation task = stack.back();
      stack.pop_back();
      ++me.stats.chain_inline;
      exec(task);
    }
  } catch (...) {
    stack.clear();
    me.executed.fetch_add(1, std::memory_order_seq_cst);
    abort.store(true, std::memory_order_release);
    lot_.unpark_all();
    throw;
  }
  me.executed.fetch_add(1, std::memory_order_seq_cst);
}

void ParallelMatcher::steal_loop(size_t worker, std::atomic<bool>& abort) {
  WorkerSlot& me = *slots_[worker];
  obs::EventRing* ring =
      tracer_ != nullptr ? &tracer_->ring(1 + worker) : nullptr;
  // The caller's seed batch is its first root (counted by run_pass).
  if (!me.ctx.out.empty()) run_root(worker, nullptr, abort);
  bool hungry = false;  // counted in hungry_ since the last failed sweep
  uint32_t idle = 0;    // consecutive failed whole-pool sweeps
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
      if (!hungry) {
        // Ask the busy workers to share: they publish on demand only while
        // someone is hungry.
        hungry = true;
        hungry_.fetch_add(1, std::memory_order_relaxed);
      }
      // Exponential pause/yield ladder between the failed sweep and the
      // park, watching the publish epoch. A round re-sweeps only if the
      // epoch moved: deques grow only through publishes, so with the epoch
      // unchanged the previous sweep's empty verdict still holds and a
      // re-sweep is guaranteed to fail — the ladder waits without any
      // deque-top traffic. (Clock reads only run on this already-idle
      // path, never per task.)
      for (uint32_t round = 0;
           a == nullptr && round < kBackoffParkRounds; ++round) {
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
    if (hungry) {
      hungry = false;
      hungry_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (idle != 0) {
      ++me.stats.sweep_hist[sweep_bucket(idle)];
      idle = 0;
    }
    run_root(worker, a, abort);
  }
  // A failed-sweep run still open at drain exit ends here.
  if (idle != 0) ++me.stats.sweep_hist[sweep_bucket(idle)];
  me.stats.counters.accumulate(me.ctx.counters);
  // Cascade the wake so every parked peer re-checks quiescence and exits.
  lot_.unpark_all();
}

}  // namespace psme
