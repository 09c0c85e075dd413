// Allocation-free engine cycle (DESIGN.md §10): after warm-up, the full
// match → select → fire → apply loop performs ZERO heap allocations, on the
// matcher every unrecorded engine drains on: at one worker (the default
// engine, on the calling thread) and wider. The workload is a ping-pong
// pair driven through the network-retraction regime (fire in place, let
// the match retract the fired instantiation), so every storage structure
// in the cycle is exercised:
//
//   make-it fires  -> adds (thing ^v 1)   [negation retracts make-it's PI,
//                                          join inserts del-it's PI]
//   del-it fires   -> removes the thing   [join retracts del-it's PI,
//                                          negation re-inserts make-it's PI]
//
// Each iteration recycles: a WorkingMemory rec, alpha-memory chunk entries,
// hash-line right entries, conflict-set slab nodes, the fire delta's add
// slots, the seed scratch, the workers' private stacks and (wider
// matchers) their task boxes. Timetags grow monotonically, so hash keys
// shift every cycle — placement changes must not trigger growth once
// high-water capacity exists.
// A relinking variant adds a join whose left memory the thing fills and
// empties, so every cycle also relinks it or unlinks it (DESIGN.md §16).
// A Soar case checks the kernel's per-decision GC and the conflict set's
// unfired harvest the same way.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc_probe.h"
#include "engine/engine.h"
#include "par/parallel_match.h"
#include "soar/kernel.h"
#include "tasks/registry.h"
#include "test_util.h"

namespace psme {

/// Kernel internals, called on their own (friend of SoarKernel).
struct SoarAccess {
  static void gc_unreachable(SoarKernel& k) { k.gc_unreachable(); }
  /// Decide's scan of every slot of every goal; returns the candidates.
  static size_t scan_slots(SoarKernel& k) {
    size_t n = 0;
    for (const SoarKernel::GoalEntry& g : k.stack_) {
      for (const Symbol role : {k.sym_ps_, k.sym_state_, k.sym_op_}) {
        n += k.slot_candidates(g, role).size();
      }
    }
    return n;
  }
  /// Evaluates `inst`'s RHS into the kernel's fire delta, as a fire does.
  static void evaluate(SoarKernel& k, const Instantiation* inst) {
    k.engine().evaluate(inst, k.fire_delta_);
  }
};

namespace {

using test::heap_allocs;

constexpr const char* kPingPong =
    "(p make-it (ctl ^phase go) -(thing ^v 1) --> (make thing ^v 1))\n"
    "(p del-it (ctl ^phase go) (thing ^v 1) --> (remove 2))";

/// The ping-pong, followed by two productions that never match: the
/// `(never ^v 0)` wme the test adds keeps their joins linked, and their
/// join tests never pass. Their alpha memory comes after the ping-pong's in
/// the class's successor list, and a worker runs children in emission
/// order, so each conflict-set change happens while the caller still holds
/// that alpha memory's activation and the ping-pong's other one: two
/// activations, which a hungry helper can be given.
constexpr const char* kWidePingPong =
    "(p make-it (ctl ^phase go) -(thing ^v 1) --> (make thing ^v 1))\n"
    "(p del-it (ctl ^phase go) (thing ^v 1) --> (remove 2))\n"
    "(p idle-v (never ^v <x>) (thing ^v <x>) --> (halt))\n"
    "(p idle-w (never ^v <x>) (thing ^w <x>) --> (halt))";

/// Never matches (a thing's v is never `go`), but each thing the ping-pong
/// adds is the first left token of its join, which relinks it, and each
/// removal empties it, which unlinks it at the end of the match.
constexpr const char* kRelinker =
    "(p relinker (thing ^v <x>) (ctl ^phase <x>) --> (halt))";

/// Does evaluating `v` mint a symbol ((genatom), directly or in a compute)?
bool mints_symbol(const RhsValue& v) {
  switch (v.kind) {
    case RhsValue::Kind::Gensym: return true;
    case RhsValue::Kind::Compute:
      return mints_symbol(*v.arith.lhs) || mints_symbol(*v.arith.rhs);
    default: return false;
  }
}

bool mints_symbol(const Production& p) {
  for (const Action& a : p.actions) {
    for (const RhsAssignment& s : a.sets) {
      if (mints_symbol(s.value)) return true;
    }
    for (const RhsValue& v : a.write_args) {
      if (mints_symbol(v)) return true;
    }
    if (a.kind == Action::Kind::Bind && mints_symbol(a.bind_value)) return true;
  }
  return false;
}

/// One engine cycle: fire the single unfired instantiation (in place; the
/// next match's retraction removes it) and drain the match.
void cycle(Engine& e) {
  const Instantiation* inst = e.cs().select_lex();
  ASSERT_NE(inst, nullptr) << "ping-pong must never go quiescent";
  e.fire(inst, /*remove_after_fire=*/false, /*dedup_adds=*/false);
  e.match();
}

/// `shares`, when given, receives the activations the measured cycles
/// shared with hungry peers; the engine then runs kWidePingPong and yields
/// after every conflict-set change (test::YieldingSink), so helpers turn
/// hungry while the caller still holds work, whatever the host's load.
void expect_allocation_free_cycles(size_t workers, bool tracing = false,
                                   bool profiling = false,
                                   uint64_t* shares = nullptr,
                                   bool relinking = false) {
  EngineOptions opts;
  opts.record_traces = false;  // trace recording allocates by design
  opts.match_workers = workers;
  // Event tracing, by contrast, must NOT allocate in steady state: rings
  // are preallocated (small here, so overflow's drop-and-count path is
  // exercised too) and events are fixed-size PODs.
  opts.trace.enabled = tracing;
  opts.trace.ring_events = 1u << 10;
  // Profiling shards grow only at quiescent drain boundaries; once the
  // network stops growing, sample()/record() touch preallocated cells only.
  opts.profile = profiling;
  opts.profile_sample_shift = 2;  // sampling tick + timing both exercised
  Engine e(opts);
  test::YieldingSink yielding(*e.state().sink);
  if (shares != nullptr) e.state().sink = &yielding;
  e.load(shares != nullptr ? kWidePingPong : kPingPong);
  if (relinking) e.load(kRelinker);
  e.add_wme_text("(ctl ^phase go)");
  e.add_wme_text("(never ^v 0)");
  e.match();

  // Warm-up: reach high-water capacity in every pool, ring, and scratch
  // buffer (and spin up the worker pool for the parallel executor).
  for (int i = 0; i < 32; ++i) cycle(e);

  uint64_t shared = 0;
  const MatchCounters links_before = e.match_counters();
  const uint64_t before = heap_allocs();
  for (int i = 0; i < 1000; ++i) {
    cycle(e);
    shared += e.last_parallel_stats().shares;
  }
  EXPECT_EQ(heap_allocs() - before, 0u)
      << "steady-state engine cycles must not touch the heap";
  if (shares != nullptr) *shares = shared;
  if (relinking) {
    // 1000 cycles: the thing was added in 500 and removed in the other 500.
    const MatchCounters links = e.match_counters();
    EXPECT_EQ(links.relinks - links_before.relinks, 500u);
    EXPECT_EQ(links.unlinks - links_before.unlinks, 500u);
  }

  // The regime stayed balanced: exactly one live instantiation remains.
  EXPECT_EQ(e.cs().size(), 1u);

  if (tracing) {
    // The tracer really ran: the small rings overflowed (drop-and-count,
    // still allocation-free) and events were recorded on every track that
    // executed work.
    ASSERT_NE(e.tracer(), nullptr);
    EXPECT_GT(e.tracer()->total_events(), 0u);
    EXPECT_GT(e.tracer()->total_dropped(), 0u)
        << "1032 cycles into 1024-event rings must overflow";
  }
  if (profiling) {
    // The profiler really ran: activations were counted, and a subset of
    // them was timed (shift 2 = 1 in 4 per worker tick).
    ASSERT_NE(e.profiler(), nullptr);
    const obs::ProfileSnapshot s = e.profiler()->snapshot();
    EXPECT_GT(s.total_activations, 0u);
    EXPECT_GT(s.total_sampled, 0u);
    EXPECT_LE(s.total_sampled, s.total_activations);
  }
}

// The default engine: a one-worker matcher on the calling thread.
TEST(EngineAlloc, OneWorkerCycleIsAllocationFree) {
  expect_allocation_free_cycles(1);
}

TEST(EngineAlloc, StealCycleIsAllocationFree) {
  expect_allocation_free_cycles(4);
}

// Other widths must hold the guarantee too. At 8 workers the measured
// cycles share work with hungry peers, so the publish path (task boxes,
// deque pushes, steals) runs inside the measured window.
TEST(EngineAlloc, StealCycleIsAllocationFreeAtTwoWorkers) {
  expect_allocation_free_cycles(2);
}

// Right unlinking inside the measured window: a relink inserts a right
// entry from recycled chunks, the sweep erases it, and the per-worker lists
// of emptied joins keep their capacity.
TEST(EngineAlloc, OneWorkerCycleIsAllocationFreeWhileRelinking) {
  expect_allocation_free_cycles(1, false, false, nullptr, /*relinking=*/true);
}

TEST(EngineAlloc, StealCycleIsAllocationFreeWhileRelinking) {
  expect_allocation_free_cycles(4, false, false, nullptr, /*relinking=*/true);
}

TEST(EngineAlloc, StealCycleIsAllocationFreeWhileSharing) {
  uint64_t shares = 0;
  expect_allocation_free_cycles(8, false, false, &shares);
  EXPECT_GT(shares, 0u) << "the 8-worker cycles never published";
}

// Event tracing on, at one worker and at four: recording a span is a clock
// read plus a bump-and-store into a preallocated ring, so the §10 guarantee
// must hold with the obs layer enabled.
TEST(EngineAlloc, OneWorkerCycleIsAllocationFreeWithTracing) {
  expect_allocation_free_cycles(1, true);
}

TEST(EngineAlloc, StealCycleIsAllocationFreeWithTracing) {
  expect_allocation_free_cycles(4, true);
}

// The match profiler on, at one worker and at four: the hot path is a
// shard-local tick, at most two clock reads, and writes into preallocated
// cells — §10 must hold with profiling enabled.
TEST(EngineAlloc, OneWorkerCycleIsAllocationFreeWithProfiling) {
  expect_allocation_free_cycles(1, false, /*profiling=*/true);
}

TEST(EngineAlloc, StealCycleIsAllocationFreeWithProfiling) {
  expect_allocation_free_cycles(4, false, /*profiling=*/true);
}

// The kernel's GC marks reachability in epoch-stamped arrays and walks WM
// into kept scratch, the harvest sorts keys in kept scratch, Decide's slot
// scan fills kept preference lists, and a fire evaluates into the kernel's
// kept delta: after warm-up decisions none of them allocates. At every
// decision of a learning eight-puzzle run the listener re-runs the
// decision's GC (collecting nothing more) and Decide's scan of every slot,
// and, after the next match, harvests and evaluates each unfired
// instantiation whose RHS mints no symbol (a (genatom) grows the symbol
// table) twice; the second of each is measured.
TEST(EngineAlloc, SoarGcAndHarvestAreAllocationFree) {
  const Task task = make_eight_puzzle();
  SoarKernel k(SoarOptions{});
  k.load_productions(task.productions);
  task.init(k);
  std::vector<const Instantiation*> harvest;
  uint64_t decisions = 0, measured = 0, gc_allocs = 0, harvest_allocs = 0,
           slot_allocs = 0, eval_allocs = 0, evaluations = 0, candidates = 0;
  size_t most_unfired = 0;
  k.set_decision_listener([&](SoarKernel& kk) {
    if (++decisions <= 5) return;  // warm-up
    ++measured;
    SoarAccess::gc_unreachable(kk);
    uint64_t before = heap_allocs();
    SoarAccess::gc_unreachable(kk);
    gc_allocs += heap_allocs() - before;
    SoarAccess::scan_slots(kk);
    before = heap_allocs();
    candidates += SoarAccess::scan_slots(kk);
    slot_allocs += heap_allocs() - before;
    kk.engine().match();  // the next elaboration cycle's match, run early
    kk.engine().cs().unfired_into(harvest);
    before = heap_allocs();
    kk.engine().cs().unfired_into(harvest);
    harvest_allocs += heap_allocs() - before;
    most_unfired = std::max(most_unfired, harvest.size());
    for (const Instantiation* inst : harvest) {
      if (mints_symbol(*inst->pnode->prod)) continue;
      SoarAccess::evaluate(kk, inst);
      before = heap_allocs();
      SoarAccess::evaluate(kk, inst);
      eval_allocs += heap_allocs() - before;
      ++evaluations;
    }
  });
  const SoarRunStats st = k.run();
  EXPECT_TRUE(st.goal_achieved);
  EXPECT_GT(measured, 20u);
  EXPECT_GT(most_unfired, 1u) << "the harvests sorted nothing";
  EXPECT_GT(candidates, 0u) << "the slot scans found no candidate";
  EXPECT_GT(evaluations, 100u);
  EXPECT_EQ(gc_allocs, 0u);
  EXPECT_EQ(harvest_allocs, 0u);
  EXPECT_EQ(slot_allocs, 0u);
  EXPECT_EQ(eval_allocs, 0u);
}

}  // namespace
}  // namespace psme
