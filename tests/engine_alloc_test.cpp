// Allocation-free engine cycle (DESIGN.md §10): after warm-up, the full
// match → select → fire → apply loop performs ZERO heap allocations, for
// both match executors. The workload is a ping-pong pair driven through the
// network-retraction regime (fire in place, let the match retract the fired
// instantiation), so every storage structure in the cycle is exercised:
//
//   make-it fires  -> adds (thing ^v 1)   [negation retracts make-it's PI,
//                                          join inserts del-it's PI]
//   del-it fires   -> removes the thing   [join retracts del-it's PI,
//                                          negation re-inserts make-it's PI]
//
// Each iteration recycles: a WorkingMemory rec, alpha-memory chunk entries,
// hash-line right entries, conflict-set slab nodes, the fire delta's add
// slots, the seed/queue scratch, and (parallel executor) the per-worker
// batches. Timetags grow monotonically, so hash keys shift every cycle —
// placement changes must not trigger growth once high-water capacity exists.
#include <gtest/gtest.h>

#include <string>

#include "alloc_probe.h"
#include "engine/engine.h"
#include "par/parallel_match.h"

namespace psme {
namespace {

using test::heap_allocs;

constexpr const char* kPingPong =
    "(p make-it (ctl ^phase go) -(thing ^v 1) --> (make thing ^v 1))\n"
    "(p del-it (ctl ^phase go) (thing ^v 1) --> (remove 2))";

/// One engine cycle: fire the single unfired instantiation (in place; the
/// next match's retraction removes it) and drain the match.
void cycle(Engine& e) {
  const Instantiation* inst = e.cs().select_lex();
  ASSERT_NE(inst, nullptr) << "ping-pong must never go quiescent";
  e.fire(inst, /*remove_after_fire=*/false, /*dedup_adds=*/false);
  e.match();
}

void expect_allocation_free_cycles(size_t workers, bool tracing = false,
                                   StealTuning tuning = {},
                                   bool profiling = false) {
  EngineOptions opts;
  opts.record_traces = false;  // trace recording allocates by design
  opts.match_workers = workers;
  opts.steal = tuning;
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
  e.load(kPingPong);
  e.add_wme_text("(ctl ^phase go)");
  e.match();

  // Warm-up: reach high-water capacity in every pool, ring, and scratch
  // buffer (and spin up the worker pool for the parallel executor).
  for (int i = 0; i < 32; ++i) cycle(e);

  const uint64_t before = heap_allocs();
  for (int i = 0; i < 1000; ++i) cycle(e);
  EXPECT_EQ(heap_allocs() - before, 0u)
      << "steady-state engine cycles must not touch the heap";

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

TEST(EngineAlloc, SerialCycleIsAllocationFree) {
  expect_allocation_free_cycles(0);
}

TEST(EngineAlloc, StealCycleIsAllocationFree) {
  expect_allocation_free_cycles(4);
}

// The chain-splitting corners must hold the guarantee too: split-every-link
// (every continuation round-trips through the activation pool and deque, with
// the backoff ladder off so the park path runs every cycle) and never-split
// (continuations live entirely in a stack slot — no pool traffic at all).
TEST(EngineAlloc, StealSplitEveryLinkCycleIsAllocationFree) {
  StealTuning t;
  t.chain_split_depth = 1;
  t.backoff_park_sweeps = 0;
  expect_allocation_free_cycles(4, false, t);
}

TEST(EngineAlloc, StealNeverSplitCycleIsAllocationFree) {
  StealTuning t;
  t.chain_split_depth = 0;
  expect_allocation_free_cycles(4, false, t);
}

// Both executors with event tracing on: recording a span is a clock read
// plus a bump-and-store into a preallocated ring, so the §10 guarantee must
// hold with the obs layer enabled.
TEST(EngineAlloc, SerialCycleIsAllocationFreeWithTracing) {
  expect_allocation_free_cycles(0, true);
}

TEST(EngineAlloc, StealCycleIsAllocationFreeWithTracing) {
  expect_allocation_free_cycles(4, true);
}

// Both executors with the match profiler on: the hot path is a shard-local
// tick, at most two clock reads, and writes into preallocated cells — §10
// must hold with profiling enabled.
TEST(EngineAlloc, SerialCycleIsAllocationFreeWithProfiling) {
  expect_allocation_free_cycles(0, false, {}, /*profiling=*/true);
}

TEST(EngineAlloc, StealCycleIsAllocationFreeWithProfiling) {
  expect_allocation_free_cycles(4, false, {}, /*profiling=*/true);
}

}  // namespace
}  // namespace psme
