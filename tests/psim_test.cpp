// Virtual multiprocessor: determinism, monotonicity, dependency-chain
// limits, queue-policy effects, and the report helpers.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "psim/report.h"
#include "psim/sim.h"

namespace psme {
namespace {

/// A synthetic trace: `width` independent chains of `depth` dependent tasks,
/// all with equal per-task work.
CycleTrace synthetic_trace(uint32_t width, uint32_t depth) {
  CycleTrace t;
  for (uint32_t w = 0; w < width; ++w) {
    uint32_t parent = UINT32_MAX;
    for (uint32_t d = 0; d < depth; ++d) {
      TaskRecord r;
      r.parent = parent;
      r.node = w * depth + d;
      r.type = NodeType::Join;
      r.stats.probes = 2;
      r.stats.tests = 2;
      r.stats.inserts = 1;
      r.stats.emits = d + 1 < depth ? 1 : 0;
      parent = static_cast<uint32_t>(t.tasks.size());
      t.tasks.push_back(r);
    }
  }
  return t;
}

SimOptions opts_with(uint32_t procs, QueuePolicy pol = QueuePolicy::Multi) {
  SimOptions o;
  o.processors = procs;
  o.policy = pol;
  return o;
}

TEST(Psim, DeterministicAcrossRuns) {
  const CycleTrace t = synthetic_trace(8, 5);
  const auto a = simulate_cycle(t, opts_with(4));
  const auto b = simulate_cycle(t, opts_with(4));
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.spins, b.spins);
  EXPECT_EQ(a.failed_pops, b.failed_pops);
}

TEST(Psim, AllTasksExecute) {
  const CycleTrace t = synthetic_trace(6, 4);
  const auto r = simulate_cycle(t, opts_with(3));
  EXPECT_EQ(r.tasks, 24u);
  EXPECT_EQ(r.pops, 24u);
}

TEST(Psim, MoreProcessorsNeverSlowMultiQueue) {
  const CycleTrace t = synthetic_trace(16, 4);
  const auto p1 = simulate_cycle(t, opts_with(1));
  const auto p4 = simulate_cycle(t, opts_with(4));
  const auto p8 = simulate_cycle(t, opts_with(8));
  EXPECT_GT(p1.makespan_us, p4.makespan_us);
  EXPECT_GE(p4.makespan_us, p8.makespan_us * 0.95);
}

TEST(Psim, SpeedupBoundedByProcessorsAndWidth) {
  const CycleTrace t = synthetic_trace(4, 6);
  const auto r = simulate_cycle(t, opts_with(13));
  // Only 4 independent chains exist: speedup can't exceed ~4.
  EXPECT_LE(r.speedup(), 4.5);
  EXPECT_GT(r.speedup(), 1.5);
}

TEST(Psim, LongChainBoundsMakespan) {
  // One chain of 30 dependent tasks vs 30 independent tasks.
  const CycleTrace chain = synthetic_trace(1, 30);
  const CycleTrace flat = synthetic_trace(30, 1);
  const auto rc = simulate_cycle(chain, opts_with(8));
  const auto rf = simulate_cycle(flat, opts_with(8));
  EXPECT_GT(rf.speedup(), 3.0);
  EXPECT_LT(rc.speedup(), 1.3);  // serialized by dependencies
}

TEST(Psim, SingleQueueContendsMoreThanMulti) {
  const CycleTrace t = synthetic_trace(64, 3);
  const auto single = simulate_cycle(t, opts_with(12, QueuePolicy::Single));
  const auto multi = simulate_cycle(t, opts_with(12, QueuePolicy::Multi));
  EXPECT_GT(single.spins_per_task(), multi.spins_per_task());
  EXPECT_GT(multi.speedup(), single.speedup());
}

TEST(Psim, SingleQueueContentionRisesWithProcessors) {
  const CycleTrace t = synthetic_trace(64, 3);
  const auto p3 = simulate_cycle(t, opts_with(3, QueuePolicy::Single));
  const auto p13 = simulate_cycle(t, opts_with(13, QueuePolicy::Single));
  EXPECT_GT(p13.spins_per_task(), p3.spins_per_task());
}

TEST(Psim, EmptyCyclePaysOverheadOnly) {
  const CycleTrace t;
  SimOptions o = opts_with(4);
  const auto r = simulate_cycle(t, o);
  EXPECT_EQ(r.tasks, 0u);
  EXPECT_DOUBLE_EQ(r.makespan_us, o.overhead_at(4));
}

TEST(Psim, PerProcessOverheadPenalizesSmallCycles) {
  // A tiny dependent chain: more processors cannot help, and the extra
  // per-process synchronization makes P=11 *slower* than P=1 (the paper's
  // sub-1 speedups on small cycles).
  const CycleTrace t = synthetic_trace(1, 4);
  const auto r = simulate_cycle(t, opts_with(11));
  EXPECT_LT(r.speedup(), 1.0);
}

TEST(Psim, TimelineTracksTasksInSystem) {
  const CycleTrace t = synthetic_trace(5, 3);
  const auto r = simulate_cycle(t, opts_with(2), /*record_timeline=*/true);
  ASSERT_FALSE(r.timeline.empty());
  // Timeline starts with the seeded tasks and ends at zero.
  EXPECT_EQ(r.timeline.back().second, 0u);
  uint32_t peak = 0;
  for (const auto& [time, level] : r.timeline) peak = std::max(peak, level);
  EXPECT_GE(peak, 5u);  // all five seeds in the system at time 0
}

TEST(Psim, RunAggregatesCycles) {
  std::vector<CycleTrace> cycles = {synthetic_trace(4, 2),
                                    synthetic_trace(8, 3)};
  const auto run = simulate_run(cycles, opts_with(4), /*keep_cycles=*/true);
  EXPECT_EQ(run.cycles.size(), 2u);
  EXPECT_EQ(run.tasks, 4u * 2 + 8u * 3);
  EXPECT_DOUBLE_EQ(run.parallel_us, run.cycles[0].makespan_us +
                                        run.cycles[1].makespan_us);
}

TEST(CostModel, CalibrationRange) {
  CostModel cm;
  TaskRecord cheap;
  cheap.type = NodeType::Const;
  cheap.stats.tests = 1;
  TaskRecord expensive;
  expensive.type = NodeType::Join;
  expensive.stats.probes = 8;
  expensive.stats.tests = 10;
  expensive.stats.inserts = 1;
  expensive.stats.emits = 3;
  EXPECT_LT(cm.task_cost(cheap), 250.0);
  EXPECT_GT(cm.task_cost(expensive), 500.0);
}

TEST(Report, CriticalPathOfChainIsWholeChain) {
  const CycleTrace chain = synthetic_trace(1, 10);
  const CycleTrace flat = synthetic_trace(10, 1);
  CostModel cm;
  EXPECT_EQ(critical_path(chain, cm).length, 10u);
  EXPECT_EQ(critical_path(flat, cm).length, 1u);
  EXPECT_GT(critical_path(chain, cm).cost_us,
            critical_path(flat, cm).cost_us * 5);
}

TEST(Report, TasksPerCycleHistogram) {
  std::vector<CycleTrace> cycles = {synthetic_trace(10, 1),  // 10 tasks
                                    synthetic_trace(10, 1),
                                    synthetic_trace(30, 2)};  // 60 tasks
  const auto h = tasks_per_cycle_histogram(cycles, 25, 100);
  ASSERT_GE(h.size(), 3u);
  EXPECT_NEAR(h[0], 66.67, 0.1);  // two cycles in [0,25)
  EXPECT_NEAR(h[2], 33.34, 0.1);  // one cycle in [50,75)
}

/// Line accesses are derived from a cycle's own tasks: the §5.2 update a
/// live-WM load() runs touches lines, but none of it lands in the next
/// cycle's distribution.
TEST(Report, EmptyCycleAfterLiveLoadHasNoLineAccesses) {
  EngineOptions opts;
  opts.record_traces = true;
  Engine e(opts);
  e.load("(p p1 (a ^v <x>) --> (halt))");
  for (int i = 0; i < 4; ++i) {
    e.add_wme_text("(a ^v " + std::to_string(i) + ")");
    e.add_wme_text("(b ^v " + std::to_string(i) + ")");
  }
  e.match();
  e.load("(p p2 (a ^v <x>) (b ^v <x>) --> (halt))");
  const CycleTrace empty = e.match();
  EXPECT_EQ(empty.task_count(), 0u);
  for (const double pct : left_access_distribution({empty})) {
    EXPECT_EQ(pct, 0.0);
  }
}

TEST(Report, LeftAccessDistributionSumsTo100) {
  // Per-line (left, right) accesses in one cycle: line 0 (3, 0), line 1
  // (1, 2), line 2 (0, 5) — one task per access, plus a lineless task.
  CycleTrace t;
  auto access = [&t](uint32_t line, Side side, int n) {
    for (int i = 0; i < n; ++i) {
      TaskRecord r;
      r.type = NodeType::Join;
      r.stats.touched_line = true;
      r.stats.line = line;
      r.stats.line_side = side;
      t.tasks.push_back(r);
    }
  };
  access(0, Side::Left, 3);
  access(1, Side::Left, 1);
  access(1, Side::Right, 2);
  access(2, Side::Right, 5);
  t.tasks.push_back(TaskRecord{});
  const auto pct = left_access_distribution({t});
  double sum = 0;
  for (const double p : pct) sum += p;
  EXPECT_NEAR(sum, 100.0, 1e-9);
  EXPECT_NEAR(pct[1], 25.0, 1e-9);  // 1 of 4 left tokens in a 1-access bucket
  EXPECT_NEAR(pct[3], 75.0, 1e-9);
}

}  // namespace
}  // namespace psme
