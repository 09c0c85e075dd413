// End-to-end determinism: identical runs produce identical statistics,
// traces, chunks and simulation results — the property every benchmark
// number in EXPERIMENTS.md relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>

#include "psim/sim.h"
#include "tasks/registry.h"
#include "test_util.h"

namespace psme {
namespace {

using test::recorded;

std::string stats_signature(const SoarRunStats& s) {
  std::ostringstream os;
  os << s.decisions << '/' << s.elab_cycles << '/' << s.impasses << '/'
     << s.chunks_built << '/' << s.goal_achieved;
  for (const auto& t : s.traces) os << ':' << t.task_count();
  for (const auto& c : s.chunk_texts) os << '#' << c.size();
  return os.str();
}

class TaskDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(TaskDeterminism, RunsAreBitIdentical) {
  const Task task = make_task(GetParam());
  const auto a = run_task(task, /*learning=*/true, nullptr, recorded());
  const auto b = run_task(task, /*learning=*/true, nullptr, recorded());
  EXPECT_EQ(stats_signature(a.stats), stats_signature(b.stats));
  ASSERT_EQ(a.stats.chunk_texts.size(), b.stats.chunk_texts.size());
  for (size_t i = 0; i < a.stats.chunk_texts.size(); ++i) {
    EXPECT_EQ(a.stats.chunk_texts[i], b.stats.chunk_texts[i]);
  }
}

TEST_P(TaskDeterminism, TraceContentsIdentical) {
  const Task task = make_task(GetParam());
  const auto a = run_task(task, false, nullptr, recorded());
  const auto b = run_task(task, false, nullptr, recorded());
  ASSERT_EQ(a.stats.traces.size(), b.stats.traces.size());
  for (size_t c = 0; c < a.stats.traces.size(); ++c) {
    const auto& ta = a.stats.traces[c];
    const auto& tb = b.stats.traces[c];
    ASSERT_EQ(ta.task_count(), tb.task_count()) << "cycle " << c;
    for (size_t i = 0; i < ta.tasks.size(); ++i) {
      EXPECT_EQ(ta.tasks[i].parent, tb.tasks[i].parent);
      EXPECT_EQ(ta.tasks[i].type, tb.tasks[i].type);
      EXPECT_EQ(ta.tasks[i].stats.probes, tb.tasks[i].stats.probes);
      EXPECT_EQ(ta.tasks[i].stats.tests, tb.tasks[i].stats.tests);
    }
  }
}

TEST_P(TaskDeterminism, SimulationIsReproducible) {
  const Task task = make_task(GetParam());
  const auto run = run_task(task, false, nullptr, recorded());
  SimOptions opts;
  opts.processors = 11;
  const auto r1 = simulate_run(run.stats.traces, opts);
  const auto r2 = simulate_run(run.stats.traces, opts);
  EXPECT_EQ(r1.parallel_us, r2.parallel_us);
  EXPECT_EQ(r1.spins, r2.spins);
  EXPECT_EQ(r1.failed_pops, r2.failed_pops);
  EXPECT_EQ(r1.bucket_spins, r2.bucket_spins);
}

INSTANTIATE_TEST_SUITE_P(AllTasks, TaskDeterminism,
                         ::testing::Values("eight-puzzle", "strips",
                                           "cypress"));

/// Eight-Puzzle LEARNING runs — chunk building included — land on the
/// identical decision sequence and the byte-identical chunk texts at every
/// matcher width, with tracing enabled and right unlinking on, as the
/// linked recorder (record_traces) does.
/// The conflict set orders instantiations by a schedule-invariant content
/// key (production age, token timetags — see det_less in conflict_set.cpp),
/// so worker count and steal schedule cannot leak into firing order, chunk
/// backtraces, or gensym'd identifiers. (Per-task CycleTraces are not
/// compared: the matcher records none.)
TEST(LearningDeterminism, EightPuzzleIdenticalAcrossMatcherWidths) {
  const Task task = make_task("eight-puzzle");

  auto run_at = [&](size_t workers) {
    EngineOptions eo;
    eo.match_workers = workers;
    eo.trace.enabled = true;  // tracing on, per the acceptance criterion
    return run_task(task, /*learning=*/true, nullptr, eo);
  };

  // The linked recorder's run: every unlinked width must decide and learn
  // as it does.
  const auto oracle = run_task(task, /*learning=*/true, nullptr, recorded());
  auto decision_signature = [](const SoarRunStats& s) {
    std::ostringstream os;
    os << s.decisions << '/' << s.elab_cycles << '/' << s.impasses << '/'
       << s.chunks_built << '/' << s.goal_achieved;
    return os.str();
  };

  for (const size_t workers : {1u, 2u, 4u, 8u}) {
    const auto r = run_at(workers);
    EXPECT_EQ(decision_signature(r.stats), decision_signature(oracle.stats))
        << "match_workers=" << workers;
    ASSERT_EQ(r.stats.chunk_texts.size(), oracle.stats.chunk_texts.size())
        << "match_workers=" << workers;
    for (size_t i = 0; i < r.stats.chunk_texts.size(); ++i) {
      EXPECT_EQ(r.stats.chunk_texts[i], oracle.stats.chunk_texts[i])
          << "chunk " << i << " at match_workers=" << workers;
    }
  }
}

/// soar.match_tasks / soar.update_tasks count executed tasks, whichever
/// executor ran them, so a threaded learning run (which records no DAGs)
/// reports the serial run's work. Runs are compared at one granularity at a
/// time: record_traces keeps every join linked on either executor, and
/// without it a join whose left memory is empty gets no right activations
/// (DESIGN.md §16). A §5.2 update fills the new nodes' right memories
/// (phases A, B) or relinks them (phase C) before any left token reaches
/// them, so its count does not depend on the schedule and must match
/// exactly at either granularity. A linked match cycle's count does: a
/// not/NCC node's conjugate deletion can overtake its insertion and both
/// cancel (fewer tasks), or a left token can pass a not node before the wme
/// that blocks it arrives and emit an insert plus a retract the FIFO order
/// never produced (more tasks). On eight-puzzle at 2-13 workers the two
/// differed by at most 32 of ~287k; the bound is 0.1% either way. Unlinked,
/// whether an alpha-memory add beats the relink of a join in the same drain
/// (and so sends it a right activation) is up to the schedule too, which
/// moved the count by 0.7% (207,690 serial, 209,177 at 4 workers); each
/// unlinked run must still execute fewer tasks than the linked runs.
TEST(LearningDeterminism, TaskCountsMatchAcrossExecutors) {
  const Task task = make_task("eight-puzzle");
  std::array<TaskRunResult, 2> serial, par;  // [linked]
  for (const bool linked : {false, true}) {
    EngineOptions serial_opts;
    serial_opts.record_traces = linked;
    EngineOptions threaded = serial_opts;  // recording asked for, never done
    threaded.match_workers = 4;
    serial[linked] = run_task(task, /*learning=*/true, nullptr, serial_opts);
    par[linked] = run_task(task, /*learning=*/true, nullptr, threaded);
    ASSERT_GT(serial[linked].metrics.value("soar.match_tasks"), 0u);
    ASSERT_GT(serial[linked].metrics.value("soar.update_tasks"), 0u);
    EXPECT_EQ(par[linked].metrics.value("soar.update_tasks"),
              serial[linked].metrics.value("soar.update_tasks"))
        << "linked " << linked;
    EXPECT_TRUE(par[linked].stats.traces.empty())
        << "threaded cycles record no DAG";
  }
  const uint64_t match = serial[true].metrics.value("soar.match_tasks");
  const uint64_t par_match = par[true].metrics.value("soar.match_tasks");
  const uint64_t diff =
      par_match > match ? par_match - match : match - par_match;
  EXPECT_LE(diff, match / 1000)
      << "linked: serial " << match << " vs 4 workers " << par_match;
  for (const TaskRunResult* unlinked : {&serial[false], &par[false]}) {
    EXPECT_LT(unlinked->metrics.value("soar.match_tasks"),
              std::min(match, par_match));
  }
}

TEST(SimMonotonicity, RealTracesNeverGetSlowerWithMoreProcsMultiQueue) {
  const auto run = run_task(make_eight_puzzle(), false, nullptr, recorded());
  SimOptions opts;
  opts.policy = QueuePolicy::Multi;
  double prev = 1e18;
  for (const uint32_t p : {1u, 3u, 6u, 9u}) {
    opts.processors = p;
    const double t = simulate_run(run.stats.traces, opts).parallel_us;
    EXPECT_LT(t, prev * 1.02) << "at " << p << " procs";
    prev = t;
  }
}

TEST(SimSanity, SpeedupNeverExceedsProcessorCount) {
  const auto run = run_task(make_strips(), false, nullptr, recorded());
  for (const uint32_t p : {2u, 5u, 8u, 13u}) {
    SimOptions opts;
    opts.processors = p;
    SimOptions uni = opts;
    uni.processors = 1;
    const double s = simulate_run(run.stats.traces, uni).parallel_us /
                     simulate_run(run.stats.traces, opts).parallel_us;
    EXPECT_LE(s, static_cast<double>(p) * 1.001);
    EXPECT_GE(s, 0.9);
  }
}

}  // namespace
}  // namespace psme
