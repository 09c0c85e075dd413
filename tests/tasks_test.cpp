// The three paper tasks: production counts, runs complete, chunks are built
// during learning, learned chunks transfer, and a learning run's conflict
// set agrees with the independent oracle (tests/oracle.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "oracle.h"
#include "tasks/registry.h"
#include "test_util.h"

namespace psme {
namespace {

TEST(Tasks, ProductionCountsMatchPaper) {
  EXPECT_EQ(run_task(make_eight_puzzle(), false).production_count, 71u);
  EXPECT_EQ(run_task(make_strips(), false).production_count, 105u);
  EXPECT_EQ(run_task(make_cypress(), false).production_count, 196u);
}

class TaskRuns : public ::testing::TestWithParam<const char*> {};

TEST_P(TaskRuns, WithoutChunkingProducesWork) {
  const Task task = make_task(GetParam());
  const auto res =
      run_task(task, /*learning=*/false, nullptr, test::recorded());
  EXPECT_GT(res.stats.decisions, 3u);
  EXPECT_GT(res.stats.elab_cycles, 5u);
  uint64_t tasks = 0;
  for (const auto& t : res.stats.traces) tasks += t.task_count();
  EXPECT_GT(tasks, 500u);
  EXPECT_EQ(res.stats.match_tasks, tasks);
}

TEST_P(TaskRuns, DuringChunkingBuildsChunks) {
  const Task task = make_task(GetParam());
  const auto res = run_task(task, /*learning=*/true);
  EXPECT_GE(res.stats.chunks_built, 3u);
  int max_ces = 0;
  for (const auto& c : res.stats.chunk_costs) {
    EXPECT_GE(c.total_ces, 2);
    EXPECT_GT(c.code_bytes, 100u);
    max_ces = std::max(max_ces, c.total_ces);
  }
  // At least some chunks carry a substantial condition list (the paper's
  // chunks average 34-51 CEs; ours are smaller but must not be trivial).
  EXPECT_GE(max_ces, 5);
}

TEST_P(TaskRuns, ChunksAreReloadable) {
  const Task task = make_task(GetParam());
  const auto during = run_task(task, /*learning=*/true);
  ASSERT_GE(during.stats.chunks_built, 1u);
  const auto after =
      run_task(task, /*learning=*/false, &during.stats.chunk_texts);
  EXPECT_EQ(after.production_count,
            run_task(task, false).production_count +
                during.stats.chunk_texts.size());
  EXPECT_GT(after.stats.elab_cycles, 0u);
}

/// The conflict set equals the oracle's matches after every decision of a
/// learning run, learned chunks included, and at the end of the run. The
/// oracle's slot-value buckets keep a check to a few ms even on cypress's
/// ~1,250 wmes.
TEST_P(TaskRuns, LearningRunAgreesWithOracle) {
  const Task task = make_task(GetParam());
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = task.max_decisions;
  SoarKernel kernel(opts);
  kernel.load_productions(task.productions);
  task.init(kernel);
  uint64_t checks = 0;
  std::string first_diff;
  kernel.set_decision_listener([&](SoarKernel& k) {
    if (!first_diff.empty()) return;
    ++checks;
    const std::string diff = test::oracle_diff(k.engine());
    if (!diff.empty()) {
      first_diff = "after decision " + std::to_string(checks) + ":\n" + diff;
    }
  });
  const SoarRunStats stats = kernel.run();
  EXPECT_TRUE(first_diff.empty()) << first_diff;
  EXPECT_EQ(checks, stats.decisions);
  EXPECT_GE(stats.chunks_built, 1u);
  const std::string last = test::oracle_diff(kernel.engine());
  EXPECT_TRUE(last.empty()) << "at the end of the run:\n" << last;
}

INSTANTIATE_TEST_SUITE_P(AllTasks, TaskRuns,
                         ::testing::Values("eight-puzzle", "strips",
                                           "cypress"));

TEST(Tasks, EightPuzzleSolves) {
  const auto res = run_task(make_eight_puzzle(), /*learning=*/false);
  EXPECT_TRUE(res.stats.goal_achieved);
}

TEST(Tasks, StripsSolves) {
  const auto res = run_task(make_strips(), /*learning=*/false);
  EXPECT_TRUE(res.stats.goal_achieved);
}

TEST(Tasks, CypressReachesSuccessOrLimit) {
  const auto res = run_task(make_cypress(), /*learning=*/false);
  EXPECT_TRUE(res.stats.goal_achieved || res.stats.halted_on_limit ||
              res.stats.decisions > 20);
}

TEST(Tasks, AfterChunkingUsesFewerDecisionsEightPuzzle) {
  const Task task = make_eight_puzzle();
  const auto during = run_task(task, /*learning=*/true);
  ASSERT_GE(during.stats.chunks_built, 1u);
  const auto after =
      run_task(task, /*learning=*/false, &during.stats.chunk_texts);
  // Learned selection knowledge prevents impasses on the same problem.
  EXPECT_LE(after.stats.impasses, during.stats.impasses);
}

TEST(Tasks, UnknownTaskThrows) {
  EXPECT_THROW(make_task("nonsense"), std::invalid_argument);
}

}  // namespace
}  // namespace psme
