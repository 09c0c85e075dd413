// Soar kernel: elaboration phase semantics, decision procedure, impasses and
// subgoals, operator retirement, garbage collection.
#include <gtest/gtest.h>

#include "soar/kernel.h"

namespace psme {
namespace {

/// A micro-task: one goal, operators o-a/o-b proposed by productions, an
/// evaluation production that prefers o-a, applications mark done.
SoarKernel& setup_micro(SoarKernel& k, bool with_best_eval) {
  std::string prods =
      // Propose two operators for the current state.
      "(p propose-a"
      "  (wme ^id <g> ^attr problem-space ^value micro)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  -(wme ^id <s> ^attr did ^value op-a)"
      "  -->"
      "  (bind <o> (genatom o))"
      "  (make wme ^id <o> ^attr name ^value op-a)"
      "  (make wme ^id <o> ^attr for-state ^value <s>)"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
      "acceptable))"
      "(p propose-b"
      "  (wme ^id <g> ^attr problem-space ^value micro)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  -(wme ^id <s> ^attr did ^value op-b)"
      "  -->"
      "  (bind <o> (genatom o))"
      "  (make wme ^id <o> ^attr name ^value op-b)"
      "  (make wme ^id <o> ^attr for-state ^value <s>)"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
      "acceptable))"
      // Apply: mark the action on the state, retire the operator.
      "(p apply"
      "  (wme ^id <g> ^attr operator ^value <o>)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (wme ^id <o> ^attr for-state ^value <s>)"
      "  (wme ^id <o> ^attr name ^value <n>)"
      "  -->"
      "  (make wme ^id <s> ^attr did ^value <n>)"
      "  (make wme ^id <o> ^attr done ^value yes))"
      // Success once both ran.
      "(p done"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (wme ^id <s> ^attr did ^value op-a)"
      "  (wme ^id <s> ^attr did ^value op-b)"
      "  -->"
      "  (make wme ^id <g> ^attr success ^value yes))"
      // Default indifference in the tie subgoal.
      "(p eval-default"
      "  (wme ^id <sg> ^attr impasse ^value tie)"
      "  (wme ^id <sg> ^attr object ^value <g>)"
      "  (wme ^id <sg> ^attr item ^value <o>)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind acceptable)"
      "  -->"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
      "indifferent))";
  if (with_best_eval) {
    prods +=
        "(p eval-prefer-a"
        "  (wme ^id <sg> ^attr impasse ^value tie)"
        "  (wme ^id <sg> ^attr object ^value <g>)"
        "  (wme ^id <sg> ^attr item ^value <o>)"
        "  (wme ^id <g> ^attr state ^value <s>)"
        "  (pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
        "acceptable)"
        "  (wme ^id <o> ^attr name ^value op-a)"
        "  -->"
        "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
        "best))";
  }
  k.load_productions(prods);
  const Symbol s0 = k.make_id("s", 1);
  k.create_top_goal(k.engine().syms().intern("micro"), s0);
  k.set_goal_test(
      [](SoarKernel& kk) { return kk.has_triple_attr("success", "yes"); });
  return k;
}

TEST(SoarKernel, RunsMicroTaskToSuccess) {
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 30;
  SoarKernel k(opts);
  setup_micro(k, true);
  const auto stats = k.run();
  EXPECT_TRUE(stats.goal_achieved);
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_GT(stats.elab_cycles, 0u);
}

TEST(SoarKernel, TieImpasseCreatesSubgoal) {
  SoarOptions opts;
  opts.learning = false;
  SoarKernel k(opts);
  setup_micro(k, true);
  const auto stats = k.run();
  EXPECT_GE(stats.impasses, 1u);
}

TEST(SoarKernel, IndifferentPreferencesResolveTies) {
  SoarOptions opts;
  opts.learning = false;
  SoarKernel k(opts);
  setup_micro(k, /*with_best_eval=*/false);  // only indifferents
  const auto stats = k.run();
  EXPECT_TRUE(stats.goal_achieved);
}

TEST(SoarKernel, SubgoalWmesAreCollectedAfterResolution) {
  SoarOptions opts;
  opts.learning = false;
  SoarKernel k(opts);
  setup_micro(k, true);
  k.run();
  // After the run, the goal stack is back to the top goal and no level-2
  // wmes survive.
  EXPECT_EQ(k.goal_stack().size(), 1u);
  for (const Wme* w : k.engine().wm().live()) {
    EXPECT_LE(k.wme_level(w), 1);
  }
}

TEST(SoarKernel, ElaborationFiresAllInstantiationsInParallel) {
  // Two independent productions both fire in the same elaboration phase.
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 1;
  SoarKernel k(opts);
  k.load_productions(
      "(p e1 (wme ^id <g> ^attr state ^value <s>) --> "
      "(make wme ^id <s> ^attr note ^value one))"
      "(p e2 (wme ^id <g> ^attr state ^value <s>) --> "
      "(make wme ^id <s> ^attr note ^value two))");
  const Symbol s0 = k.make_id("s", 1);
  k.create_top_goal(k.engine().syms().intern("x"), s0);
  k.run();
  EXPECT_TRUE(k.has_triple_attr("note", "one"));
  EXPECT_TRUE(k.has_triple_attr("note", "two"));
}

TEST(SoarKernel, WmeDeduplication) {
  // Two productions creating the same triple yield one wme.
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 1;
  SoarKernel k(opts);
  k.load_productions(
      "(p e1 (wme ^id <g> ^attr state ^value <s>) --> "
      "(make wme ^id <s> ^attr note ^value same))"
      "(p e2 (wme ^id <g> ^attr state ^value <s>) --> "
      "(make wme ^id <s> ^attr note ^value same))");
  const Symbol s0 = k.make_id("s", 1);
  k.create_top_goal(k.engine().syms().intern("x"), s0);
  k.run();
  int notes = 0;
  for (const Wme* w : k.engine().wm().live()) {
    if (w->field(1) == Value(k.engine().syms().find("note"))) ++notes;
  }
  EXPECT_EQ(notes, 1);
}

TEST(SoarKernel, TracesOnePerElaborationCycle) {
  SoarOptions opts;
  opts.learning = false;
  opts.engine.record_traces = true;
  SoarKernel k(opts);
  setup_micro(k, true);
  const auto stats = k.run();
  EXPECT_EQ(stats.traces.size(), stats.elab_cycles);
  uint64_t total_tasks = 0;
  for (const auto& t : stats.traces) total_tasks += t.task_count();
  EXPECT_GT(total_tasks, 10u);
  EXPECT_EQ(stats.match_tasks, total_tasks);
}

// A default kernel records nothing, so its engine drains every
// elaboration cycle on its own one-worker matcher.
TEST(SoarKernel, DefaultRunDrainsOnTheOneWorkerMatcher) {
  SoarKernel k;
  setup_micro(k, true);
  const auto stats = k.run();
  EXPECT_TRUE(stats.goal_achieved);
  EXPECT_TRUE(stats.traces.empty());
  const Engine& e = k.engine();
  ASSERT_NE(e.parallel_matcher(), nullptr);
  EXPECT_EQ(e.parallel_matcher()->workers(), 1u);
  EXPECT_EQ(e.last_parallel_stats().tasks, e.last_match_tasks());
  EXPECT_EQ(e.parallel_matcher()->lifetime_tasks(),
            stats.match_tasks + stats.update_tasks);
}

TEST(SoarKernel, StuckWithoutEvaluationsEndsCleanly) {
  // No eval productions at all: tie cannot resolve; the run must terminate
  // without achieving the goal (not loop forever).
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 20;
  SoarKernel k(opts);
  k.load_productions(
      "(p propose-a"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  -->"
      "  (bind <o> (genatom o))"
      "  (make wme ^id <o> ^attr name ^value op-a)"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
      "acceptable))"
      "(p propose-b"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  -->"
      "  (bind <o> (genatom o))"
      "  (make wme ^id <o> ^attr name ^value op-b)"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
      "acceptable))");
  const Symbol s0 = k.make_id("s", 1);
  k.create_top_goal(k.engine().syms().intern("x"), s0);
  const auto stats = k.run();
  EXPECT_FALSE(stats.goal_achieved);
  EXPECT_GE(stats.impasses, 1u);
}

}  // namespace
}  // namespace psme
