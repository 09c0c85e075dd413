// Context-reachability garbage collection (§3: the decision module
// "automatically garbage collects inaccessible wmes").
#include <gtest/gtest.h>

#include <algorithm>

#include "soar/kernel.h"
#include "tasks/registry.h"

namespace psme {

/// The kernel's phases, one at a time (friend of SoarKernel).
struct SoarAccess {
  static void elaborate(SoarKernel& k, SoarRunStats& st) { k.elaborate(st); }
  static bool decide(SoarKernel& k, SoarRunStats& st) { return k.decide(st); }
  static void gc_unreachable(SoarKernel& k) { k.gc_unreachable(); }
  static void gc_wmes_above(SoarKernel& k, int level) {
    k.gc_wmes_above(level);
  }
};

namespace {

/// A two-step task whose operator application replaces the state; old states
/// become garbage.
void setup(SoarKernel& k) {
  k.load_productions(
      "(p propose"
      "  (wme ^id <g> ^attr problem-space ^value gc)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  -->"
      "  (bind <o> (genatom o))"
      "  (make wme ^id <o> ^attr name ^value step)"
      "  (make wme ^id <o> ^attr for-state ^value <s>)"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
      "acceptable))"
      "(p apply"
      "  (wme ^id <g> ^attr operator ^value <o>)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (wme ^id <o> ^attr for-state ^value <s>)"
      "  (wme ^id <s> ^attr count ^value <n>)"
      "  -->"
      "  (bind <ns> (genatom s))"
      "  (make wme ^id <ns> ^attr prev ^value <s>)"
      "  (make wme ^id <ns> ^attr count ^value (compute <n> + 1))"
      "  (make wme ^id <ns> ^attr junk ^value (genatom j))"
      "  (make pref ^gid <g> ^sid <s> ^role state ^value <ns> ^kind "
      "acceptable))"
      "(p done"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (wme ^id <s> ^attr count ^value 4)"
      "  -->"
      "  (make wme ^id <g> ^attr success ^value yes))");
  const Symbol s0 = k.make_id("s", 1);
  k.add_triple(s0, "count", Value(static_cast<int64_t>(0)));
  k.create_top_goal(k.engine().syms().intern("gc"), s0);
  k.set_goal_test(
      [](SoarKernel& kk) { return kk.has_triple_attr("success", "yes"); });
}

TEST(SoarGc, SupersededStatesAreCollected) {
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 30;
  SoarKernel k(opts);
  setup(k);
  const auto stats = k.run();
  ASSERT_TRUE(stats.goal_achieved);
  // After 4 state replacements, exactly one state object (the current one)
  // should still have a count triple in WM.
  const Symbol count = k.engine().syms().find("count");
  int live_counts = 0;
  for (const Wme* w : k.engine().wm().live()) {
    if (w->field(1) == Value(count)) ++live_counts;
  }
  EXPECT_EQ(live_counts, 1);
}

TEST(SoarGc, StalePreferencesAreCollected) {
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 30;
  SoarKernel k(opts);
  setup(k);
  k.run();
  // Every surviving preference must be scoped to the current state.
  const Symbol pref = k.engine().syms().find("pref");
  const Symbol cur = k.goal_stack().front().state;
  for (const Wme* w : k.engine().wm().live()) {
    if (w->cls != pref) continue;
    if (w->field(1).is_nil()) continue;
    EXPECT_EQ(w->field(1), Value(cur))
        << w->to_string(k.engine().syms(), k.engine().schemas());
  }
}

TEST(SoarGc, OldOperatorObjectsAreCollected) {
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 30;
  SoarKernel k(opts);
  setup(k);
  k.run();
  // Operators for superseded states (their for-state triples) are gone.
  const Symbol for_state = k.engine().syms().find("for-state");
  const Symbol cur = k.goal_stack().front().state;
  for (const Wme* w : k.engine().wm().live()) {
    if (w->field(1) == Value(for_state)) {
      EXPECT_EQ(w->field(2), Value(cur));
    }
  }
}

TEST(SoarGc, StaticStructureSurvives) {
  // Structure hanging off the goal must never be collected.
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 30;
  SoarKernel k(opts);
  setup(k);
  const Symbol fixture = k.make_id("f", 1);
  // Attach after setup's create_top_goal: hang it off the goal.
  k.add_triple(k.goal_stack().front().id, "fixture", Value(fixture));
  k.add_triple(fixture, "label", Value(k.engine().syms().intern("keep-me")));
  const auto stats = k.run();
  ASSERT_TRUE(stats.goal_achieved);
  EXPECT_TRUE(k.has_triple_attr("label", "keep-me"));
}

TEST(SoarGc, MatchStateShrinksWithCollection) {
  // The retracted wmes must leave the Rete memories, not just WM.
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 30;
  SoarKernel k(opts);
  setup(k);
  k.run();
  // WM holds only the live structure; the alpha/beta memories cannot hold
  // more wme references than WM has live wmes times the network fan-out.
  const size_t live = k.engine().wm().size();
  EXPECT_LT(live, 30u);
  EXPECT_LT(k.engine().state().tables.total_right_entries(), live * 12);
}

TEST(SoarGc, ChunkProvenanceSurvivesCollection) {
  // Learning on: chunks built after GC ran must still be able to backtrace
  // (removed wmes stay allocated).
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = 30;
  SoarKernel k(opts);
  setup(k);
  const auto stats = k.run();
  EXPECT_TRUE(stats.goal_achieved);  // and no crash while chunking
}

/// The removals queued since `from`, checked to be in timetag order;
/// returns how many there are.
size_t check_removal_order(SoarKernel& k, size_t from) {
  const auto& rm = k.engine().pending_removes();
  EXPECT_TRUE(std::is_sorted(rm.begin() + static_cast<ptrdiff_t>(from),
                             rm.end(), [](const Wme* a, const Wme* b) {
                               return a->timetag < b->timetag;
                             }));
  return rm.size() - from;
}

TEST(SoarGc, CollectedWmesAreRetractedInTimetagOrder) {
  // A GC pass collects in storage order; its removals must still reach the
  // next match in timetag order (they order its seeds).
  SoarOptions opts;
  opts.learning = false;
  SoarKernel k(opts);
  setup(k);
  SoarRunStats st;
  size_t most = 0;
  for (int d = 0; d < 30; ++d) {
    SoarAccess::elaborate(k, st);
    if (k.has_triple_attr("success", "yes")) break;
    if (!SoarAccess::decide(k, st)) break;
    const size_t from = k.engine().pending_removes().size();
    SoarAccess::gc_unreachable(k);
    most = std::max(most, check_removal_order(k, from));
  }
  EXPECT_GE(most, 3u);  // some decision's GC retracted several wmes
}

TEST(SoarGc, SubgoalWmesAreRetractedInTimetagOrder) {
  // gc_wmes_above, which terminates subgoals, keeps the same order.
  const Task task = make_eight_puzzle();
  SoarOptions opts;
  opts.learning = false;
  SoarKernel k(opts);
  k.load_productions(task.productions);
  task.init(k);
  SoarRunStats st;
  bool popped = false;
  for (int d = 0; d < 40 && !popped; ++d) {
    SoarAccess::elaborate(k, st);
    if (k.goal_stack().size() > 1) {
      const size_t from = k.engine().pending_removes().size();
      SoarAccess::gc_wmes_above(k, 1);
      EXPECT_GE(check_removal_order(k, from), 3u);
      popped = true;
    } else if (!SoarAccess::decide(k, st)) {
      break;
    }
  }
  EXPECT_TRUE(popped) << "eight-puzzle raised no subgoal";
}

}  // namespace
}  // namespace psme
