// Chunking: results detected, backtrace collects supergoal conditions,
// chunks are installed at run time and transfer to later situations.
#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "soar/kernel.h"

namespace psme {
namespace {

/// Task where a tie between operators is resolved in a subgoal by an
/// evaluation that inspects a feature of the operator; the resulting best
/// preference is a result and becomes a chunk. Operators are re-proposed for
/// each new state, so the learned chunk applies again (transfer) and later
/// decisions avoid the impasse.
std::string chunking_task_productions() {
  return
      // Propose one operator per item object.
      "(p propose"
      "  (wme ^id <g> ^attr problem-space ^value ct)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (wme ^id <g> ^attr thing ^value <t>)"
      "  -(wme ^id <s> ^attr used ^value <t>)"
      "  -->"
      "  (bind <o> (genatom o))"
      "  (make wme ^id <o> ^attr name ^value use-thing)"
      "  (make wme ^id <o> ^attr thing ^value <t>)"
      "  (make wme ^id <o> ^attr for-state ^value <s>)"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
      "acceptable))"
      // Apply: new state recording the thing used.
      "(p apply"
      "  (wme ^id <g> ^attr operator ^value <o>)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (wme ^id <o> ^attr for-state ^value <s>)"
      "  (wme ^id <o> ^attr thing ^value <t>)"
      "  -->"
      "  (bind <ns> (genatom s))"
      "  (make wme ^id <ns> ^attr prev ^value <s>)"
      "  (make wme ^id <ns> ^attr used ^value <t>)"
      "  (make pref ^gid <g> ^sid <s> ^role state ^value <ns> ^kind "
      "acceptable))"
      // Carry use-history onto the successor state (old states are garbage
      // collected once superseded).
      "(p carry-used"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (wme ^id <ns> ^attr prev ^value <s>)"
      "  (wme ^id <s> ^attr used ^value <t>)"
      "  -->"
      "  (make wme ^id <ns> ^attr used ^value <t>))"
      // Success once two distinct things have been used.
      "(p done"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (wme ^id <s> ^attr used ^value <t1>)"
      "  (wme ^id <s> ^attr used ^value { <t2> <> <t1> })"
      "  -->"
      "  (make wme ^id <g> ^attr success ^value yes))"
      // Subgoal evaluations: prefer the shiny thing; everything else
      // indifferent.
      "(p eval-shiny"
      "  (wme ^id <sg> ^attr impasse ^value tie)"
      "  (wme ^id <sg> ^attr object ^value <g>)"
      "  (wme ^id <sg> ^attr item ^value <o>)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind acceptable)"
      "  (wme ^id <o> ^attr thing ^value <t>)"
      "  (wme ^id <t> ^attr shiny ^value yes)"
      "  -->"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind best))"
      "(p eval-default"
      "  (wme ^id <sg> ^attr impasse ^value tie)"
      "  (wme ^id <sg> ^attr object ^value <g>)"
      "  (wme ^id <sg> ^attr item ^value <o>)"
      "  (wme ^id <g> ^attr state ^value <s>)"
      "  (pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind acceptable)"
      "  -->"
      "  (make pref ^gid <g> ^sid <s> ^role operator ^value <o> ^kind "
      "indifferent))";
}

void init_chunking_task(SoarKernel& k) {
  SymbolTable& syms = k.engine().syms();
  const Symbol s0 = k.make_id("s", 1);
  const Symbol g = k.create_top_goal(syms.intern("ct"), s0);
  const Symbol t1 = k.make_id("th", 1);
  const Symbol t2 = k.make_id("th", 1);
  k.add_triple(g, "thing", Value(t1));
  k.add_triple(g, "thing", Value(t2));
  k.add_triple(t2, "shiny", Value(syms.intern("yes")));
  k.set_goal_test(
      [](SoarKernel& kk) { return kk.has_triple_attr("success", "yes"); });
}

TEST(Chunking, BuildsChunksDuringRun) {
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = 40;
  SoarKernel k(opts);
  k.load_productions(chunking_task_productions());
  init_chunking_task(k);
  const auto stats = k.run();
  EXPECT_TRUE(stats.goal_achieved);
  EXPECT_GE(stats.chunks_built, 1u);
  EXPECT_EQ(stats.chunk_texts.size(), stats.chunks_built);
  EXPECT_EQ(stats.chunk_costs.size(), stats.chunks_built);
  for (const auto& c : stats.chunk_costs) {
    EXPECT_GT(c.code_bytes, 0u);
    EXPECT_GT(c.total_ces, 0);
  }
}

TEST(Chunking, UpdateTracesRecorded) {
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = 40;
  opts.engine.record_traces = true;
  SoarKernel k(opts);
  k.load_productions(chunking_task_productions());
  init_chunking_task(k);
  const auto stats = k.run();
  ASSERT_GE(stats.chunks_built, 1u);
  EXPECT_EQ(stats.update_ab.size(), stats.chunks_built);
  EXPECT_EQ(stats.update_c.size(), stats.chunks_built);
  // The update actually ran tasks (WM was non-trivial).
  uint64_t update_tasks = 0;
  for (const auto& t : stats.update_ab) update_tasks += t.task_count();
  for (const auto& t : stats.update_c) update_tasks += t.task_count();
  EXPECT_GT(update_tasks, 0u);
  EXPECT_EQ(stats.update_tasks, update_tasks);
}

TEST(Chunking, FewerImpassesAfterLearning) {
  // During-chunking run.
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = 60;
  SoarKernel k1(opts);
  k1.load_productions(chunking_task_productions());
  init_chunking_task(k1);
  const auto during = k1.run();
  ASSERT_TRUE(during.goal_achieved);
  ASSERT_GE(during.chunks_built, 1u);

  // After-chunking run: fresh kernel seeded with the learned chunks.
  SoarOptions opts2;
  opts2.learning = false;
  opts2.max_decisions = 60;
  SoarKernel k2(opts2);
  k2.load_productions(chunking_task_productions());
  for (const auto& text : during.chunk_texts) k2.load_productions(text);
  init_chunking_task(k2);
  const auto after = k2.run();
  EXPECT_TRUE(after.goal_achieved);
  EXPECT_LT(after.impasses, during.impasses);
}

TEST(Chunking, ChunkTextIsReparseable) {
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = 40;
  SoarKernel k(opts);
  k.load_productions(chunking_task_productions());
  init_chunking_task(k);
  const auto stats = k.run();
  ASSERT_GE(stats.chunk_texts.size(), 1u);
  SoarKernel k2(SoarOptions{});
  for (const auto& text : stats.chunk_texts) {
    EXPECT_NO_THROW(k2.load_productions(text)) << text;
  }
}

TEST(Chunking, NoChunksWhenLearningOff) {
  SoarOptions opts;
  opts.learning = false;
  opts.max_decisions = 40;
  SoarKernel k(opts);
  k.load_productions(chunking_task_productions());
  init_chunking_task(k);
  const auto stats = k.run();
  EXPECT_EQ(stats.chunks_built, 0u);
}

TEST(Chunking, ChunkConditionsAreAnchored) {
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = 40;
  SoarKernel k(opts);
  k.load_productions(chunking_task_productions());
  init_chunking_task(k);
  const auto stats = k.run();
  // Every chunk mentions the pref class (the traced acceptable preference)
  // and makes a pref: shaped like a real selection chunk.
  for (const auto& text : stats.chunk_texts) {
    EXPECT_NE(text.find("(pref"), std::string::npos) << text;
    EXPECT_NE(text.find("(make pref"), std::string::npos) << text;
  }
}

TEST(Chunking, ExciseRemovesChunkAndReleasesSignature) {
  SoarOptions opts;
  opts.learning = true;
  opts.max_decisions = 40;
  SoarKernel k(opts);
  k.load_productions(chunking_task_productions());
  init_chunking_task(k);
  const auto stats = k.run();
  ASSERT_GE(stats.chunks_built, 1u);

  Engine& e = k.engine();
  const size_t prods_before = e.productions().size();
  const uint32_t live_before = e.net().live_node_count();

  // The chunk is the last production adopted.
  const Production* chunk = e.productions().back();
  const auto res = k.excise(chunk);
  EXPECT_GT(res.nodes_removed, 0u);
  EXPECT_EQ(e.productions().size(), prods_before - 1);
  EXPECT_LT(e.net().live_node_count(), live_before);
  const auto rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();

  // The signature was forgotten: an identical chunk can be re-learned (the
  // network-wide dedup would otherwise silently swallow it forever).
  ASSERT_FALSE(stats.chunk_texts.empty());
  const size_t before_reload = e.productions().size();
  k.load_productions(stats.chunk_texts.back());
  EXPECT_EQ(e.productions().size(), before_reload + 1);

  // Excising a task production (never a chunk) also works: provenance is
  // scrubbed without disturbing working memory.
  const size_t wm_size = e.wm().live().size();
  k.excise(e.productions().front());
  EXPECT_EQ(e.wm().live().size(), wm_size);
  const auto rep2 = e.verify_network();
  EXPECT_TRUE(rep2.ok()) << rep2.to_string();
}

}  // namespace
}  // namespace psme
