// Core Rete behaviour: constant tests, joins, variable consistency,
// deletion, hashing, sharing.
#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "engine/engine.h"
#include "test_util.h"

namespace psme {
namespace {

using test::instantiation_count;
using test::matched_productions;
using test::recorded;

TEST(ReteMatch, SingleConditionConstantMatch) {
  Engine e;
  e.load("(p blue (block ^color blue) --> (halt))");
  e.add_wme_text("(block ^name b1 ^color blue)");
  e.add_wme_text("(block ^name b2 ^color red)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "blue"), 1);
}

TEST(ReteMatch, TwoConditionJoinOnVariable) {
  Engine e;
  e.load(
      "(p on-top (block ^name <a> ^on <b>) (block ^name <b>) --> (halt))");
  e.add_wme_text("(block ^name b1 ^on b2)");
  e.add_wme_text("(block ^name b2)");
  e.add_wme_text("(block ^name b3 ^on b9)");  // b9 does not exist
  e.match();
  EXPECT_EQ(instantiation_count(e, "on-top"), 1);
}

TEST(ReteMatch, CrossProductWithoutSharedVariables) {
  Engine e;
  e.load("(p cross (a ^v <x>) (b ^w <y>) --> (halt))");
  for (int i = 0; i < 3; ++i) {
    e.add_wme(e.syms().intern("a"),
              {Value(static_cast<int64_t>(i))});
    e.add_wme(e.syms().intern("b"),
              {Value(static_cast<int64_t>(i))});
  }
  // Schemas: class a slot0 = v, class b slot0 = w (from the production).
  e.match();
  EXPECT_EQ(instantiation_count(e, "cross"), 9);
}

TEST(ReteMatch, NumericPredicates) {
  Engine e;
  e.load("(p big (box ^size > 5) --> (halt))"
         "(p mid (box ^size { >= 3 <= 5 }) --> (halt))");
  e.add_wme_text("(box ^size 2)");
  e.add_wme_text("(box ^size 4)");
  e.add_wme_text("(box ^size 9)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "big"), 1);
  EXPECT_EQ(instantiation_count(e, "mid"), 1);
}

TEST(ReteMatch, VariablePredicateAcrossConditions) {
  Engine e;
  e.load("(p bigger (a ^size <s>) (b ^size > <s>) --> (halt))");
  e.add_wme_text("(a ^size 3)");
  e.add_wme_text("(b ^size 5)");
  e.add_wme_text("(b ^size 2)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "bigger"), 1);
}

TEST(ReteMatch, IntraConditionVariableConsistency) {
  Engine e;
  e.load("(p same (pair ^left <x> ^right <x>) --> (halt))");
  e.add_wme_text("(pair ^left a ^right a)");
  e.add_wme_text("(pair ^left a ^right b)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "same"), 1);
}

TEST(ReteMatch, Disjunction) {
  Engine e;
  e.load("(p warm (block ^color << red orange yellow >>) --> (halt))");
  e.add_wme_text("(block ^color red)");
  e.add_wme_text("(block ^color blue)");
  e.add_wme_text("(block ^color yellow)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "warm"), 2);
}

TEST(ReteMatch, DeletionRetractsInstantiation) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const Wme* wa = e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "p1"), 1);
  e.remove_wme(wa);
  e.match();
  EXPECT_EQ(instantiation_count(e, "p1"), 0);
  EXPECT_EQ(e.cs().size(), 0u);
}

TEST(ReteMatch, DeletionOfRightWme) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  const Wme* wb = e.add_wme_text("(b ^v 1)");
  e.match();
  ASSERT_EQ(instantiation_count(e, "p1"), 1);
  e.remove_wme(wb);
  e.match();
  EXPECT_EQ(instantiation_count(e, "p1"), 0);
  // Memory state is fully cleaned.
  EXPECT_EQ(e.state().tables.total_right_entries(), 0u);
}

TEST(ReteMatch, ThreeLevelJoinChain) {
  Engine e;
  e.load(
      "(p chain (n ^id <a> ^next <b>) (n ^id <b> ^next <c>) (n ^id <c>) "
      "--> (halt))");
  for (int i = 0; i < 5; ++i) {
    std::string s = "(n ^id n" + std::to_string(i) + " ^next n" +
                    std::to_string(i + 1) + ")";
    e.add_wme_text(s);
  }
  e.match();
  // Chains: n0-n1-n2, n1-n2-n3, n2-n3-n4 and n3-n4-(n4 matches ^id n5? no).
  EXPECT_EQ(instantiation_count(e, "chain"), 3);
}

TEST(ReteMatch, AlphaSharingAcrossProductions) {
  Engine e;
  e.load("(p p1 (block ^color blue ^size 1) --> (halt))");
  const auto census1 = e.net().census();
  e.load("(p p2 (block ^color blue ^size 1) --> (halt))");
  const auto census2 = e.net().census();
  // Identical alpha chain: no new const nodes or alpha memories.
  EXPECT_EQ(census1.consts, census2.consts);
  EXPECT_EQ(census1.alpha_mems, census2.alpha_mems);
  EXPECT_EQ(census2.prods, census1.prods + 1);
}

TEST(ReteMatch, BetaSharingAcrossProductions) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const auto census1 = e.net().census();
  e.load("(p p2 (a ^v <x>) (b ^v <x>) --> (write two))");
  const auto census2 = e.net().census();
  EXPECT_EQ(census2.joins, census1.joins);  // join node shared
  EXPECT_EQ(e.builder().beta_nodes_shared(), 1u);
  // Both P-nodes still fire.
  e.add_wme_text("(a ^v 7)");
  e.add_wme_text("(b ^v 7)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "p1"), 1);
  EXPECT_EQ(instantiation_count(e, "p2"), 1);
}

TEST(ReteMatch, SharingDisabledCreatesSeparateNodes) {
  EngineOptions opts;
  opts.builder.share_beta = false;
  Engine e(opts);
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p p2 (a ^v <x>) (b ^v <x>) --> (halt))");
  EXPECT_EQ(e.net().census().joins, 2u);
  EXPECT_EQ(e.builder().beta_nodes_shared(), 0u);
}

TEST(ReteMatch, WildcardVariableMatchesAnything) {
  Engine e;
  e.load("(p any (block ^owner <who>) --> (halt))");
  e.add_wme_text("(block ^owner alice)");
  e.add_wme_text("(block ^owner 42)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "any"), 2);
}

TEST(ReteMatch, HashDistributesAcrossLines) {
  Engine e(recorded());
  e.load("(p j (a ^v <x>) (b ^v <x>) --> (halt))");
  for (int i = 0; i < 64; ++i) {
    e.add_wme(e.syms().intern("a"), {Value(static_cast<int64_t>(i))});
  }
  auto trace = e.match();
  // 64 distinct binding values should touch many distinct lines.
  std::set<uint32_t> lines;
  for (const TaskRecord& r : trace.tasks) {
    if (r.stats.touched_line) lines.insert(r.stats.line);
  }
  EXPECT_GT(lines.size(), 16u);
}

TEST(ReteMatch, SameBindingsShareALine) {
  Engine e(recorded());
  e.load("(p j (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  auto trace = e.match();
  // The left token and right wme for binding 1 hash to the same line: one
  // line shows both a left and a right access.
  std::set<uint32_t> left, right;
  for (const TaskRecord& r : trace.tasks) {
    if (!r.stats.touched_line) continue;
    (r.stats.line_side == Side::Left ? left : right).insert(r.stats.line);
  }
  bool both = false;
  for (const uint32_t line : left) both |= right.count(line) != 0;
  EXPECT_TRUE(both);
  EXPECT_EQ(instantiation_count(e, "j"), 1);
}

// Conjugate pairs at a join's left input (DESIGN.md §8.7), delivered one
// activation at a time: (b ^x 1) is matched into the right memory, and the
// left token (a ^x 1) arrives only by hand, so an in-order pair joins it.
struct JoinPair {
  Engine e;
  uint32_t join = 0;
  Token left;

  JoinPair() {
    e.load("(p pair (a ^x <v>) (b ^x <v>) --> (halt))");
    e.add_wme_text("(b ^x 1)");
    e.match();
    left = Token{e.add_wme_text("(a ^x 1)")};
    join = test::only_node(e.net(), NodeType::Join);
  }

  void expect_clean() {
    EXPECT_EQ(test::left_entries_of(e.state(), join), 0u);
    EXPECT_EQ(e.state().left_count(join), 0u);
    const auto rep = e.verify_network();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }
};

TEST(ReteMatch, JoinLeftDeleteBeforeInsertCancels) {
  JoinPair p;
  test::CollectingCtx ctx(p.e);
  ctx.run(p.join, Side::Left, /*add=*/false, p.left);
  EXPECT_EQ(test::left_entries_of(p.e.state(), p.join), 1u);  // the anti
  ctx.run(p.join, Side::Left, /*add=*/true, p.left);
  ctx.sweep();
  EXPECT_TRUE(ctx.emitted().empty());
  p.expect_clean();
}

TEST(ReteMatch, JoinLeftInOrderPairEmitsInsertThenDelete) {
  JoinPair p;
  test::CollectingCtx ctx(p.e);
  ctx.run(p.join, Side::Left, /*add=*/true, p.left);
  ctx.run(p.join, Side::Left, /*add=*/false, p.left);
  ctx.sweep();
  ASSERT_EQ(ctx.emitted().size(), 2u);
  EXPECT_TRUE(ctx.emitted()[0].add);
  EXPECT_FALSE(ctx.emitted()[1].add);
  EXPECT_EQ(ctx.emitted()[0].token.size(), 2u);
  EXPECT_EQ(ctx.emitted()[0].token, ctx.emitted()[1].token);
  p.expect_clean();
}

TEST(ReteMatch, ModifySemantics) {
  Engine e;
  e.load("(p grasp (block ^state free) --> (modify 1 ^state held))"
         "(p held (block ^state held) --> (halt))");
  e.add_wme_text("(block ^name b1 ^state free)");
  auto res = e.run(10);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(e.wm().size(), 1u);
}

}  // namespace
}  // namespace psme
