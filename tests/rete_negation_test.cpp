// Negated condition elements (not-nodes) and Soar conjunctive negations
// (NCC node pairs), including incremental add/delete behaviour.
#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "engine/engine.h"
#include "test_util.h"

namespace psme {
namespace {

using test::instantiation_count;

TEST(Negation, AbsenceMatches) {
  Engine e;
  e.load("(p clear (block ^name <b>) -(block ^on <b>) --> (halt))");
  e.add_wme_text("(block ^name b1)");
  e.add_wme_text("(block ^name b2)");
  e.add_wme_text("(block ^name b3 ^on b1)");
  e.match();
  // b1 is covered; b2 and b3 are clear.
  EXPECT_EQ(instantiation_count(e, "clear"), 2);
}

TEST(Negation, AddingBlockerRetracts) {
  Engine e;
  e.load("(p clear (block ^name <b>) -(block ^on <b>) --> (halt))");
  e.add_wme_text("(block ^name b1)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "clear"), 1);
  e.add_wme_text("(block ^name b2 ^on b1)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "clear"), 1);  // b2 clear, b1 covered
  EXPECT_EQ(test::matched_productions(e).count("clear"), 1u);
}

TEST(Negation, RemovingBlockerReasserts) {
  Engine e;
  e.load("(p clear (block ^name <b>) -(block ^on <b>) --> (halt))");
  e.add_wme_text("(block ^name b1)");
  const Wme* blocker = e.add_wme_text("(block ^name b2 ^on b1)");
  e.match();
  // b1 blocked; b2 clear.
  EXPECT_EQ(instantiation_count(e, "clear"), 1);
  e.remove_wme(blocker);
  e.match();
  EXPECT_EQ(instantiation_count(e, "clear"), 1);  // b1 clear again, b2 gone
}

TEST(Negation, MultipleBlockersCounted) {
  Engine e;
  e.load("(p clear (block ^name <b>) -(block ^on <b>) --> (halt))");
  e.add_wme_text("(block ^name b1)");
  const Wme* x = e.add_wme_text("(block ^name b2 ^on b1)");
  const Wme* y = e.add_wme_text("(block ^name b3 ^on b1)");
  e.match();
  // b1 blocked twice; b2 and b3 are clear.
  EXPECT_EQ(instantiation_count(e, "clear"), 2);
  // Removing one of two blockers must not reassert b1 (count 2 -> 1), and
  // the removed block's own instantiation goes away.
  e.remove_wme(x);
  e.match();
  EXPECT_EQ(instantiation_count(e, "clear"), 1);  // b3 clear; b1 still blocked
  e.remove_wme(y);
  e.match();
  EXPECT_EQ(instantiation_count(e, "clear"), 1);  // only b1 remains, now clear
}

TEST(Negation, NegatedFirstAmongSeveral) {
  Engine e;
  e.load(
      "(p p1 (goal ^want <x>) -(have ^item <x>) (shop ^sells <x>) "
      "--> (halt))");
  e.add_wme_text("(goal ^want milk)");
  e.add_wme_text("(shop ^sells milk)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "p1"), 1);
  e.add_wme_text("(have ^item milk)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "p1"), 0);
}

TEST(Ncc, ConjunctiveNegationBlocksOnlyWhenAllMatch) {
  Engine e;
  e.load(
      "(p safe (area ^name <a>) -{ (alarm ^area <a>) (alarm-active ^area <a>) "
      "} --> (halt))");
  e.add_wme_text("(area ^name lobby)");
  e.add_wme_text("(alarm ^area lobby)");  // alarm exists but not active
  e.match();
  EXPECT_EQ(instantiation_count(e, "safe"), 1);
  e.add_wme_text("(alarm-active ^area lobby)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "safe"), 0);
}

TEST(Ncc, RemovalOfOneConjunctReasserts) {
  Engine e;
  e.load(
      "(p safe (area ^name <a>) -{ (alarm ^area <a>) (alarm-active ^area <a>) "
      "} --> (halt))");
  e.add_wme_text("(area ^name lobby)");
  e.add_wme_text("(alarm ^area lobby)");
  const Wme* active = e.add_wme_text("(alarm-active ^area lobby)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "safe"), 0);
  e.remove_wme(active);
  e.match();
  EXPECT_EQ(instantiation_count(e, "safe"), 1);
}

TEST(Ncc, IndependentPerBinding) {
  Engine e;
  e.load(
      "(p safe (area ^name <a>) -{ (alarm ^area <a>) (alarm-active ^area <a>) "
      "} --> (halt))");
  e.add_wme_text("(area ^name lobby)");
  e.add_wme_text("(area ^name vault)");
  e.add_wme_text("(alarm ^area vault)");
  e.add_wme_text("(alarm-active ^area vault)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "safe"), 1);  // lobby only
}

TEST(Ncc, SubnetworkJoinWithinGroup) {
  // The two NCC conditions join with each other through a group-local
  // variable.
  Engine e;
  e.load(
      "(p no-pair (item ^name <i>) "
      "-{ (tag ^item <i> ^label <l>) (label ^name <l> ^kind bad) } "
      "--> (halt))");
  e.add_wme_text("(item ^name apple)");
  e.add_wme_text("(tag ^item apple ^label l1)");
  e.add_wme_text("(label ^name l1 ^kind good)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "no-pair"), 1);
  e.add_wme_text("(label ^name l1 ^kind bad)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "no-pair"), 0);
}

TEST(Ncc, DeleteOwnerToken) {
  Engine e;
  e.load(
      "(p safe (area ^name <a>) -{ (alarm ^area <a>) (alarm-active ^area <a>) "
      "} --> (halt))");
  const Wme* area = e.add_wme_text("(area ^name lobby)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "safe"), 1);
  e.remove_wme(area);
  e.match();
  EXPECT_EQ(instantiation_count(e, "safe"), 0);
  EXPECT_EQ(e.state().tables.total_left_entries(), 0u);
}

// Conjugate pairs at a not-node's and an NCC owner's left input (DESIGN.md
// §8.7), delivered one activation at a time. Nothing blocks the token, so
// an in-order pair passes it through: an insert, then a delete.
struct ConjugatePair {
  Engine e;
  uint32_t node = 0;
  Token left;

  ConjugatePair(const char* production, NodeType type) {
    e.load(production);
    left = Token{e.add_wme_text("(block ^name b1)")};
    node = test::only_node(e.net(), type);
  }

  void expect_clean() {
    EXPECT_EQ(test::left_entries_of(e.state(), node), 0u);
    const auto rep = e.verify_network();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }

  void expect_cancels() {
    test::CollectingCtx ctx(e);
    ctx.run(node, Side::Left, /*add=*/false, left);
    EXPECT_EQ(test::left_entries_of(e.state(), node), 1u);  // the anti
    ctx.run(node, Side::Left, /*add=*/true, left);
    EXPECT_TRUE(ctx.emitted.empty());
    expect_clean();
  }

  void expect_in_order() {
    test::CollectingCtx ctx(e);
    ctx.run(node, Side::Left, /*add=*/true, left);
    ctx.run(node, Side::Left, /*add=*/false, left);
    ASSERT_EQ(ctx.emitted.size(), 2u);
    EXPECT_TRUE(ctx.emitted[0].add);
    EXPECT_FALSE(ctx.emitted[1].add);
    EXPECT_EQ(ctx.emitted[0].token, left);
    EXPECT_EQ(ctx.emitted[1].token, left);
    expect_clean();
  }
};

constexpr const char* kNotProd =
    "(p clear (block ^name <b>) -(cover ^on <b>) --> (halt))";
constexpr const char* kNccProd =
    "(p safe (block ^name <b>) -{ (cover ^on <b>) (cover-active ^on <b>) } "
    "--> (halt))";

TEST(Negation, LeftDeleteBeforeInsertCancels) {
  ConjugatePair(kNotProd, NodeType::Not).expect_cancels();
}

TEST(Negation, LeftInOrderPairEmitsInsertThenDelete) {
  ConjugatePair(kNotProd, NodeType::Not).expect_in_order();
}

TEST(Ncc, OwnerDeleteBeforeInsertCancels) {
  ConjugatePair(kNccProd, NodeType::Ncc).expect_cancels();
}

TEST(Ncc, OwnerInOrderPairEmitsInsertThenDelete) {
  ConjugatePair(kNccProd, NodeType::Ncc).expect_in_order();
}

TEST(Negation, NotNodePassesThroughLaterJoins) {
  Engine e;
  e.load(
      "(p p1 (a ^v <x>) -(blocker ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.add_wme_text("(a ^v 2)");
  e.add_wme_text("(b ^v 2)");
  e.add_wme_text("(blocker ^v 2)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "p1"), 1);
}

}  // namespace
}  // namespace psme
