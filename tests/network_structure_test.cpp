// Structural properties of the compiled network: census, jumptable
// splicing, code-size model, node-id monotonicity, and cross-type value
// semantics flowing through joins.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/engine.h"
#include "lang/parser.h"
#include "rete/codesize.h"
#include "test_util.h"

namespace psme {
namespace {

TEST(NetworkCensus, CountsEveryNodeKind) {
  Engine e;
  e.load(
      "(p p1 (a ^v 1 ^w <x>) (b ^v <x>) -(c ^v <x>) "
      "-{ (d ^v <x>) (f ^v <x>) } --> (halt))");
  const auto c = e.net().census();
  EXPECT_GE(c.consts, 1u);   // the v==1 test
  EXPECT_EQ(c.alpha_mems, 5u);  // a, b, c, d, f
  EXPECT_EQ(c.joins, 3u);    // (a)(b) join + 2 NCC subnetwork joins
  EXPECT_EQ(c.nots, 1u);
  EXPECT_EQ(c.nccs, 1u);
  EXPECT_EQ(c.partners, 1u);
  EXPECT_EQ(c.prods, 1u);
  EXPECT_EQ(c.total(), e.net().node_count());
}

TEST(NetworkCensus, TwoInputCountMatchesPaperTerminology) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) -(c ^v <x>) --> (halt))");
  EXPECT_EQ(e.net().census().two_input(), 2u);  // one and, one not
}

TEST(Jumptable, SuccessorSplicingPreservesExistingEntries) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  // The amem(a) slot has one Left successor (the join).
  const Jumptable& jt = e.net().jumptable();
  // Find the alpha memory for class a by scanning nodes.
  uint32_t amem = UINT32_MAX;
  for (uint32_t i = 0; i < e.net().node_count(); ++i) {
    if (e.net().node(i)->type == NodeType::AlphaMem) {
      amem = i;
      break;
    }
  }
  ASSERT_NE(amem, UINT32_MAX);
  const size_t before = jt.peek(e.net().node(amem)->jt_slot).size();
  e.load("(p p2 (a ^v <x>) (c ^v <x>) --> (halt))");
  const size_t after = jt.peek(e.net().node(amem)->jt_slot).size();
  EXPECT_EQ(after, before + 1);  // p2's join spliced in next to p1's
}

TEST(Jumptable, IndirectionCounterAdvancesDuringMatch) {
  Engine e;
  e.load("(p p1 (a ^v <x>) --> (halt))");
  const uint64_t before = e.match_counters().indirections;
  e.add_wme_text("(a ^v 1)");
  e.match();
  EXPECT_GT(e.match_counters().indirections, before);
}

/// Run-time adds and removals edit the one live jumptable in place: adding
/// and removing a production over a new class leaves every existing
/// successor list in its own storage, not in a copy of the table.
TEST(Jumptable, RuntimeEditsLeaveExistingSlotsInPlace) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) -(c ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.match();
  const Jumptable& jt = e.net().jumptable();
  std::vector<std::pair<uint32_t, const SuccessorRef*>> lists;
  for (uint32_t s = 0; s < jt.size(); ++s) {
    if (!jt.peek(s).empty()) lists.emplace_back(s, jt.peek(s).data());
  }
  ASSERT_FALSE(lists.empty());

  Parser parser(e.syms(), e.schemas(), test::test_rhs_arena());
  Production ast =
      parser.parse_production("(p fresh (z ^v <x>) (y ^v <x>) --> (halt))");
  const Production* fresh = e.add_production_runtime(std::move(ast)).prod;
  for (const auto& [s, data] : lists) {
    EXPECT_EQ(jt.peek(s).data(), data) << "slot " << s << " after the add";
  }
  e.remove_production_runtime(fresh);
  for (const auto& [s, data] : lists) {
    EXPECT_EQ(jt.peek(s).data(), data) << "slot " << s << " after the removal";
  }
}

TEST(NodeIds, StrictlyMonotonicAcrossAdds) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const uint32_t n1 = e.net().node_count();
  e.load("(p p2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))");
  const auto& cp = e.record(e.productions().back()).compiled;
  for (const uint32_t id : cp.new_nodes) EXPECT_GE(id, n1);
  // Linearity invariant (§5.2): once sharing stops, everything is new —
  // first_new_stamp is at most the stamp of every new node.
  for (const uint32_t id : cp.new_nodes) {
    EXPECT_GE(e.net().node(id)->stamp, cp.first_new_stamp);
  }
}

TEST(CodeSize, TwoInputNodesCostPaperScaleBytes) {
  JoinNode j;
  j.tests.resize(3);
  const size_t bytes = modeled_node_bytes(j);
  EXPECT_GE(bytes, 200u);
  EXPECT_LE(bytes, 320u);  // the paper's 219-304 bytes/2-input range
  ConstNode c;
  EXPECT_LT(modeled_node_bytes(c), 64u);
}

TEST(CodeSize, GenerationWritesExactlyModeledBytes) {
  NotNode n;
  n.tests.resize(2);
  std::vector<uint8_t> image;
  generate_code(n, image);
  EXPECT_EQ(image.size(), modeled_node_bytes(n));
  // Deterministic content.
  std::vector<uint8_t> image2;
  generate_code(n, image2);
  EXPECT_EQ(image, image2);
}

TEST(ValueSemantics, IntFloatCrossTypeJoin) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme(e.syms().intern("a"), {Value(int64_t{3})});
  e.add_wme(e.syms().intern("b"), {Value(3.0)});
  e.match();
  // 3 == 3.0 in OPS5 numeric semantics, and they hash alike.
  EXPECT_EQ(test::instantiation_count(e, "p1"), 1);
}

TEST(ValueSemantics, SameTypePredicateThroughRete) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <=> <x>) --> (halt))");
  e.add_wme_text("(a ^v 5)");
  e.add_wme_text("(b ^v 9)");       // number vs number: same type
  e.add_wme_text("(b ^v word)");    // symbol vs number: different
  e.match();
  EXPECT_EQ(test::instantiation_count(e, "p1"), 1);
}

TEST(ValueSemantics, OrderingPredicateOnSymbolsFails) {
  Engine e;
  e.load("(p p1 (a ^v > 3) --> (halt))");
  e.add_wme_text("(a ^v hello)");
  e.match();
  EXPECT_EQ(test::instantiation_count(e, "p1"), 0);
}

TEST(SharePoint, FullySharedBodyPointsAtLastJoin) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.load("(p p2 (a ^v <x>) (b ^v <x>) --> (write w))");
  const auto& cp = e.record(e.productions().back()).compiled;
  const Node* sp = e.net().node(cp.share_point);
  EXPECT_EQ(sp->type, NodeType::Join);
  // Only the P-node is new.
  EXPECT_EQ(cp.new_nodes, std::vector<uint32_t>{cp.pnode});
  EXPECT_EQ(e.net().node(cp.pnode)->stamp, cp.first_new_stamp);
}

TEST(SharePoint, SingleConditionProductionPointsAtAlphaMem) {
  Engine e;
  e.load("(p p1 (a ^v 1) --> (halt))");
  const auto& cp = e.record(e.productions().back()).compiled;
  EXPECT_EQ(e.net().node(cp.share_point)->type, NodeType::AlphaMem);
}

}  // namespace
}  // namespace psme
