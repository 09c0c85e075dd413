// Constrained bilinear network organization (§6.2, Figure 6-8): equivalence
// with the linear network on match results, and critical-path reduction on
// long-chain productions.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/verify.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "psim/report.h"
#include "rete/bilinear.h"
#include "test_util.h"

namespace psme {
namespace {

/// A long-chain production in the style of Figure 6-7: a goal/state prefix
/// followed by `n_groups` independent feature groups hanging off the state.
std::string long_chain_production(int n_groups, int group_size) {
  std::ostringstream os;
  os << "(p monitor (goal ^ps <p>) (ps ^name strips ^id <p>) "
        "(goal ^state <s>)";
  for (int g = 0; g < n_groups; ++g) {
    for (int k = 0; k < group_size; ++k) {
      os << " (feat ^state <s> ^group g" << g << " ^slot " << k << " ^val <v"
         << g << "_" << k << ">)";
    }
  }
  os << " --> (halt))";
  return os.str();
}

void add_long_chain_wmes(Engine& e, int n_groups, int group_size) {
  e.add_wme_text("(goal ^ps p1 ^state s1)");
  e.add_wme_text("(ps ^name strips ^id p1)");
  for (int g = 0; g < n_groups; ++g) {
    for (int k = 0; k < group_size; ++k) {
      std::ostringstream w;
      w << "(feat ^state s1 ^group g" << g << " ^slot " << k << " ^val v" << g
        << k << ")";
      e.add_wme_text(w.str());
    }
  }
}

TEST(Bilinear, CountsInstantiationsLikeLinear) {
  const std::string src = long_chain_production(3, 3);

  // Linear network.
  Engine lin;
  lin.load(src);
  add_long_chain_wmes(lin, 3, 3);
  lin.match();
  ASSERT_EQ(test::instantiation_count(lin, "monitor"), 1);

  // Bilinear network over the same production.
  Engine bi;
  Parser parser(bi.syms(), bi.schemas(), test::test_rhs_arena());
  Production prod = parser.parse_production(src);
  BilinearOptions opts;
  opts.prefix_ces = 3;
  opts.group_size = 3;
  bi.state().sink = &bi.cs();
  const auto built = build_bilinear(bi.net(), prod, opts);
  EXPECT_GT(built.pnode, 0u);
  add_long_chain_wmes(bi, 3, 3);
  bi.match();
  EXPECT_EQ(bi.cs().size(), 1u);
}

TEST(Bilinear, RetractsOnDelete) {
  const std::string src = long_chain_production(2, 2);
  Engine bi;
  Parser parser(bi.syms(), bi.schemas(), test::test_rhs_arena());
  Production prod = parser.parse_production(src);
  BilinearOptions opts;
  opts.prefix_ces = 3;
  opts.group_size = 2;
  const auto built = build_bilinear(bi.net(), prod, opts);
  (void)built;
  bi.state().sink = &bi.cs();
  add_long_chain_wmes(bi, 2, 2);
  const Wme* goal = bi.wm().live().front();
  bi.match();
  ASSERT_EQ(bi.cs().size(), 1u);
  bi.remove_wme(goal);
  bi.match();
  EXPECT_EQ(bi.cs().size(), 0u);
}

TEST(Bilinear, ShortensCriticalPath) {
  // 4 groups x 5 CEs = 20 feature CEs + 3 prefix CEs = 23-CE chain.
  const int groups = 4, gsize = 5;
  const std::string src = long_chain_production(groups, gsize);
  CostModel cm;

  Engine lin(test::recorded());
  lin.load(src);
  add_long_chain_wmes(lin, groups, gsize);
  const auto lin_trace = lin.match();
  const auto lin_cp = critical_path(lin_trace, cm);

  Engine bi(test::recorded());
  Parser parser(bi.syms(), bi.schemas(), test::test_rhs_arena());
  Production prod = parser.parse_production(src);
  BilinearOptions opts;
  opts.prefix_ces = 3;
  opts.group_size = gsize;
  build_bilinear(bi.net(), prod, opts);
  bi.state().sink = &bi.cs();
  add_long_chain_wmes(bi, groups, gsize);
  const auto bi_trace = bi.match();
  const auto bi_cp = critical_path(bi_trace, cm);

  ASSERT_EQ(lin.cs().size(), 1u);
  ASSERT_EQ(bi.cs().size(), 1u);
  EXPECT_LT(bi_cp.length, lin_cp.length);
  EXPECT_LT(bi_cp.cost_us, lin_cp.cost_us);
}

TEST(Bilinear, BalancedTreeShorterThanLinearCombine) {
  const int groups = 6, gsize = 3;
  const std::string src = long_chain_production(groups, gsize);
  CostModel cm;

  auto run = [&](bool tree) {
    Engine e(test::recorded());
    Parser parser(e.syms(), e.schemas(), test::test_rhs_arena());
    Production prod = parser.parse_production(src);
    BilinearOptions opts;
    opts.prefix_ces = 3;
    opts.group_size = gsize;
    opts.balanced_tree = tree;
    build_bilinear(e.net(), prod, opts);
    e.state().sink = &e.cs();
    add_long_chain_wmes(e, groups, gsize);
    const auto trace = e.match();
    EXPECT_EQ(e.cs().size(), 1u);
    return critical_path(trace, cm).length;
  };
  EXPECT_LE(run(true), run(false));
}

// Conjugate pairs at a BJoin (DESIGN.md §8.7), one per side: group 0's
// tokens arrive Left and store with entry tag 1, group 1's arrive Right with
// tag 2. The other side's token is matched in first, so an in-order pair
// joins it; the delivered side's feature wme is only made, never matched.
struct BJoinPair {
  Engine e;
  Production prod;
  uint32_t bjoin = 0;
  Side side;
  Token token;  // prefix ++ the delivered group's feature wme

  explicit BJoinPair(Side delivered) : side(delivered) {
    Parser parser(e.syms(), e.schemas(), test::test_rhs_arena());
    prod = parser.parse_production(long_chain_production(2, 1));
    BilinearOptions opts;
    opts.prefix_ces = 3;
    opts.group_size = 1;
    build_bilinear(e.net(), prod, opts);
    bjoin = test::only_node(e.net(), NodeType::BJoin);
    e.state().sink = &e.cs();
    const Wme* goal = e.add_wme_text("(goal ^ps p1 ^state s1)");
    const Wme* ps = e.add_wme_text("(ps ^name strips ^id p1)");
    const char* g0 = "(feat ^state s1 ^group g0 ^slot 0 ^val v00)";
    const char* g1 = "(feat ^state s1 ^group g1 ^slot 0 ^val v10)";
    const bool left = side == Side::Left;
    e.add_wme_text(left ? g1 : g0);
    e.match();
    const Wme* made = e.add_wme_text(left ? g0 : g1);
    TokenArena& arena = e.state().arena;
    token = token_extend(
        token_extend(token_extend(Token{goal}, ps, arena, 0), goal, arena, 0),
        made, arena, 0);
  }

  [[nodiscard]] int tag() const { return side == Side::Left ? 1 : 2; }

  void expect_clean() {
    EXPECT_EQ(test::left_entries_of(e.state(), bjoin, tag()), 0u);
    EXPECT_EQ(test::left_entries_of(e.state(), bjoin, 3 - tag()), 1u);
    const auto rep = analysis::verify_network(e.net(), &e.state(), {});
    EXPECT_TRUE(rep.ok()) << rep.to_string();
  }

  void expect_cancels() {
    test::CollectingCtx ctx(e);
    ctx.run(bjoin, side, /*add=*/false, token);
    EXPECT_EQ(test::left_entries_of(e.state(), bjoin, tag()), 1u);  // anti
    ctx.run(bjoin, side, /*add=*/true, token);
    EXPECT_TRUE(ctx.emitted.empty());
    expect_clean();
  }

  void expect_in_order() {
    test::CollectingCtx ctx(e);
    ctx.run(bjoin, side, /*add=*/true, token);
    ctx.run(bjoin, side, /*add=*/false, token);
    ASSERT_EQ(ctx.emitted.size(), 2u);
    EXPECT_TRUE(ctx.emitted[0].add);
    EXPECT_FALSE(ctx.emitted[1].add);
    EXPECT_EQ(ctx.emitted[0].token.size(), 5u);
    EXPECT_EQ(ctx.emitted[0].token, ctx.emitted[1].token);
    expect_clean();
  }
};

TEST(Bilinear, LeftDeleteBeforeInsertCancels) {
  BJoinPair(Side::Left).expect_cancels();
}

TEST(Bilinear, RightDeleteBeforeInsertCancels) {
  BJoinPair(Side::Right).expect_cancels();
}

TEST(Bilinear, LeftInOrderPairEmitsInsertThenDelete) {
  BJoinPair(Side::Left).expect_in_order();
}

TEST(Bilinear, RightInOrderPairEmitsInsertThenDelete) {
  BJoinPair(Side::Right).expect_in_order();
}

TEST(Bilinear, RejectsNegatedConditions) {
  Engine e;
  Parser parser(e.syms(), e.schemas(), test::test_rhs_arena());
  Production prod =
      parser.parse_production("(p bad (a ^v <x>) -(b ^v <x>) --> (halt))");
  EXPECT_THROW(build_bilinear(e.net(), prod, BilinearOptions{}),
               std::runtime_error);
}

TEST(Bilinear, RejectsCrossGroupVariables) {
  Engine e;
  Parser parser(e.syms(), e.schemas(), test::test_rhs_arena());
  // <y> is bound in the first feature group and used in the second.
  Production prod = parser.parse_production(
      "(p bad (goal ^state <s>) "
      "(feat ^state <s> ^val <y>) (feat ^state <s> ^slot 1) "
      "(feat ^state <s> ^val <y> ^slot 2) (feat ^state <s> ^slot 3) "
      "--> (halt))");
  BilinearOptions opts;
  opts.prefix_ces = 1;
  opts.group_size = 2;
  EXPECT_THROW(build_bilinear(e.net(), prod, opts), std::runtime_error);
}

}  // namespace
}  // namespace psme
