// Run-time production addition (§5.1) and state update (§5.2).
//
// The central property: adding a production to a live network and updating
// its memories must leave the conflict set exactly as if the production had
// been loaded before any wme arrived ("incremental add == rebuild from
// scratch").
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/verify.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "query/query.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;
using test::instantiation_count;

Production parse_one(Engine& e, std::string_view src) {
  Parser p(e.syms(), e.schemas(), test::test_rhs_arena());
  return p.parse_production(src);
}

TEST(AddProduction, MatchesExistingWmes) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.add_wme_text("(b ^v 2)");
  e.match();
  ASSERT_EQ(e.cs().size(), 1u);

  auto res = e.add_production_runtime(
      parse_one(e, "(p p2 (a ^v <x>) (b ^v <x>) --> (write hi))"));
  EXPECT_EQ(instantiation_count(e, "p2"), 1);
  EXPECT_GT(res.update_tasks, 0u);
}

TEST(AddProduction, SharedPrefixGetsNoDuplicateState) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.match();
  const size_t lefts_before = e.state().tables.total_left_entries();

  // p2 shares (a)(b) join, extends with (c).
  e.add_production_runtime(parse_one(
      e, "(p p2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"));
  // The shared join's memories must not have grown.
  // New left entries belong only to the new join (one token: [a1 b1]).
  EXPECT_EQ(e.state().tables.total_left_entries(), lefts_before + 1);
  EXPECT_EQ(instantiation_count(e, "p2"), 0);
  e.add_wme_text("(c ^v 1)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "p2"), 1);
  EXPECT_EQ(instantiation_count(e, "p1"), 1);  // p1 unaffected
}

TEST(AddProduction, FullyDuplicateProductionSharesEverything) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.match();
  const auto census1 = e.net().census();
  e.add_production_runtime(
      parse_one(e, "(p p1-copy (a ^v <x>) (b ^v <x>) --> (write w))"));
  const auto census2 = e.net().census();
  EXPECT_EQ(census2.joins, census1.joins);
  EXPECT_EQ(census2.prods, census1.prods + 1);
  EXPECT_EQ(instantiation_count(e, "p1-copy"), 1);
}

TEST(AddProduction, NewAlphaChainUpdatedFromWm) {
  Engine e;
  e.load("(p p1 (a ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(zed ^q 5)");  // class unknown to any production yet
  e.match();
  e.add_production_runtime(parse_one(e, "(p p2 (zed ^q 5) --> (halt))"));
  EXPECT_EQ(instantiation_count(e, "p2"), 1);
}

TEST(AddProduction, NegatedConditionUpdated) {
  Engine e;
  e.load("(p p0 (a ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(a ^v 2)");
  e.add_wme_text("(blocker ^v 1)");
  e.match();
  e.add_production_runtime(parse_one(
      e, "(p p1 (a ^v <x>) -(blocker ^v <x>) --> (halt))"));
  EXPECT_EQ(instantiation_count(e, "p1"), 1);  // only v=2 unblocked
  // Dynamics still work after the update.
  e.add_wme_text("(blocker ^v 2)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "p1"), 0);
}

TEST(AddProduction, NccConditionUpdated) {
  Engine e;
  e.load("(p p0 (area ^name <a>) --> (halt))");
  e.add_wme_text("(area ^name lobby)");
  e.add_wme_text("(area ^name vault)");
  e.add_wme_text("(alarm ^area vault)");
  e.add_wme_text("(alarm-active ^area vault)");
  e.match();
  e.add_production_runtime(parse_one(
      e,
      "(p safe (area ^name <a>) -{ (alarm ^area <a>) (alarm-active ^area "
      "<a>) } --> (halt))"));
  EXPECT_EQ(instantiation_count(e, "safe"), 1);  // lobby
}

/// Incremental-vs-rebuild equivalence over a batch of productions and wmes.
class IncrementalEquivalence
    : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEquivalence, MatchesRebuild) {
  const int split = GetParam();
  const std::vector<std::string> prods = {
      "(p q1 (a ^v <x>) (b ^v <x>) --> (halt))",
      "(p q2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))",
      "(p q3 (a ^v <x>) -(c ^v <x>) --> (halt))",
      "(p q4 (b ^v <x>) (c ^w <y>) --> (halt))",
      "(p q5 (a ^v <x>) -{ (b ^v <x>) (c ^v <x>) } --> (halt))",
  };
  auto add_wmes = [](Engine& e) {
    for (int i = 0; i < 6; ++i) {
      const auto v = std::to_string(i % 3);
      if (i % 2 == 0) e.add_wme_text("(a ^v " + v + ")");
      if (i % 3 != 1) e.add_wme_text("(b ^v " + v + ")");
      if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    }
    e.match();
  };

  // Reference: everything loaded up front.
  Engine ref;
  for (const auto& p : prods) ref.load(p);
  add_wmes(ref);

  // Incremental: first `split` productions up front, wmes, then the rest at
  // run time with the §5.2 update.
  Engine inc;
  for (int i = 0; i < split; ++i) inc.load(prods[static_cast<size_t>(i)]);
  add_wmes(inc);
  for (size_t i = static_cast<size_t>(split); i < prods.size(); ++i) {
    inc.add_production_runtime(parse_one(inc, prods[i]));
  }

  EXPECT_EQ(cs_fingerprint(ref), cs_fingerprint(inc));
}

INSTANTIATE_TEST_SUITE_P(Splits, IncrementalEquivalence,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(AddProduction, CompileProducesCodeAndTiming) {
  Engine e;
  e.load("(p p0 (a ^v <x>) --> (halt))");
  auto res = e.add_production_runtime(parse_one(
      e, "(p big (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) --> (halt))"));
  EXPECT_GT(res.code_bytes, 0u);
  EXPECT_GE(res.compile_seconds, 0.0);
  const auto& cp = e.record(res.prod).compiled;
  EXPECT_FALSE(cp.new_nodes.empty());
  // Creation stamps: every new node is younger than every shared one.
  for (const uint32_t id : cp.new_nodes) {
    EXPECT_GE(e.net().node(id)->stamp, cp.first_new_stamp);
  }
  for (const uint32_t id : cp.shared_nodes) {
    EXPECT_LT(e.net().node(id)->stamp, cp.first_new_stamp);
  }
}

TEST(AddProduction, SharingReducesGeneratedCode) {
  // Compile the same chunk-like production into (a) a network that already
  // contains its prefix and (b) an empty network; shared compilation must
  // generate less code.
  const std::string prefix_src =
      "(p base (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))";
  const std::string chunk_src =
      "(p chunk (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) --> (halt))";

  Engine shared;
  shared.load(prefix_src);
  auto res_shared = shared.add_production_runtime(parse_one(shared, chunk_src));

  Engine fresh;
  fresh.load("(p other (q ^r 1) --> (halt))");  // unrelated network
  auto res_fresh = fresh.add_production_runtime(parse_one(fresh, chunk_src));

  EXPECT_LT(res_shared.code_bytes, res_fresh.code_bytes);
}

/// load() of several productions into a live working memory runs each
/// one's §5.2 update before compiling the next, so a later production's
/// nodes never take an earlier production's update on top of their own.
TEST(AddProduction, MultiProductionLoadIntoLiveWmMatchesRebuild) {
  const std::string base = "(p p0 (a ^v <x>) --> (halt))";
  const std::string src =
      "(p p1 (a ^v <x>) (b ^v <x>) --> (halt))"
      "(p p2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))";
  auto seed = [](Engine& e) {
    e.add_wme_text("(a ^v 1)");
    e.add_wme_text("(b ^v 1)");
    e.add_wme_text("(c ^v 1)");
    e.match();
  };
  Engine live;
  live.load(base);
  seed(live);
  live.load(src);

  Engine rebuilt;
  rebuilt.load(base);
  rebuilt.load(src);
  seed(rebuilt);

  EXPECT_EQ(cs_fingerprint(live), cs_fingerprint(rebuilt));
  EXPECT_EQ(instantiation_count(live, "p2"), 1);
  EXPECT_EQ(live.state().tables.total_left_entries(),
            rebuilt.state().tables.total_left_entries());
  EXPECT_EQ(live.state().tables.total_right_entries(),
            rebuilt.state().tables.total_right_entries());
}

/// A production the builder rejects (a predicate on a variable no CE binds)
/// must leave the network as it was — no alpha chain, no class-root slot, no
/// record — whether it arrives through load() or as a query cue through the
/// run-time add.
TEST(AddProduction, RejectedProductionLeavesNetworkUnchanged) {
  Engine e;
  e.load("(p good (a ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(block ^name b1 ^size 3)");
  e.match();
  const Network& net = e.net();
  const uint32_t nodes = net.node_count();
  const uint32_t live = net.live_node_count();
  const size_t slots = net.jumptable().size();
  const size_t prods = e.productions().size();
  auto expect_unchanged = [&](const char* path) {
    EXPECT_EQ(net.node_count(), nodes) << path;
    EXPECT_EQ(net.live_node_count(), live) << path;
    EXPECT_EQ(net.jumptable().size(), slots) << path;
    EXPECT_EQ(e.productions().size(), prods) << path;
    const analysis::VerifyReport rep = e.verify_network();
    EXPECT_TRUE(rep.ok()) << path << "\n" << rep.to_string();
  };

  EXPECT_THROW(e.load("(p bad (a ^v <x>) (b ^w > <y>) --> (halt))"),
               std::runtime_error);
  expect_unchanged("load");
  // The first CE joins nothing, but its predicate must not be dropped.
  EXPECT_THROW(e.load("(p bad-first (a ^v > <y>) --> (halt))"),
               std::runtime_error);
  expect_unchanged("load, first CE");

  QuerySession q(e);
  EXPECT_THROW(q.begin("(block ^name <n>) (block ^size > <x>)"),
               std::runtime_error);
  EXPECT_FALSE(q.active());
  expect_unchanged("query cue");
  EXPECT_THROW(q.begin("(block ^size > <x>)"), std::runtime_error);
  EXPECT_FALSE(q.active());
  expect_unchanged("query cue, first CE");

  // The network goes on taking productions.
  e.load("(p after (a ^v <x>) (block ^size > <x>) --> (halt))");
  EXPECT_EQ(instantiation_count(e, "after"), 1);
  EXPECT_TRUE(e.verify_network().ok());
}

}  // namespace
}  // namespace psme
