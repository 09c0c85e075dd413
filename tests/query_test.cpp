// Transient-query subsystem (src/query) + run-time production removal.
//
// The query path is the removal path's hottest client: every ask() installs
// a temporary production, reads the match out of the agent's memories, and
// tears it back out. These tests pin the scoring semantics (full / partial /
// none), the graph-match content, and — the tentpole — that removal restores
// the network and every agent's state exactly (node counts, jumptable
// footprint, verifier-clean), including when the victim shares nodes with
// survivors.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/verify.h"
#include "engine/agent_group.h"
#include "engine/engine.h"
#include "query/query.h"

namespace psme {
namespace {

/// Blocks-world episode shared by most tests: a three-block stack (b2 on
/// blue b1, b3 on b2) and a free gripper.
void seed_stack(Engine& e) {
  e.add_wme_text("(block ^name b1 ^color blue)");
  e.add_wme_text("(block ^name b2 ^color red ^on b1)");
  e.add_wme_text("(block ^name b3 ^color green ^on b2)");
  e.add_wme_text("(gripper ^name g1 ^state free)");
  e.match();
}

TEST(QueryScore, FullMatchScoresAllCes) {
  Engine e;
  seed_stack(e);
  QuerySession q(e);
  const QueryResult r =
      q.ask("(block ^name <b> ^color blue) (block ^on <b> ^name <t>)");
  EXPECT_EQ(r.positive_ces, 2u);
  EXPECT_EQ(r.score, 2u);
  EXPECT_TRUE(r.full());
  ASSERT_EQ(r.matches.size(), 1u);
}

TEST(QueryScore, PartialMatchReportsDeepestJoin) {
  Engine e;
  seed_stack(e);
  QuerySession q(e);
  // First two CEs join (b2 on blue b1); nothing holds b2, so CE 3 fails.
  const QueryResult r = q.ask(
      "(block ^name <b> ^color blue) (block ^on <b> ^name <t>) "
      "(gripper ^holding <t>)");
  EXPECT_EQ(r.positive_ces, 3u);
  EXPECT_EQ(r.score, 2u);
  EXPECT_FALSE(r.full());
  EXPECT_TRUE(r.matches.empty());
}

TEST(QueryScore, FirstCeOnlyScoresOne) {
  Engine e;
  seed_stack(e);
  QuerySession q(e);
  // CE 1 has candidates (blocks exist) but no block sits on a green one.
  const QueryResult r =
      q.ask("(block ^name <b> ^color green) (block ^on <b> ^color yellow)");
  EXPECT_EQ(r.positive_ces, 2u);
  EXPECT_EQ(r.score, 1u);
}

TEST(QueryScore, NoMatchScoresZero) {
  Engine e;
  seed_stack(e);
  QuerySession q(e);
  const QueryResult r = q.ask("(pyramid ^name <p>)");
  EXPECT_EQ(r.positive_ces, 1u);
  EXPECT_EQ(r.score, 0u);
  EXPECT_TRUE(r.matches.empty());
}

TEST(QueryMatches, GraphMatchContentInCeOrder) {
  Engine e;
  seed_stack(e);
  QuerySession q(e);
  const QueryResult r = q.ask("(block ^name <b>) (block ^on <b>)");
  // Two stacked pairs: (b1, b2-on-b1) and (b2, b3-on-b2).
  ASSERT_EQ(r.matches.size(), 2u);
  for (const QueryMatch& m : r.matches) {
    ASSERT_EQ(m.wmes.size(), 2u);
    // CE order: wme 0 is the support, wme 1 sits on it (^on binds <b>).
    const Symbol support = m.wmes[0]->field(0).sym();
    bool on_ok = false;
    for (size_t f = 0; f < m.wmes[1]->fields.size(); ++f) {
      if (m.wmes[1]->fields[f] == Value(support)) on_ok = true;
    }
    EXPECT_TRUE(on_ok);
  }
}

TEST(QuerySessionApi, CueRestrictionsAndPhaseErrors) {
  Engine e;
  seed_stack(e);
  QuerySession q(e);
  EXPECT_THROW(q.begin("(block ^name <b>) -(block ^on <b>)"),
               std::invalid_argument);
  EXPECT_FALSE(q.active());  // a rejected cue leaves no active production
  EXPECT_THROW(q.end(), std::logic_error);
  q.begin("(block ^name <b>)");
  EXPECT_THROW(q.begin("(gripper ^state free)"), std::logic_error);
  q.end();
}

TEST(QuerySessionApi, DestructorRemovesActiveCue) {
  Engine e;
  seed_stack(e);
  const uint32_t live_before = e.net().live_node_count();
  {
    QuerySession q(e);
    q.begin("(pyramid ^kind <k>) (pyramid ^on <k>)");
    EXPECT_GT(e.net().live_node_count(), live_before);
  }
  EXPECT_EQ(e.net().live_node_count(), live_before);
}

TEST(Removal, QueryChurnLeavesNoResidue) {
  Engine e;
  e.load("(p resident (block ^name <b> ^color blue) (block ^on <b>) "
         "--> (halt))");
  seed_stack(e);

  // The rotation: a cue sharing the resident's whole chain, a cue with
  // fresh alpha + beta structure, and a cue sharing only the alpha part.
  const char* cues[3] = {
      "(block ^name <b> ^color blue) (block ^on <b>)",
      "(pyramid ^name <p>) (slab ^under <p>)",
      "(gripper ^state free) (block ^name <b>)",
  };

  QuerySession q(e);
  // Warmup: one full rotation, so every alpha memory and jumptable slot the
  // steady state needs exists once (recycled thereafter) before baselines.
  for (const char* cue : cues) q.ask(cue);

  const uint32_t live_before = e.net().live_node_count();
  const size_t jt_before = e.net().jumptable().size();
  const uint32_t alpha_before = e.net().alpha_mem_count();
  const size_t prods_before = e.productions().size();

  for (int i = 0; i < 50; ++i) q.ask(cues[i % 3]);

  EXPECT_EQ(e.net().live_node_count(), live_before);
  EXPECT_EQ(e.net().alpha_mem_count(), alpha_before);
  EXPECT_EQ(e.productions().size(), prods_before);
  EXPECT_EQ(e.net().jumptable().size(), jt_before);

  const auto rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Removal, SharedNodesSurviveVictimRemoval) {
  Engine e;
  const auto prods = e.load(
      "(p keep (block ^name <b> ^color blue) (block ^on <b>) --> (halt))"
      "(p victim (block ^name <b> ^color blue) (block ^on <b>) "
      "(gripper ^state free) --> (halt))");
  ASSERT_EQ(prods.size(), 2u);
  seed_stack(e);

  // Both productions share the 2-CE prefix; removal of `victim` must keep
  // the shared joins and their memory contents intact for `keep`.
  const auto res = e.remove_production_runtime(prods[1]);
  EXPECT_GE(res.nodes_removed, 2u);  // its join + P-node at minimum
  const auto rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();

  // `keep` still matches — through the shared prefix, with no rebuild.
  bool keep_live = false;
  for (const Instantiation* inst : e.cs().all()) {
    if (inst->pnode->prod == prods[0]) keep_live = true;
    EXPECT_NE(inst->pnode->prod, prods[1]);
  }
  EXPECT_TRUE(keep_live);

  // And it keeps matching new wmes arriving after the removal.
  e.add_wme_text("(block ^name b9 ^color blue)");
  e.add_wme_text("(block ^name b10 ^on b9)");
  e.match();
  size_t keep_count = 0;
  for (const Instantiation* inst : e.cs().all()) {
    if (inst->pnode->prod == prods[0]) ++keep_count;
  }
  EXPECT_GE(keep_count, 2u);
}

TEST(Removal, UnknownProductionThrows) {
  Engine e, other;
  const auto prods =
      other.load("(p foreign (block ^name <b>) --> (halt))");
  ASSERT_EQ(prods.size(), 1u);
  EXPECT_THROW(e.remove_production_runtime(prods[0]), std::out_of_range);
}

TEST(Removal, RemoveLastProductionEmptiesNetwork) {
  Engine e;
  const auto prods = e.load(
      "(p only (block ^name <b> ^color blue) -(gripper ^holding <b>) "
    "--> (halt))");
  seed_stack(e);
  EXPECT_GT(e.cs().size(), 0u);

  const auto res = e.remove_production_runtime(prods[0]);
  EXPECT_GT(res.instantiations, 0u);
  EXPECT_EQ(e.net().live_node_count(), 0u);
  EXPECT_EQ(e.productions().size(), 0u);
  EXPECT_EQ(e.cs().size(), 0u);
  const auto rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();

  // Freed ids are reused: a production added after the removal lives in
  // the removed one's ids, and the id space does not grow. The §5.2 update
  // must still fill its memories from the live WM — its filter reads
  // creation stamps, which are never reused, not ids.
  const uint32_t id_space = e.net().node_count();
  e.load("(p reborn (block ^name <b>) --> (halt))");
  const auto& rec = e.record(e.productions().back());
  for (const uint32_t id : rec.compiled.new_nodes) EXPECT_LT(id, id_space);
  EXPECT_EQ(e.net().node_count(), id_space);
  const Node* am = e.net().node(rec.compiled.share_point);
  ASSERT_EQ(am->type, NodeType::AlphaMem);
  {
    const AlphaMemState& ams =
        e.state().alpha(static_cast<const AlphaMemNode*>(am)->mem_index);
    SpinGuard g(ams.lock);
    EXPECT_EQ(ams.wmes.size(), 3u);  // b1, b2, b3
  }
  e.match();
  EXPECT_EQ(e.cs().size(), 3u);
  const auto rep_reborn = e.verify_network();
  EXPECT_TRUE(rep_reborn.ok()) << rep_reborn.to_string();
}

TEST(Removal, NccProductionUnsplicesPairAndDrains) {
  Engine e;
  const auto prods = e.load(
      "(p ncc-victim (block ^name <b>) "
      "-{(block ^on <b>) (gripper ^holding <b>)} --> (halt))");
  seed_stack(e);
  const auto res = e.remove_production_runtime(prods[0]);
  EXPECT_EQ(e.net().live_node_count(), 0u);
  EXPECT_GT(res.nodes_removed, 3u);  // alpha chain + ncc + partner + P-node
  const auto rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Removal, MultiAgentDrainTouchesEveryAgent) {
  AgentGroupOptions gopts;
  gopts.workers = 2;
  AgentGroup group(gopts);
  Engine& a0 = group.add_agent();
  Engine& a1 = group.add_agent();
  const auto prods = group.load(
      "(p shared-victim (block ^name <b> ^color blue) (block ^on <b>) "
      "--> (halt))");
  seed_stack(a0);
  // Agent 1 gets a different episode with its own full match.
  a1.add_wme_text("(block ^name x1 ^color blue)");
  a1.add_wme_text("(block ^name x2 ^on x1)");
  a1.add_wme_text("(block ^name x3 ^on x1)");
  a1.match();
  EXPECT_GT(a0.cs().size(), 0u);
  EXPECT_GT(a1.cs().size(), 0u);

  // Removal through ONE agent drains BOTH agents' memories and conflict
  // sets (the drain is network-wide; state is per-agent).
  const auto res = a0.remove_production_runtime(prods[0]);
  EXPECT_GE(res.instantiations, 3u);  // 1 from a0, 2 from a1
  EXPECT_EQ(a0.cs().size(), 0u);
  EXPECT_EQ(a1.cs().size(), 0u);
  const auto rep0 = a0.verify_network();
  EXPECT_TRUE(rep0.ok()) << rep0.to_string();
  const auto rep1 = a1.verify_network();
  EXPECT_TRUE(rep1.ok()) << rep1.to_string();
}

TEST(QueryMultiAgent, SessionsSeeOnlyTheirOwnEpisode) {
  AgentGroupOptions gopts;
  gopts.workers = 2;
  AgentGroup group(gopts);
  Engine& a0 = group.add_agent();
  Engine& a1 = group.add_agent();
  seed_stack(a0);
  a1.add_wme_text("(pyramid ^name p1)");
  a1.match();

  QuerySession q0(a0), q1(a1);
  const QueryResult r0 = q0.ask("(pyramid ^name <p>)");
  const QueryResult r1 = q1.ask("(pyramid ^name <p>)");
  EXPECT_EQ(r0.score, 0u);  // a0's episode has no pyramid
  EXPECT_EQ(r1.score, 1u);
  ASSERT_EQ(r1.matches.size(), 1u);
}

}  // namespace
}  // namespace psme
