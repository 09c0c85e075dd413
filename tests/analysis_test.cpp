// The static analysis subsystem: network verifier on clean and deliberately
// corrupted networks (the seeded-corruption corpus — every corruption must
// be caught with a precise, distinct diagnostic), the production cost
// linter, and the golden-file test for the JSON report on a paper task.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "analysis/cost_lint.h"
#include "analysis/report_json.h"
#include "analysis/verify.h"
#include "engine/engine.h"
#include "tasks/registry.h"

namespace psme {
namespace {

using analysis::Check;
using analysis::VerifyReport;

/// First violation of `check` whose message contains `needle` (any node).
const analysis::Violation* find_violation(const VerifyReport& rep, Check check,
                                          std::string_view needle = "") {
  for (const auto& v : rep.violations) {
    if (v.check == check && v.message.find(needle) != std::string::npos) {
      return &v;
    }
  }
  return nullptr;
}

/// Same, pinned to a specific node.
const analysis::Violation* find_violation(const VerifyReport& rep, Check check,
                                          uint32_t node,
                                          std::string_view needle = "") {
  for (const auto& v : rep.violations) {
    if (v.check == check && v.node == node &&
        v.message.find(needle) != std::string::npos) {
      return &v;
    }
  }
  return nullptr;
}

uint32_t find_node(const Network& net, NodeType type, uint32_t skip = 0) {
  for (uint32_t i = 0; i < net.node_count(); ++i) {
    if (net.node(i) != nullptr && net.node(i)->type == type) {
      if (skip == 0) return i;
      --skip;
    }
  }
  ADD_FAILURE() << "no node of type " << node_type_name(type);
  return UINT32_MAX;
}

// ---------------------------------------------------------------------------
// Clean networks verify clean.
// ---------------------------------------------------------------------------

TEST(Verifier, SimpleProductionIsClean) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const VerifyReport rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  for (uint32_t i = 0; i < e.net().node_count(); ++i) {
    EXPECT_TRUE(rep.nodes[i].reachable) << "node " << i;
    EXPECT_TRUE(rep.nodes[i].owned) << "node " << i;
  }
  // root -> amem -> join -> p-node is the longest chain.
  EXPECT_EQ(rep.max_depth, 3u);
}

TEST(Verifier, NegationAndNccAreClean) {
  Engine e;
  e.load(
      "(p p1 (a ^v 1 ^w <x>) (b ^v <x>) -(c ^v <x>) "
      "-{ (d ^v <x>) (f ^v <x>) } --> (halt))");
  const VerifyReport rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  // The NCC partner's subnetwork is owned through the owner->partner link.
  const uint32_t partner = find_node(e.net(), NodeType::NccPartner);
  EXPECT_TRUE(rep.nodes[partner].owned);
}

TEST(Verifier, SharedProductionsAreClean) {
  Engine e;
  e.load(
      "(p p1 (a ^v <x>) (b ^v <x>) --> (halt))\n"
      "(p p2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))");
  const VerifyReport rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

TEST(Verifier, PaperTasksAreClean) {
  for (const std::string& name : task_names()) {
    Engine e;
    e.load(make_task(name).productions);
    const VerifyReport rep = e.verify_network();
    EXPECT_TRUE(rep.ok()) << name << ": " << rep.to_string();
    EXPECT_GT(rep.max_depth, 0u);
    EXPECT_GT(rep.max_fan_out, 0u);
  }
}

TEST(Verifier, CleanAfterMatchingAndRuntimeAdd) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.match();
  EXPECT_TRUE(e.verify_network().ok());

  RhsArena arena;
  Parser parser(e.syms(), e.schemas(), arena);
  auto parsed =
      parser.parse_file("(p p2 (a ^v <x>) (c ^v <x>) --> (halt))");
  ASSERT_EQ(parsed.size(), 1u);
  e.add_production_runtime(std::move(parsed.front()));
  const VerifyReport rep = e.verify_network();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
}

// ---------------------------------------------------------------------------
// The seeded-corruption corpus: each corruption caught, precisely.
// ---------------------------------------------------------------------------

TEST(Corruption, OrphanNodeIsUnreachableAndUnowned) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const uint32_t orphan = e.net().make_node<ConstNode>()->id;  // never spliced
  const VerifyReport rep = e.verify_network();
  ASSERT_FALSE(rep.ok());
  const auto* reach = find_violation(rep, Check::Reachability, orphan);
  ASSERT_NE(reach, nullptr);
  EXPECT_NE(reach->message.find("unreachable"), std::string::npos);
  const auto* owned = find_violation(rep, Check::Ownership, orphan);
  ASSERT_NE(owned, nullptr);
  EXPECT_NE(owned->message.find("not owned"), std::string::npos);
}

TEST(Corruption, DanglingJumptableTargetIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const uint32_t amem = find_node(e.net(), NodeType::AlphaMem);
  e.net().jumptable().add(e.net().node(amem)->jt_slot,
                          SuccessorRef{9999, Side::Left});
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::Resolution, amem);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("nonexistent node 9999"), std::string::npos);
}

TEST(Corruption, JumptableCycleIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const uint32_t join = find_node(e.net(), NodeType::Join);
  const uint32_t pnode = find_node(e.net(), NodeType::Prod);
  // Splice the P-node's slot back up into the join: join -> pnode -> join.
  e.net().jumptable().add(e.net().node(pnode)->jt_slot,
                          SuccessorRef{join, Side::Left});
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::Acyclicity);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("cycle"), std::string::npos);
}

TEST(Corruption, MismatchedNegationPairIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) -{ (d ^v <x>) (f ^v <x>) } --> (halt))");
  const uint32_t ncc = find_node(e.net(), NodeType::Ncc);
  const uint32_t pnode = find_node(e.net(), NodeType::Prod);
  static_cast<NccNode*>(e.net().node(ncc))->partner = pnode;
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::NegationPair, ncc);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("not an NCC partner"), std::string::npos);
}

TEST(Corruption, PartnerPrefixMismatchIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) -{ (d ^v <x>) (f ^v <x>) } --> (halt))");
  const uint32_t partner = find_node(e.net(), NodeType::NccPartner);
  static_cast<NccPartnerNode*>(e.net().node(partner))->prefix_len += 1;
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::NegationPair);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("prefix_len"), std::string::npos);
}

TEST(Corruption, BrokenSharingArityIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const uint32_t join = find_node(e.net(), NodeType::Join);
  // Claim a longer left token than the predecessor emits — the invariant
  // shared nodes rely on ("shared nodes agree on variable bindings").
  static_cast<TwoInputNode*>(e.net().node(join))->left_arity += 1;
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::Bindings, join);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("left_arity"), std::string::npos);
}

TEST(Corruption, JoinTestOutOfTokenRangeIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const uint32_t join = find_node(e.net(), NodeType::Join);
  auto* t = static_cast<TwoInputNode*>(e.net().node(join));
  ASSERT_FALSE(t->tests.empty());
  t->tests[0].left_ce = 99;
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::Bindings, join);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("left CE 99"), std::string::npos);
}

TEST(Corruption, RightEdgeIntoAlphaPartIsReported) {
  Engine e;
  e.load("(p p1 (a ^v 1) (b ^v <x>) --> (halt))");
  const uint32_t cnode = find_node(e.net(), NodeType::Const);
  const uint32_t amem = find_node(e.net(), NodeType::AlphaMem);
  e.net().jumptable().add(e.net().node(amem)->jt_slot,
                          SuccessorRef{cnode, Side::Right});
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::SideRef, cnode);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("Right-side predecessor"), std::string::npos);
}

TEST(Corruption, StolenJumptableSlotIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const uint32_t join = find_node(e.net(), NodeType::Join);
  const uint32_t pnode = find_node(e.net(), NodeType::Prod);
  e.net().node(pnode)->jt_slot = e.net().node(join)->jt_slot;
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::SlotOwnership);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("owned by both"), std::string::npos);
}

TEST(Corruption, AlphaMemFieldNamingNonMemoryIsReported) {
  Engine e;
  e.load("(p p1 (a ^v 1) (b ^v <x>) --> (halt))");
  const uint32_t join = find_node(e.net(), NodeType::Join);
  const uint32_t cnode = find_node(e.net(), NodeType::Const);
  static_cast<TwoInputNode*>(e.net().node(join))->alpha_mem = cnode;
  const VerifyReport rep = e.verify_network();
  const auto* v =
      find_violation(rep, Check::TwoInputWiring, join, "not an alpha memory");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("const"), std::string::npos);
}

TEST(Corruption, NullProductionPointerIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) --> (halt))");
  const uint32_t pnode = find_node(e.net(), NodeType::Prod);
  static_cast<ProdNode*>(e.net().node(pnode))->prod = nullptr;
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::ProdRecord, pnode);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("null production"), std::string::npos);
}

TEST(Corruption, StaleTableEntryIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.match();  // stores the token as a left entry at the join
  bool corrupted = false;
  auto& tables = e.state().tables;
  for (size_t i = 0; i < tables.line_count() && !corrupted; ++i) {
    auto& line = tables.line_at(i);
    SpinGuard g(line.lock);
    for (auto& entry : line.left) {
      entry.node_id = 4242;  // simulates an unsplice that forgot its memories
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "expected a left entry after matching";
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::Resolution);
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("stale left-table entry"), std::string::npos);
  EXPECT_NE(v->message.find("4242"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Botched-unsplice corpus: each way a production removal can go wrong leaves
// a needle referencing a freed id the verifier must find (the removal
// oracle). Each corruption is planted before any addition reuses the id.
// ---------------------------------------------------------------------------

TEST(Corruption, DanglingUnspliceRefIsReported) {
  Engine e;
  e.load(
      "(p keep (a ^v <x>) (b ^v <x>) --> (halt))\n"
      "(p victim (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))");
  const uint32_t victim_pnode =
      e.record(e.productions()[1]).compiled.pnode;
  e.remove_production_runtime(e.productions()[1]);
  ASSERT_TRUE(e.verify_network().ok());  // the real removal is clean

  // Re-splice a ref to the freed P-node: the signature of an unsplice
  // that missed a slot.
  const uint32_t join = find_node(e.net(), NodeType::Join);
  e.net().jumptable().add(e.net().node(join)->jt_slot,
                          SuccessorRef{victim_pnode, Side::Left});
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::Resolution, join,
                                 "dangling unsplice");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("removed node"), std::string::npos);
}

TEST(Corruption, OrphanedNccPartnerIsReported) {
  Engine e;
  e.load("(p p1 (a ^v <x>) -{ (b ^v <x>) (c ^v <x>) } --> (halt))");
  const uint32_t owner = find_node(e.net(), NodeType::Ncc);
  const uint32_t pnode = find_node(e.net(), NodeType::Prod);

  // Simulate a removal that freed the NCC owner (and its successor P-node)
  // but forgot the partner: the partner survives pointing at a freed id.
  std::vector<uint8_t> dead(e.net().node_count(), 0);
  dead[owner] = 1;
  dead[pnode] = 1;
  e.net().jumptable().erase_refs(dead);
  e.net().free_node(pnode);
  e.net().free_node(owner);

  const VerifyReport rep = e.verify_network();
  const auto* v =
      find_violation(rep, Check::NegationPair, "orphaned NCC partner");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("removed node"), std::string::npos);
}

TEST(Corruption, LeftoverMemoryEntryAfterRemovalIsReported) {
  Engine e;
  e.load(
      "(p keep (a ^v <x>) (b ^v <x>) --> (halt))\n"
      "(p victim (a ^v <x>) (c ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.match();  // a left entry waits at each production's join

  // The victim's own (unshared) join dies with it.
  const auto& cp = e.record(e.productions()[1]).compiled;
  uint32_t victim_join = UINT32_MAX;
  for (const uint32_t id : cp.new_nodes) {
    if (e.net().node(id)->type == NodeType::Join) victim_join = id;
  }
  ASSERT_NE(victim_join, UINT32_MAX);
  e.remove_production_runtime(e.productions()[1]);
  ASSERT_TRUE(e.verify_network().ok());

  // Resurrect a memory entry for the dead join: the signature of a drain
  // that missed a line.
  bool corrupted = false;
  auto& tables = e.state().tables;
  for (size_t i = 0; i < tables.line_count() && !corrupted; ++i) {
    auto& line = tables.line_at(i);
    SpinGuard g(line.lock);
    for (auto& entry : line.left) {
      entry.node_id = victim_join;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "expected a surviving left entry after removal";
  const VerifyReport rep = e.verify_network();
  const auto* v = find_violation(rep, Check::Resolution,
                                 "memory not drained before removal");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("removed node"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Link-state corpus (right unlinking, DESIGN.md §16): a join's link state
// and its memories must agree at every quiescent point. Each corruption is
// planted in a matched engine and caught with its own diagnostic.
// ---------------------------------------------------------------------------

/// An engine whose one join (a ⋈ b on ^v) holds `a_wmes` left tokens and
/// whose b memory holds two wmes.
Engine& join_engine(Engine& e, int a_wmes) {
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  for (int i = 0; i < a_wmes; ++i) e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.add_wme_text("(b ^v 2)");
  e.match();
  return e;
}

TEST(Corruption, StaleRightEntryAtUnlinkedJoinIsReported) {
  Engine e;
  join_engine(e, 0);
  const uint32_t join = find_node(e.net(), NodeType::Join);
  ASSERT_TRUE(e.verify_network().ok()) << e.verify_network().to_string();
  ASSERT_FALSE(e.state().linked(join)) << "no left token: the join is unlinked";
  // A sweep that left an entry behind: the next relink would duplicate it.
  const auto& j = static_cast<const JoinNode&>(*e.net().node(join));
  const Wme* w = e.wm().live().back();
  auto& line = e.state().tables.line_for(j.hash_right(w));
  {
    SpinGuard g(line.lock);
    line.right.push_back(RightEntry{j.hash_right(w), join, w},
                         e.state().tables.right_pool());
  }
  const VerifyReport rep = e.verify_network();
  EXPECT_NE(find_violation(rep, Check::JoinLink, join,
                           "unlinked join holds 1 right entries"),
            nullptr)
      << rep.to_string();
}

TEST(Corruption, LinkedJoinMissingRightEntryIsReported) {
  Engine e;
  join_engine(e, 1);
  const uint32_t join = find_node(e.net(), NodeType::Join);
  ASSERT_TRUE(e.verify_network().ok()) << e.verify_network().to_string();
  ASSERT_TRUE(e.state().linked(join));
  // A relink that skipped the alpha memory's last wme.
  const auto& j = static_cast<const JoinNode&>(*e.net().node(join));
  const Wme* w = e.wm().live().back();
  auto& line = e.state().tables.line_for(j.hash_right(w));
  {
    SpinGuard g(line.lock);
    for (auto it = line.right.begin(); it != line.right.end(); ++it) {
      if (it->node_id == join && it->wme == w) {
        line.right.erase(it, e.state().tables.right_pool());
        break;
      }
    }
  }
  const VerifyReport rep = e.verify_network();
  EXPECT_NE(find_violation(rep, Check::JoinLink, join,
                           "linked join holds 0 right entries for alpha wme"),
            nullptr)
      << rep.to_string();
}

TEST(Corruption, UnlinkedJoinWithLeftTokenIsReported) {
  Engine e;
  join_engine(e, 1);
  const uint32_t join = find_node(e.net(), NodeType::Join);
  ASSERT_TRUE(e.state().linked(join));
  // An unlink of a join that still holds a token: its right activations
  // would stop while the token waits for them.
  e.state().link(join).linked.store(false);
  const VerifyReport rep = e.verify_network();
  EXPECT_NE(find_violation(rep, Check::JoinLink, join,
                           "unlinked join holds 1 live left entries"),
            nullptr)
      << rep.to_string();
}

TEST(Corruption, UnlinkedJoinInALinkedStateIsReported) {
  EngineOptions linked;
  linked.record_traces = true;  // every join stays linked
  Engine e(linked);
  join_engine(e, 0);
  const uint32_t join = find_node(e.net(), NodeType::Join);
  ASSERT_TRUE(e.verify_network().ok()) << e.verify_network().to_string();
  e.state().link(join).linked.store(false);
  const VerifyReport rep = e.verify_network();
  EXPECT_NE(find_violation(rep, Check::JoinLink, join,
                           "keeps every join linked"),
            nullptr)
      << rep.to_string();
}

// Every corpus corruption yields a *distinct* leading diagnostic: the same
// network state never maps two corruptions onto one catch-all message.
TEST(Corruption, DiagnosticsAreDistinctPerCheck) {
  const Check corpus[] = {
      Check::Reachability,  Check::Resolution,   Check::Acyclicity,
      Check::NegationPair,  Check::Bindings,     Check::SideRef,
      Check::SlotOwnership, Check::TwoInputWiring, Check::ProdRecord,
      Check::JoinLink,
  };
  std::set<std::string> names;
  for (const Check c : corpus) names.insert(analysis::check_name(c));
  EXPECT_EQ(names.size(), std::size(corpus));
}

// ---------------------------------------------------------------------------
// Cost linter.
// ---------------------------------------------------------------------------

TEST(CostLinter, ChainDepthAndCountsAreExact) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  const auto lint = analysis::lint_costs(e.net(), e.all_records());
  ASSERT_EQ(lint.productions.size(), 1u);
  const auto& pc = lint.productions[0];
  EXPECT_EQ(pc.name, "p1");
  // root -> amem(a) -> join -> p-node.
  EXPECT_EQ(pc.chain_depth, 3u);
  EXPECT_EQ(pc.two_input_nodes, 1u);
  EXPECT_EQ(pc.shared_nodes, 0u);
  EXPECT_GT(pc.worst_case_cost_us, 0.0);
  EXPECT_GT(pc.chain_cost_us, 0.0);
  EXPECT_TRUE(lint.ok());
}

TEST(CostLinter, LongerChainCostsMore) {
  Engine e;
  e.load(
      "(p shallow (a ^v <x>) (b ^v <x>) --> (halt))\n"
      "(p deep (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) (f ^v <x>) "
      "--> (halt))");
  const auto lint = analysis::lint_costs(e.net(), e.all_records());
  ASSERT_EQ(lint.productions.size(), 2u);
  EXPECT_GT(lint.productions[1].chain_depth, lint.productions[0].chain_depth);
  EXPECT_GT(lint.productions[1].chain_cost_us,
            lint.productions[0].chain_cost_us);
  EXPECT_GT(lint.productions[1].worst_case_cost_us,
            lint.productions[0].worst_case_cost_us);
}

TEST(CostLinter, BudgetsFlagOffenders) {
  Engine e;
  e.load(
      "(p shallow (a ^v <x>) (b ^v <x>) --> (halt))\n"
      "(p deep (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) (f ^v <x>) "
      "--> (halt))");
  analysis::CostBudget budget;
  budget.max_depth = 4;  // shallow chains to depth 3; deep to depth 6
  const auto lint = analysis::lint_costs(e.net(), e.all_records(), {}, budget);
  ASSERT_EQ(lint.productions.size(), 2u);
  EXPECT_FALSE(lint.productions[0].over_budget());
  ASSERT_TRUE(lint.productions[1].over_budget());
  EXPECT_EQ(lint.productions[1].flags[0], "depth");
  EXPECT_EQ(lint.flagged, 1u);
  EXPECT_FALSE(lint.ok());

  analysis::CostBudget tight;
  tight.max_cost_us = 1;  // everything is over
  const auto lint2 = analysis::lint_costs(e.net(), e.all_records(), {}, tight);
  EXPECT_EQ(lint2.flagged, 2u);
  EXPECT_EQ(lint2.productions[0].flags[0], "cost");
}

TEST(CostLinter, SharedNodesAreCountedPerProduction) {
  Engine e;
  e.load(
      "(p p1 (a ^v <x>) (b ^v <x>) --> (halt))\n"
      "(p p2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))");
  const auto lint = analysis::lint_costs(e.net(), e.all_records());
  ASSERT_EQ(lint.productions.size(), 2u);
  EXPECT_EQ(lint.productions[0].shared_nodes, 0u);
  EXPECT_GT(lint.productions[1].shared_nodes, 0u);  // reuses p1's join
}

TEST(CostLinter, ChurnedNetworkLintsLikeAFreshOne) {
  // Removal frees ids and the next additions reuse them LIFO, so after
  // churn a node can hold a lower id than its own predecessor. The linter
  // walks creation stamps, so the same productions must price exactly the
  // same in a churned network as in a fresh one.
  const std::string resident = "(p r1 (a ^v <x>) (b ^v <x>) --> (halt))\n";
  const std::string later =
      "(p deep (a ^v <x>) (b ^v <x>) (c ^v <x> ^w 1) (d ^v <x>) --> (halt))\n"
      "(p neg (c ^v <x>) -(d ^v <x>) -{(a ^v <x>) (f ^v <x>)} --> (halt))";
  Engine churned;
  churned.load(resident);
  for (int i = 0; i < 3; ++i) {
    const auto tmp = churned.load("(p tmp" + std::to_string(i) +
                                  " (e ^v <x>) (f ^v <x>) (g ^v <x>)"
                                  " (h ^v <x>) --> (halt))");
    churned.remove_production_runtime(tmp[0]);
  }
  churned.load(later);
  Engine fresh;
  fresh.load(resident + later);

  // The churn is real: some splice runs from a higher id to a lower one.
  bool backward = false;
  const Network& net = churned.net();
  for (uint32_t i = 0; i < net.node_count(); ++i) {
    if (net.node(i) == nullptr) continue;
    for (const SuccessorRef& s : net.jumptable().peek(net.node(i)->jt_slot)) {
      backward |= s.node < i;
    }
  }
  ASSERT_TRUE(backward);

  const auto a = analysis::lint_costs(churned.net(), churned.all_records());
  const auto b = analysis::lint_costs(fresh.net(), fresh.all_records());
  ASSERT_EQ(a.productions.size(), b.productions.size());
  for (size_t i = 0; i < a.productions.size(); ++i) {
    const auto& x = a.productions[i];
    const auto& y = b.productions[i];
    SCOPED_TRACE(y.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.nodes, y.nodes);
    EXPECT_EQ(x.two_input_nodes, y.two_input_nodes);
    EXPECT_EQ(x.shared_nodes, y.shared_nodes);
    EXPECT_EQ(x.chain_depth, y.chain_depth);
    EXPECT_EQ(x.chain_cost_us, y.chain_cost_us);
    EXPECT_EQ(x.worst_case_cost_us, y.worst_case_cost_us);
    EXPECT_EQ(x.flags, y.flags);
  }
  EXPECT_EQ(a.flagged, b.flagged);
}

// ---------------------------------------------------------------------------
// Golden-file test: the JSON report for a paper task is byte-stable. The
// model is integer-exact in doubles, so this holds across compilers.
// Regenerate with: PSME_UPDATE_GOLDEN=1 ./analysis_test
// ---------------------------------------------------------------------------

TEST(ReportJson, EightPuzzleGoldenFile) {
  Engine e;
  e.load(make_task("eight-puzzle").productions);
  const VerifyReport verify = e.verify_network();
  const auto lint = analysis::lint_costs(e.net(), e.all_records());
  const std::string json =
      analysis::report_json("eight-puzzle", e.net(), verify, lint);

  const std::string path =
      std::string(PSME_GOLDEN_DIR) + "/cost_lint_eight_puzzle.json";
  if (std::getenv("PSME_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with PSME_UPDATE_GOLDEN=1 to create)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(json, want.str());
}

TEST(ReportJson, ViolationsAreSerialized) {
  Engine e;
  e.load("(p p1 (a ^v <x>) --> (halt))");
  e.net().make_node<ConstNode>();  // orphan
  const VerifyReport verify = e.verify_network();
  const auto lint = analysis::lint_costs(e.net(), e.all_records());
  const std::string json = analysis::report_json("t", e.net(), verify, lint);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"reachability\""), std::string::npos);
}

}  // namespace
}  // namespace psme
