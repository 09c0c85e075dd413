// Focused tests of the §5.2 run-time state update machinery: alpha-frontier
// seeding, phase ordering, sequential run-time adds, update behaviour for
// every condition-element kind, and the scratch-buffered replay's
// allocation discipline.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "alloc_probe.h"
#include "analysis/verify.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "par/parallel_match.h"
#include "rete/update.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;
using test::heap_allocs;
using test::instantiation_count;

Production parse_one(Engine& e, std::string_view src) {
  static RhsArena arena;  // test-only: productions outlive the engines
  Parser p(e.syms(), e.schemas(), arena);
  return p.parse_production(src);
}

/// The §5.2 update of a structurally compiled `cp`, drained through a
/// one-worker matcher over `e`'s memories.
UpdateTasks update_on_one_worker(Engine& e, const CompiledProduction& cp) {
  ParallelMatcher one(e.net(), 1);
  one.register_agent(e.state());
  UpdateScratch scratch;
  return run_update(one, e.net(), e.state(), cp, e.wm().live(), 0, scratch);
}

TEST(AlphaFrontier, FullySharedAlphaHasNoFrontier) {
  Engine e;
  e.load("(p p1 (a ^v 1 ^w 2) --> (halt))");
  e.add_wme_text("(a ^v 1 ^w 2)");
  e.match();
  auto res = e.add_production_runtime(
      parse_one(e, "(p p2 (a ^v 1 ^w 2) --> (write dup))"));
  const auto& cp = e.record(res.prod).compiled;
  // Same alpha chain and same beta layer: only the P-node is new, no alpha
  // frontier, and phase A had nothing to seed.
  EXPECT_TRUE(cp.alpha_frontiers.empty());
  EXPECT_EQ(instantiation_count(e, "p2"), 1);
}

TEST(AlphaFrontier, PartiallySharedChainRecordsPrefix) {
  Engine e;
  e.load("(p p1 (a ^v 1) --> (halt))");
  e.add_wme_text("(a ^v 1 ^w 2)");
  e.add_wme_text("(a ^v 1 ^w 3)");
  e.add_wme_text("(a ^v 9 ^w 2)");
  e.match();
  // p2 shares the (^v 1) const node, adds a (^w 2) test below it.
  auto res = e.add_production_runtime(
      parse_one(e, "(p p2 (a ^v 1 ^w 2) --> (halt))"));
  const auto& cp = e.record(res.prod).compiled;
  ASSERT_EQ(cp.alpha_frontiers.size(), 1u);
  const auto& f = cp.alpha_frontiers[0];
  // The shared prefix carries the v==1 test, so the w-test node (the entry)
  // is only seeded with wmes passing it.
  EXPECT_EQ(f.prefix_consts.size(), 1u);
  EXPECT_EQ(instantiation_count(e, "p2"), 1);
}

TEST(AlphaFrontier, BrandNewClassSeedsEverything) {
  Engine e;
  e.load("(p p1 (a ^v 1) --> (halt))");
  e.add_wme_text("(fresh ^q 1)");
  e.add_wme_text("(fresh ^q 2)");
  e.match();
  auto res = e.add_production_runtime(
      parse_one(e, "(p p2 (fresh ^q <x>) --> (halt))"));
  const auto& cp = e.record(res.prod).compiled;
  ASSERT_EQ(cp.alpha_frontiers.size(), 1u);
  EXPECT_TRUE(cp.alpha_frontiers[0].prefix_consts.empty());
  EXPECT_EQ(instantiation_count(e, "p2"), 2);
}

TEST(UpdateSeeds, RightSeedsOnlyForOldAlphaMemories) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.match();
  // p3: shares amem(a) and amem(b) (old), adds new join + new amem(c).
  Builder& builder = e.builder();
  Production p = parse_one(
      e, "(p p3 (a ^v <x>) (c ^v <x>) --> (halt))");
  static std::vector<std::unique_ptr<Production>> keep;
  keep.push_back(std::make_unique<Production>(std::move(p)));
  CompiledProduction cp = builder.add_production(*keep.back());
  std::vector<Activation> rights;
  update_right_seeds_into(e.net(), e.state(), cp, rights, 0);
  // The new join's right input is amem(c) — brand new, so phase B has
  // nothing; amem(a) feeds the join's LEFT side, not its right.
  EXPECT_TRUE(rights.empty());
  update_on_one_worker(e, cp);
}

TEST(UpdateSeeds, LeftSeedsReplaySharePointOutputs) {
  Engine e;
  e.load("(p p1 (a ^v <x>) (b ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.add_wme_text("(a ^v 2)");
  e.add_wme_text("(b ^v 2)");
  e.add_wme_text("(c ^v 1)");
  e.match();
  Builder& builder = e.builder();
  static std::vector<std::unique_ptr<Production>> keep;
  keep.push_back(std::make_unique<Production>(parse_one(
      e, "(p p2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))")));
  CompiledProduction cp = builder.add_production(*keep.back());
  // Share point: the old (a)(b) join; its outputs are the two [a b] tokens.
  update_on_one_worker(e, cp);
  EXPECT_EQ(instantiation_count(e, "p2"), 1);  // only v=1 has a c
}

TEST(Update, SequentialRuntimeAddsStayConsistent) {
  Engine e;
  e.load("(p base (a ^v <x>) --> (halt))");
  for (int i = 0; i < 4; ++i) {
    e.add_wme_text("(a ^v " + std::to_string(i) + ")");
    e.add_wme_text("(b ^v " + std::to_string(i) + ")");
    if (i % 2 == 0) e.add_wme_text("(c ^v " + std::to_string(i) + ")");
  }
  e.match();
  // Three successive run-time additions, each sharing with the previous.
  e.add_production_runtime(parse_one(e, "(p q1 (a ^v <x>) (b ^v <x>) --> (halt))"));
  e.add_production_runtime(
      parse_one(e, "(p q2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"));
  e.add_production_runtime(
      parse_one(e, "(p q3 (a ^v <x>) (b ^v <x>) -(c ^v <x>) --> (halt))"));
  EXPECT_EQ(instantiation_count(e, "q1"), 4);
  EXPECT_EQ(instantiation_count(e, "q2"), 2);
  EXPECT_EQ(instantiation_count(e, "q3"), 2);

  // Equivalent from-scratch engine.
  Engine ref;
  ref.load("(p base (a ^v <x>) --> (halt))"
           "(p q1 (a ^v <x>) (b ^v <x>) --> (halt))"
           "(p q2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
           "(p q3 (a ^v <x>) (b ^v <x>) -(c ^v <x>) --> (halt))");
  for (int i = 0; i < 4; ++i) {
    ref.add_wme_text("(a ^v " + std::to_string(i) + ")");
    ref.add_wme_text("(b ^v " + std::to_string(i) + ")");
    if (i % 2 == 0) ref.add_wme_text("(c ^v " + std::to_string(i) + ")");
  }
  ref.match();
  EXPECT_EQ(cs_fingerprint(e), cs_fingerprint(ref));
}

TEST(Update, DynamicsAfterUpdateStayCorrect) {
  // After an update, continued add/remove traffic through the new production
  // must behave exactly like a preloaded one.
  Engine e;
  e.load("(p p1 (a ^v <x>) --> (halt))");
  const Wme* a1 = e.add_wme_text("(a ^v 1)");
  e.add_wme_text("(b ^v 1)");
  e.match();
  e.add_production_runtime(
      parse_one(e, "(p p2 (a ^v <x>) (b ^v <x>) --> (halt))"));
  ASSERT_EQ(instantiation_count(e, "p2"), 1);
  e.remove_wme(a1);
  e.match();
  EXPECT_EQ(instantiation_count(e, "p2"), 0);
  e.add_wme_text("(a ^v 1)");
  e.match();
  EXPECT_EQ(instantiation_count(e, "p2"), 1);
}

TEST(Update, DisjunctionAndPredicatesInNewProduction) {
  Engine e;
  e.load("(p p1 (a ^v <x>) --> (halt))");
  e.add_wme_text("(a ^v 1 ^color red)");
  e.add_wme_text("(a ^v 5 ^color green)");
  e.add_wme_text("(a ^v 9 ^color blue)");
  e.match();
  e.add_production_runtime(parse_one(
      e, "(p p2 (a ^v > 2 ^color << red green >>) --> (halt))"));
  EXPECT_EQ(instantiation_count(e, "p2"), 1);  // v=5/green only
}

TEST(Update, IntraTestInNewProduction) {
  Engine e;
  e.load("(p p1 (pair ^l <x>) --> (halt))");
  e.add_wme_text("(pair ^l 3 ^r 3)");
  e.add_wme_text("(pair ^l 3 ^r 4)");
  e.match();
  e.add_production_runtime(
      parse_one(e, "(p p2 (pair ^l <x> ^r <x>) --> (halt))"));
  EXPECT_EQ(instantiation_count(e, "p2"), 1);
}

TEST(Update, UpdateTaskCountScalesWithSharing) {
  // A production that shares everything but the P-node needs almost no
  // update work; a fully novel one needs to re-derive its whole beta state.
  Engine shared_engine;
  shared_engine.load("(p p1 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))");
  Engine fresh_engine;
  fresh_engine.load("(p p1 (q ^r 1) --> (halt))");
  for (Engine* e : {&shared_engine, &fresh_engine}) {
    for (int i = 0; i < 8; ++i) {
      e->add_wme_text("(a ^v " + std::to_string(i) + ")");
      e->add_wme_text("(b ^v " + std::to_string(i) + ")");
      e->add_wme_text("(c ^v " + std::to_string(i) + ")");
    }
    e->match();
  }
  const char* src = "(p p2 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (write w))";
  auto shared_res =
      shared_engine.add_production_runtime(parse_one(shared_engine, src));
  auto fresh_res =
      fresh_engine.add_production_runtime(parse_one(fresh_engine, src));
  EXPECT_LT(shared_res.update_tasks, fresh_res.update_tasks);
  EXPECT_EQ(test::instantiation_count(shared_engine, "p2"), 8);
  EXPECT_EQ(test::instantiation_count(fresh_engine, "p2"), 8);
}

TEST(Update, ScratchReplayIsAllocationFlat) {
  // A chunking system runs the §5.2 update once per chunk, forever. With a
  // persistent UpdateScratch and executor the replay must stop allocating
  // once their buffers reach high-water capacity — even for spill-length
  // tokens (six CEs, so every full token exceeds the inline cap and lands
  // in the arena) — at one worker and at two.
  for (const size_t workers : {1u, 2u}) {
    Engine e;
    e.load("(p base (a ^v <x>) (b ^v <x>) --> (halt))");
    for (const char* cls : {"a", "b", "c", "d", "e", "f"}) {
      for (int v = 0; v < 3; ++v) {
        e.add_wme_text("(" + std::string(cls) + " ^v " + std::to_string(v) +
                       ")");
      }
    }
    e.match();
    const int base_insts = instantiation_count(e, "base");

    const auto wm = e.wm().live();
    Builder& builder = e.builder();
    static std::vector<std::unique_ptr<Production>> keep;
    ParallelMatcher drain(e.net(), workers);
    drain.register_agent(e.state());
    UpdateScratch scratch;
    for (int round = 0; round < 8; ++round) {
      const std::string name = "spill" + std::to_string(round);
      keep.push_back(std::make_unique<Production>(parse_one(
          e, "(p " + name +
                 " (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) (e ^v <x>)"
                 " (f ^v <x>) --> (halt))")));
      // Structural compile may allocate (new nodes, code, and the agent's
      // per-node link states, grown beside it as CompiledNetwork::compile
      // does); only the state update itself is measured.
      CompiledProduction cp = builder.add_production(*keep.back());
      e.state().ensure_links(e.net().node_count());
      const uint64_t before = heap_allocs();
      run_update(drain, e.net(), e.state(), cp, wm, 0, scratch);
      const uint64_t used = heap_allocs() - before;
      EXPECT_EQ(instantiation_count(e, name), 3) << "workers " << workers;
      if (round >= 2) {
        // Round 0 builds the chain and fills the scratch; round 1 may still
        // grow capacity. From then on the replay is allocation-free.
        EXPECT_EQ(used, 0u) << "update " << round << " touched the heap"
                            << " (workers " << workers << ")";
      }
    }

    // The task filter dropped every activation of pre-existing stateful
    // nodes: old productions saw no duplicate matches from the re-seeded
    // wmes.
    EXPECT_EQ(instantiation_count(e, "base"), base_insts);
    EXPECT_EQ(instantiation_count(e, "spill0"), 3);
  }
}

/// Left tokens stored at node `id`, each as its wmes' timetags.
std::multiset<std::vector<uint64_t>> left_tokens(const Engine& e,
                                                 uint32_t id) {
  std::multiset<std::vector<uint64_t>> out;
  e.state().tables.for_each_left_of(id, [&](const LeftEntry& l) {
    std::vector<uint64_t> tags;
    for (const Wme* w : l.token) tags.push_back(w->timetag);
    out.insert(std::move(tags));
  });
  return out;
}

TEST(UpdateFilter, EmitDropsOldStatefulSuccessors) {
  // p1's chain is ^v 1 then ^w 2; p2 shares the ^v 1 test and hangs its own
  // alpha memory under it. So the ^v 1 node's successors are p1's ^w 2 test
  // (stateless, older than p2) and p2's alpha memory (stateful, newer).
  Engine e;
  e.load("(p p1 (a ^v 1 ^w 2) --> (halt))");
  Network& net = e.net();
  const uint64_t p2_stamp = net.next_stamp();
  e.load("(p p2 (a ^v 1) --> (halt))");
  const auto& roots =
      net.jumptable().peek(net.roots().at(e.syms().intern("a")));
  ASSERT_EQ(roots.size(), 1u);
  const Node* v1 = net.node(roots[0].node);
  ASSERT_EQ(v1->type, NodeType::Const);
  uint32_t test_w2 = UINT32_MAX;
  uint32_t mem_p2 = UINT32_MAX;
  for (const SuccessorRef& s : net.jumptable().peek(v1->jt_slot)) {
    const Node* n = net.node(s.node);
    (is_stateless(n->type) ? test_w2 : mem_p2) = s.node;
  }
  ASSERT_NE(test_w2, UINT32_MAX);
  ASSERT_NE(mem_p2, UINT32_MAX);
  ASSERT_GE(net.node(mem_p2)->stamp, p2_stamp);
  ASSERT_LT(net.node(test_w2)->stamp, p2_stamp);

  const Wme* w = e.add_wme_text("(a ^v 1 ^w 2)");
  // The nodes of the children one ^v 1 task appends to a plain context's
  // `out` under a filter starting at `min_stamp`.
  auto children = [&](uint64_t min_stamp) {
    ExecContext ctx;
    ctx.state = &e.state();
    ctx.filter.min_stamp = min_stamp;
    net.execute(Activation{v1->id, Side::Left, true, Token{w}}, ctx);
    EXPECT_EQ(ctx.stats.emits, 2u);  // counted before the filter
    std::set<uint32_t> nodes;
    for (const Activation& a : ctx.out) nodes.insert(a.node);
    return nodes;
  };
  const std::set<uint32_t> both{test_w2, mem_p2};
  EXPECT_EQ(children(0), both);         // the default filter drops nothing
  EXPECT_EQ(children(p2_stamp), both);  // the alpha memory is new
  // Above every stamp the alpha memory is old and stateful: dropped. The
  // stateless test passes at any stamp.
  EXPECT_EQ(children(net.next_stamp()), std::set<uint32_t>{test_w2});
}

/// A one-worker drain without the update's stamp filter
/// (suppress_alpha_left stays): every seed run_update makes is executed, so
/// the phase-B/C seed checks alone must pick the new nodes. A seed aimed at
/// an old node would corrupt that node's state instead of being dropped.
class UnfilteredDrain final : public Drain {
 public:
  explicit UnfilteredDrain(Engine& e) : one_(e.net(), 1) {
    one_.register_agent(e.state());
  }
  uint64_t drain(std::vector<Activation>& seeds,
                 const UpdateFilter& f) override {
    return one_.drain(seeds, {0, f.suppress_alpha_left});
  }

 private:
  ParallelMatcher one_;
};

TEST(Update, RecycledIdsDoNotReadAsOld) {
  // P1 is removed and the next production reuses its ids, all lower than
  // P2's, so id order says nothing about age. Two such productions:
  //  * P3's new join hangs under P2's first join (the share point), beside
  //    P2's second join — older than P3's join, with a greater id: the
  //    phase-C seed check must seed only P3's join.
  //  * P4's new join takes its right input from P2's (c) alpha memory —
  //    old, with a greater id than P4's nodes: the phase-B seed check must
  //    still fill the join's right memory from it.
  const std::string p1 = "(p p1 (e ^q <v>) (f ^r <v>) --> (halt))";
  const std::string p2 = "(p p2 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))";
  const std::string p3 = "(p p3 (a ^x <v>) (b ^y <v>) (d ^w <v>) --> (halt))";
  const std::string p4 = "(p p4 (b ^y <v>) (c ^z <v>) --> (halt))";
  auto seed = [](Engine& e) {
    for (int v = 0; v < 4; ++v) {
      const std::string n = std::to_string(v);
      e.add_wme_text("(a ^x " + n + ")");
      e.add_wme_text("(b ^y " + n + ")");
      if (v % 2 == 0) e.add_wme_text("(c ^z " + n + ")");
      if (v != 2) e.add_wme_text("(d ^w " + n + ")");
      e.add_wme_text("(e ^q " + n + ")");
      e.add_wme_text("(f ^r " + n + ")");
    }
    e.match();
  };
  static std::vector<std::unique_ptr<Production>> keep;
  for (const auto& [src, name] : {std::pair{p3, "p3"}, std::pair{p4, "p4"}}) {
    Engine ref;
    ref.load(p2 + src);
    seed(ref);
    const int expected = instantiation_count(ref, name);
    ASSERT_GT(expected, 0);

    for (const bool filtered : {true, false}) {
      SCOPED_TRACE(std::string(name) + (filtered ? " engine" : " unfiltered"));
      Engine e;
      const auto loaded = e.load(p1 + p2);
      seed(e);
      const CompiledProduction& cp2 = e.record(loaded[1]).compiled;
      std::vector<uint32_t> joins2;
      for (const uint32_t id : cp2.new_nodes) {
        if (e.net().node(id)->type == NodeType::Join) joins2.push_back(id);
      }
      ASSERT_EQ(joins2.size(), 2u);
      const auto j1_before = left_tokens(e, joins2[0]);
      const auto j2_before = left_tokens(e, joins2[1]);
      const int p2_before = instantiation_count(e, "p2");
      e.remove_production_runtime(loaded[0]);

      const CompiledProduction* cp = nullptr;
      CompiledProduction direct;
      if (filtered) {
        cp = &e.record(e.add_production_runtime(parse_one(e, src)).prod)
                  .compiled;
      } else {
        keep.push_back(std::make_unique<Production>(parse_one(e, src)));
        direct = e.builder().add_production(*keep.back());
        cp = &direct;
        UnfilteredDrain drain(e);
        UpdateScratch scratch;
        run_update(drain, e.net(), e.state(), *cp, e.wm().live(), 0, scratch);
      }
      // Every new node sits in a freed P1 id, below all of P2's ids.
      for (const uint32_t id : cp->new_nodes) {
        EXPECT_LT(id, cp2.new_nodes.front());
      }
      EXPECT_EQ(left_tokens(e, joins2[0]), j1_before);
      EXPECT_EQ(left_tokens(e, joins2[1]), j2_before);
      EXPECT_EQ(instantiation_count(e, "p2"), p2_before);
      EXPECT_EQ(instantiation_count(e, name), expected);
      if (filtered) {
        const auto rep = e.verify_network();
        EXPECT_TRUE(rep.ok()) << rep.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace psme
