// Engine-level behaviour: OPS5 match-select-fire loop, LEX conflict
// resolution, RHS actions, working memory bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "base/rng.h"
#include "engine/engine.h"
#include "test_util.h"

namespace psme {
namespace {

TEST(WorkingMemory, AddFindRemove) {
  WorkingMemory wm;
  SymbolTable syms;
  const Symbol cls = syms.intern("a");
  const Wme* w = wm.add(cls, {Value(int64_t{1})});
  EXPECT_EQ(wm.size(), 1u);
  EXPECT_EQ(wm.find(cls, {Value(int64_t{1})}), w);
  EXPECT_TRUE(wm.remove(w));
  EXPECT_EQ(wm.find(cls, {Value(int64_t{1})}), nullptr);
  EXPECT_FALSE(wm.remove(w));  // already gone
  wm.end_cycle();
}

TEST(WorkingMemory, TimetagsIncrease) {
  WorkingMemory wm;
  SymbolTable syms;
  const Wme* a = wm.add(syms.intern("a"), {});
  const Wme* b = wm.add(syms.intern("a"), {});
  EXPECT_LT(a->timetag, b->timetag);
}

TEST(WorkingMemory, DuplicateContentsAllowed) {
  WorkingMemory wm;
  SymbolTable syms;
  const Symbol cls = syms.intern("a");
  wm.add(cls, {Value(int64_t{1})});
  wm.add(cls, {Value(int64_t{1})});
  EXPECT_EQ(wm.size(), 2u);
}

TEST(Engine, HaltStopsRun) {
  Engine e;
  e.load("(p stop (go ^now yes) --> (halt))");
  e.add_wme_text("(go ^now yes)");
  const auto res = e.run(100);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(res.cycles, 1u);
}

TEST(Engine, WriteCollectsOutput) {
  Engine e;
  e.load("(p w (msg ^text <t>) --> (write saying <t>) (remove 1))");
  e.add_wme_text("(msg ^text hello)");
  e.run(10);
  ASSERT_EQ(e.output().size(), 1u);
  EXPECT_EQ(e.output()[0], "saying hello");
}

TEST(Engine, CountdownLoopWithCompute) {
  Engine e;
  e.load(
      "(p count (counter ^n { > 0 <n> }) --> "
      "(modify 1 ^n (compute <n> - 1)))"
      "(p done (counter ^n 0) --> (write done) (halt))");
  e.add_wme_text("(counter ^n 5)");
  const auto res = e.run(100);
  EXPECT_TRUE(res.halted);
  EXPECT_EQ(res.cycles, 6u);  // 5 decrements + halt
}

TEST(Engine, LexPrefersRecentWmes) {
  Engine e;
  e.load("(p p1 (a ^v <x>) --> (write got <x>))");
  e.add_wme_text("(a ^v old)");
  e.add_wme_text("(a ^v new)");
  e.match();
  const Instantiation* pick = e.cs().select_lex();
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(pick->token[0]->field(0).to_string(e.syms()), "new");
}

TEST(Engine, LexPrefersSpecificProduction) {
  Engine e;
  // Same wme satisfies both; tie on recency resolved by specificity.
  e.load("(p loose (a ^v <x>) --> (write loose))"
         "(p tight (a ^v <x> ^w 1) --> (write tight))");
  e.add_wme_text("(a ^v 7 ^w 1)");
  e.match();
  const Instantiation* pick = e.cs().select_lex();
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(e.syms().name(pick->pnode->prod->name), "tight");
}

TEST(Engine, RefractionFiredInstantiationDoesNotRefire) {
  Engine e;
  e.load("(p once (a ^v 1) --> (write fired))");
  e.add_wme_text("(a ^v 1)");
  const auto res = e.run(10);
  EXPECT_EQ(res.cycles, 1u);
  EXPECT_EQ(e.output().size(), 1u);
}

TEST(Engine, RemoveActionRetractsDownstream) {
  Engine e;
  e.load("(p eat (hungry ^who <w>) (food ^for <w>) --> (remove 2))");
  e.add_wme_text("(hungry ^who me)");
  e.add_wme_text("(food ^for me)");
  const auto res = e.run(10);
  EXPECT_EQ(res.cycles, 1u);
  EXPECT_EQ(e.wm().size(), 1u);  // food gone
}

TEST(Engine, GensymCreatesFreshSymbols) {
  Engine e;
  e.load(
      "(p spawn (seed ^n <n>) --> (bind <id> (genatom item)) "
      "(make thing ^id <id>) (remove 1))");
  e.add_wme_text("(seed ^n 1)");
  e.add_wme_text("(seed ^n 2)");
  e.run(10);
  // Two things with distinct gensym ids.
  int things = 0;
  std::set<std::string> ids;
  for (const Wme* w : e.wm().live()) {
    if (e.syms().name(w->cls) == "thing") {
      ++things;
      ids.insert(w->field(0).to_string(e.syms()));
    }
  }
  EXPECT_EQ(things, 2);
  EXPECT_EQ(ids.size(), 2u);
}

// `nan` and `inf` are symbols, so each production matches its own wme; a
// float beyond int64_t's range (1e300) hashes and matches like any other.
TEST(Engine, NanAndInfAtomsMatchAsSymbols) {
  Engine e;
  e.load(
      "(p p-nan (a ^v nan) --> (halt))\n"
      "(p p-inf (a ^v inf) --> (halt))\n"
      "(p p-foo (a ^v foo) --> (halt))\n"
      "(p p-big (a ^v 1e300) --> (halt))\n"
      "(p p-join (a ^v <x>) (b ^w <x>) --> (halt))");
  for (const char* v : {"nan", "inf", "foo", "1e300"}) {
    e.add_wme_text(std::string("(a ^v ") + v + ")");
    e.add_wme_text(std::string("(b ^w ") + v + ")");
  }
  e.match();
  std::multiset<std::string> fired;
  for (const Instantiation* inst : e.cs().all()) {
    fired.insert(std::string(e.syms().name(inst->pnode->prod->name)));
  }
  const std::multiset<std::string> expected = {
      "p-nan", "p-inf", "p-foo", "p-big", "p-join", "p-join", "p-join",
      "p-join"};
  EXPECT_EQ(fired, expected);
}

TEST(Engine, TraceRecordsTasksAndParents) {
  Engine e(test::recorded());
  // Fan-out: the (a, b) join feeds both j's P-node and k's join with c.
  e.load("(p j (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p k (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))");
  for (const char* w : {"(a ^v 1)", "(b ^v 1)", "(c ^v 1)", "(a ^v 2)",
                        "(b ^v 2)", "(c ^v 2)"}) {
    e.add_wme_text(w);
  }
  const CycleTrace t = e.match();
  ASSERT_GT(t.task_count(), 0u);
  // Seeds have no parent; all parent links point backwards.
  bool saw_seed = false;
  std::vector<size_t> children(t.tasks.size(), 0);
  for (size_t i = 0; i < t.tasks.size(); ++i) {
    if (t.tasks[i].parent == UINT32_MAX) {
      saw_seed = true;
    } else {
      EXPECT_LT(t.tasks[i].parent, i);
      ++children[t.tasks[i].parent];
    }
  }
  EXPECT_TRUE(saw_seed);
  EXPECT_GE(*std::max_element(children.begin(), children.end()), 2u);
  // FIFO order, which psim and the goldens read: the seeds come first, and
  // each task's children follow every task recorded before it, so parent
  // indices never decrease after the seeds. A LIFO queue would interleave.
  size_t seeds = 0;
  while (seeds < t.tasks.size() && t.tasks[seeds].parent == UINT32_MAX) {
    ++seeds;
  }
  for (size_t i = seeds; i < t.tasks.size(); ++i) {
    ASSERT_NE(t.tasks[i].parent, UINT32_MAX) << "seed after a child at " << i;
    if (i > seeds) {
      EXPECT_LE(t.tasks[i - 1].parent, t.tasks[i].parent) << "task " << i;
    }
  }
  // At least one P-node task fired.
  bool saw_prod = false;
  for (const auto& r : t.tasks) saw_prod |= r.type == NodeType::Prod;
  EXPECT_TRUE(saw_prod);
}

TEST(Engine, EmptyMatchIsEmptyTrace) {
  Engine e(test::recorded());
  e.load("(p j (a ^v 1) --> (halt))");
  const CycleTrace t = e.match();
  EXPECT_EQ(t.task_count(), 0u);
  EXPECT_EQ(e.last_match_tasks(), 0u);
}

TEST(Engine, UnknownClassWmeIsIgnoredByMatch) {
  Engine e(test::recorded());
  e.load("(p j (a ^v 1) --> (halt))");
  e.add_wme_text("(unrelated ^x 9)");
  const CycleTrace t = e.match();
  EXPECT_EQ(t.task_count(), 0u);
  EXPECT_EQ(e.last_match_tasks(), 0u);
  EXPECT_EQ(e.wm().size(), 1u);
}

TEST(Engine, AddWmeTextRejectsTrailingText) {
  Engine e;
  e.load("(p j (a ^v <x>) --> (halt))");
  EXPECT_THROW(e.add_wme_text("(a ^v 1) (b ^w 2)"), ParseError);
  EXPECT_THROW(e.add_wme_text("(a ^v 1) x"), ParseError);
  EXPECT_EQ(e.wm().size(), 0u);
  EXPECT_FALSE(e.has_pending_changes());
  // A comment is not text.
  ASSERT_NE(e.add_wme_text("(a ^v 1) ; note"), nullptr);
  EXPECT_EQ(e.wm().size(), 1u);
  e.match();
  EXPECT_EQ(e.cs().size(), 1u);
}

// An engine that records nothing drains on its own one-worker matcher, on
// the calling thread; one that records drains on the trace recorder.
TEST(Engine, DefaultEngineDrainsOnItsOneWorkerMatcher) {
  Engine e;
  Engine rec(test::recorded());
  EXPECT_FALSE(e.records_traces());
  EXPECT_TRUE(rec.records_traces());
  for (Engine* x : {&e, &rec}) {
    x->load("(p j (a ^v <x>) (b ^v <x>) --> (halt))");
    x->add_wme_text("(a ^v 1)");
    x->add_wme_text("(b ^v 1)");
  }
  EXPECT_EQ(e.match().task_count(), 0u) << "the matcher records no DAG";
  ASSERT_NE(e.parallel_matcher(), nullptr);
  EXPECT_EQ(e.parallel_matcher()->workers(), 1u);
  EXPECT_GT(e.last_match_tasks(), 0u);
  EXPECT_EQ(e.last_parallel_stats().tasks, e.last_match_tasks());
  EXPECT_EQ(e.last_parallel_stats().steals, 0u);

  const CycleTrace t = rec.match();
  EXPECT_GT(t.task_count(), 0u);
  EXPECT_EQ(t.task_count(), rec.last_match_tasks());
  EXPECT_EQ(rec.parallel_matcher(), nullptr);
  EXPECT_EQ(test::cs_fingerprint(e), test::cs_fingerprint(rec));
}

TEST(ConflictSet, InsertRetractBookkeeping) {
  Engine e;
  e.load("(p j (a ^v <x>) --> (halt))");
  const Wme* w = e.add_wme_text("(a ^v 1)");
  e.match();
  EXPECT_EQ(e.cs().total_inserts(), 1u);
  e.remove_wme(w);
  e.match();
  EXPECT_EQ(e.cs().total_retracts(), 1u);
  EXPECT_EQ(e.cs().size(), 0u);
}

TEST(ConflictSet, UnfiredHarvestMatchesFilteredSortUnderRandomOps) {
  // unfired_into walks only the unfired tail and sorts copied-out keys; it
  // must still return exactly all() filtered to the unfired instantiations
  // in det_less order: (P-node stamp, token size, token timetags).
  constexpr size_t kWmes = 10;
  std::vector<Wme> wmes(kWmes);
  for (size_t i = 0; i < kWmes; ++i) wmes[i].timetag = 1 + (i * 7) % kWmes;
  Production prod;
  std::vector<ProdNode> pnodes(4);
  for (size_t i = 0; i < pnodes.size(); ++i) {
    pnodes[i].prod = &prod;
    pnodes[i].id = static_cast<uint32_t>(i);
    pnodes[i].stamp = 40 - 10 * i;  // stamps run against ids
  }
  TokenArena arena;
  using Key = std::pair<size_t, std::vector<size_t>>;  // (pnode, wmes)
  auto token_of = [&](const std::vector<size_t>& idx) {
    std::vector<const Wme*> ws;
    for (size_t i : idx) ws.push_back(&wmes[i]);
    return token_make(ws.data(), static_cast<uint32_t>(ws.size()), nullptr,
                      0, arena, 0);
  };
  auto expected = [](const ConflictSet& cs) {
    std::vector<const Instantiation*> out;
    for (const Instantiation* i : cs.all()) {
      if (!i->fired) out.push_back(i);
    }
    std::sort(out.begin(), out.end(),
              [](const Instantiation* a, const Instantiation* b) {
                if (a->pnode->stamp != b->pnode->stamp) {
                  return a->pnode->stamp < b->pnode->stamp;
                }
                if (a->token.size() != b->token.size()) {
                  return a->token.size() < b->token.size();
                }
                for (size_t i = 0; i < a->token.size(); ++i) {
                  if (a->token[i]->timetag != b->token[i]->timetag) {
                    return a->token[i]->timetag < b->token[i]->timetag;
                  }
                }
                return false;
              });
    return out;
  };

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    ConflictSet cs;
    std::set<Key> present, overtaken;
    std::vector<const Instantiation*> got;
    for (int step = 0; step < 400; ++step) {
      Key k;
      k.first = rng.below(pnodes.size());
      const size_t n = 1 + rng.below(6);  // past kInlineCap: spills too
      for (size_t i = 0; i < n; ++i) k.second.push_back(rng.below(kWmes));
      const uint64_t op = rng.below(10);
      if (op < 4) {
        if (present.count(k) != 0) continue;  // the CS holds no duplicates
        cs.on_insert(pnodes[k.first], token_of(k.second));
        if (overtaken.erase(k) == 0) present.insert(k);
      } else if (op < 6) {
        // Either retracts a present instantiation or, when the key is
        // absent, overtakes its insert and waits for it.
        if (present.count(k) == 0 && overtaken.count(k) != 0) continue;
        cs.on_retract(pnodes[k.first], token_of(k.second));
        if (present.erase(k) == 0) overtaken.insert(k);
      } else if (op < 9) {
        const auto all = cs.all();
        if (all.empty()) continue;
        cs.mark_fired(all[rng.below(all.size())]);
      } else {
        const auto all = cs.all();
        if (all.empty()) continue;
        const Instantiation* victim = all[rng.below(all.size())];
        Key vk;
        vk.first = static_cast<size_t>(victim->pnode - pnodes.data());
        for (const Wme* w : victim->token) {
          vk.second.push_back(static_cast<size_t>(w - wmes.data()));
        }
        present.erase(vk);
        cs.remove(victim);
      }
      cs.unfired_into(got);
      ASSERT_EQ(got, expected(cs)) << "seed " << seed << " step " << step;
      ASSERT_EQ(cs.size(), present.size());
      ASSERT_EQ(cs.pending_retracts(), overtaken.size());
    }
  }
}

}  // namespace
}  // namespace psme
