// Threaded matcher: final match state must equal the one-worker matcher's
// (the default engine's) across worker counts, with work shared to hungry
// peers; a one-worker drain visits the network in the trace recorder's
// order; scheduler statistics are plumbed through. The WorkerPool and
// ParkingLot waits the scheduler sleeps on are exercised directly at the
// bottom.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/verify.h"
#include "engine/agent_group.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "par/parallel_match.h"
#include "rete/update.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;

std::string workload_productions() {
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

void add_workload_wmes(Engine& e, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string v = std::to_string(i % 7);
    e.add_wme_text("(a ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    if (i % 5 == 0) e.add_wme_text("(blocker ^v " + v + ")");
  }
}

class ParallelEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelEquivalence, MatchesSerialResult) {
  const size_t workers = GetParam();

  Engine serial;
  serial.load(workload_productions());
  add_workload_wmes(serial, 20);
  serial.match();

  Engine par;
  par.load(workload_productions());
  add_workload_wmes(par, 20);
  // Drain the pending changes through the threaded matcher instead of
  // Engine::match().
  std::vector<Activation> seeds;
  for (const Wme* w : par.wm().live()) par.net().inject(w, true, 0, seeds);
  ParallelMatcher matcher(par.net(), workers);
  matcher.register_agent(par.state());
  const ParallelStats st = matcher.run_cycle(seeds);
  EXPECT_GT(st.tasks, 0u);
  // A task runs either from a private stack or as a shared root taken from
  // a deque, and every shared activation runs exactly once.
  EXPECT_EQ(st.tasks, st.chain_inline + st.shares);

  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
  EXPECT_EQ(serial.state().tables.total_left_entries(),
            par.state().tables.total_left_entries());
  EXPECT_EQ(serial.state().tables.total_right_entries(),
            par.state().tables.total_right_entries());
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelEquivalence,
                         ::testing::Values(1, 2, 4, 8, 13));

TEST(ParallelMatcher, HungryPeersStealPublishedWork) {
  // Sharing with a hungry peer is the only way work leaves a private
  // stack. Fresh matchers drain the workload until some cycle has shared
  // and some peer has stolen, and every cycle must equal the serial result.
  // The yielding sink lets helpers run mid-cycle on any number of cores.
  Engine serial;
  serial.load(workload_productions());
  add_workload_wmes(serial, 20);
  serial.match();
  for (const size_t workers : {2u, 4u, 8u, 13u}) {
    uint64_t shares = 0;
    uint64_t steals = 0;
    for (int cycle = 0; cycle < 50 && (shares == 0 || steals == 0); ++cycle) {
      Engine par;
      par.load(workload_productions());
      add_workload_wmes(par, 20);
      std::vector<Activation> seeds;
      for (const Wme* w : par.wm().live()) par.net().inject(w, true, 0, seeds);
      test::YieldingSink yielding(*par.state().sink);
      par.state().sink = &yielding;
      ParallelMatcher matcher(par.net(), workers);
      matcher.register_agent(par.state());
      const ParallelStats st = matcher.run_cycle(seeds);
      ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(par))
          << workers << " workers, cycle " << cycle;
      shares += st.shares;
      steals += st.steals;
    }
    EXPECT_GT(shares, 0u) << workers << " workers";
    EXPECT_GT(steals, 0u) << workers << " workers";
  }
}

TEST(ParallelMatcher, OneWorkerRunsEveryTaskFromItsPrivateStack) {
  // Nothing is ever hungry at one worker: the seeds and everything they
  // spawn run from the caller's private stack, no activation is published
  // or stolen, and the matcher holds no task boxes at all.
  Engine serial;
  serial.load(workload_productions());
  add_workload_wmes(serial, 20);
  serial.match();

  Engine par;
  par.load(workload_productions());
  add_workload_wmes(par, 20);
  ParallelMatcher matcher(par.net(), 1);
  matcher.register_agent(par.state());
  std::vector<Activation> seeds;
  for (const Wme* w : par.wm().live()) par.net().inject(w, true, 0, seeds);
  const ParallelStats st = matcher.run_cycle(seeds);
  EXPECT_GT(st.tasks, 0u);
  EXPECT_EQ(st.chain_inline, st.tasks);
  EXPECT_EQ(st.shares, 0u);
  EXPECT_EQ(st.steals, 0u);
  EXPECT_EQ(st.pool_slabs, 0u);
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
}

TEST(ParallelMatcher, ThrowingTaskFailsTheCycleAndTheNextStartsClean) {
  // A task that throws fails the whole cycle: its worker discards its
  // private stack and still counts its root, every worker leaves, and
  // run_cycle rethrows. Whatever was left stacked or published is dropped,
  // so the matcher's next cycle starts balanced and runs nothing stale.
  // Whether a share is still in a deque when the task throws depends on the
  // interleaving, so each width runs the failure many times.
  class ThrowingSink final : public MatchSink {
   public:
    void on_insert(const ProdNode&, const Token&) override {
      throw std::runtime_error("sink");
    }
    void on_retract(const ProdNode&, const Token&) override {}
  };
  for (const size_t workers : {2u, 8u}) {
    for (int run = 0; run < 20; ++run) {
      Engine par;
      par.load(workload_productions());
      add_workload_wmes(par, 20);
      ParallelMatcher matcher(par.net(), workers);
      matcher.register_agent(par.state());
      std::vector<Activation> seeds;
      for (const Wme* w : par.wm().live()) par.net().inject(w, true, 0, seeds);
      ThrowingSink bad;
      MatchSink* const good = par.state().sink;
      par.state().sink = &bad;
      EXPECT_THROW(matcher.run_cycle(seeds), std::runtime_error);
      par.state().sink = good;
      std::vector<Activation> none;
      ASSERT_EQ(matcher.run_cycle(none).tasks, 0u)
          << workers << " workers, run " << run;
    }
  }
}

TEST(ParallelMatcher, DeleteHeavyCycleMatchesSerial) {
  // Adds followed by deletes in a single cycle: the delete-token path under
  // concurrency.
  auto build = [](Engine& e) {
    e.load(workload_productions());
    add_workload_wmes(e, 12);
    e.match();  // settle adds serially in both engines
  };
  Engine serial, par;
  build(serial);
  build(par);

  // Remove every third a-wme.
  auto remove_some = [](Engine& e) -> std::vector<const Wme*> {
    std::vector<const Wme*> removed;
    int i = 0;
    for (const Wme* w : e.wm().live()) {
      if (e.syms().name(w->cls) == "a" && ++i % 3 == 0) removed.push_back(w);
    }
    return removed;
  };

  const auto sr = remove_some(serial);
  for (const Wme* w : sr) serial.remove_wme(w);
  serial.match();

  const auto pr = remove_some(par);
  std::vector<Activation> seeds;
  for (const Wme* w : pr) {
    par.net().inject(w, false, 0, seeds);
  }
  ParallelMatcher matcher(par.net(), 4);
  matcher.register_agent(par.state());
  matcher.run_cycle(seeds);
  for (const Wme* w : pr) par.wm().remove(w);
  par.wm().end_cycle();

  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
}

TEST(ParallelMatcher, PersistentMatcherReusedAcrossCycles) {
  // One Steal matcher (one worker pool, one deque set) drains several cycles
  // in a row; the one-worker engine is the oracle after each. The lifetime
  // counters prove it is the same scheduler instance doing the work.
  Engine serial, par;
  serial.load(workload_productions());
  par.load(workload_productions());
  ParallelMatcher matcher(par.net(), 4);
  matcher.register_agent(par.state());

  for (int round = 0; round < 3; ++round) {
    add_workload_wmes(serial, 8);
    serial.match();

    std::vector<const Wme*> before = par.wm().live();
    add_workload_wmes(par, 8);
    std::vector<Activation> seeds;
    for (const Wme* w : par.wm().live()) {
      bool is_new = true;
      for (const Wme* b : before) {
        if (b == w) {
          is_new = false;
          break;
        }
      }
      if (is_new) par.net().inject(w, true, 0, seeds);
    }
    const ParallelStats st = matcher.run_cycle(seeds);
    EXPECT_GT(st.tasks, 0u);
    ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(par))
        << "round " << round;
  }
  EXPECT_EQ(matcher.lifetime_cycles(), 3u);
  EXPECT_GT(matcher.lifetime_tasks(), 0u);
}

/// Runtime-adds `src` (one production) to `e` and drains the three §5.2
/// update phases through `matcher`.
void runtime_add_through(Engine& e, ParallelMatcher& matcher, RhsArena& arena,
                         std::vector<std::unique_ptr<Production>>& owned,
                         const std::string& src) {
  Parser parser(e.syms(), e.schemas(), arena);
  auto parsed = parser.parse_file(src);
  ASSERT_EQ(parsed.size(), 1u);
  owned.push_back(std::make_unique<Production>(std::move(parsed.front())));
  const CompiledProduction cp = e.builder().add_production(*owned.back());
  UpdateScratch scratch;
  run_update(matcher, e.net(), e.state(), cp, e.wm().live(), 0, scratch);
}

TEST(SchedulerEquivalence, StealEqualsSerialThroughRuntimeAdd) {
  // Four engines walk the same script — wme wave, §5.2 runtime production
  // add, another wme wave — one drained serially (the oracle) and three
  // through matchers of 2, 8 and 13 workers. All must agree on the conflict
  // set and the memory-table entry counts at every checkpoint.
  const std::string late = "(p late-j2 (b ^v <x>) (c ^v <x>) --> (halt))";
  constexpr std::array<size_t, 3> kWidths = {2, 8, 13};

  Engine serial;
  std::array<Engine, kWidths.size()> par;
  serial.load(workload_productions());
  std::vector<std::unique_ptr<ParallelMatcher>> matchers;
  for (size_t i = 0; i < par.size(); ++i) {
    par[i].load(workload_productions());
    matchers.push_back(
        std::make_unique<ParallelMatcher>(par[i].net(), kWidths[i]));
    matchers.back()->register_agent(par[i].state());
  }
  auto expect_all_equal_serial = [&](const char* where) {
    for (size_t i = 0; i < par.size(); ++i) {
      EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par[i]))
          << where << ", " << kWidths[i] << " workers";
      EXPECT_EQ(serial.state().tables.total_left_entries(),
                par[i].state().tables.total_left_entries())
          << where << ", " << kWidths[i] << " workers";
      EXPECT_EQ(serial.state().tables.total_right_entries(),
                par[i].state().tables.total_right_entries())
          << where << ", " << kWidths[i] << " workers";
    }
  };

  auto parallel_wave = [&](Engine& e, ParallelMatcher& m, int n) {
    std::vector<const Wme*> before = e.wm().live();
    add_workload_wmes(e, n);
    std::vector<Activation> seeds;
    for (const Wme* w : e.wm().live()) {
      bool is_new = true;
      for (const Wme* b : before) {
        if (b == w) {
          is_new = false;
          break;
        }
      }
      if (is_new) e.net().inject(w, true, 0, seeds);
    }
    return m.run_cycle(seeds);
  };

  // Wave 1.
  add_workload_wmes(serial, 15);
  serial.match();
  for (size_t i = 0; i < par.size(); ++i) {
    EXPECT_GT(parallel_wave(par[i], *matchers[i], 15).tasks, 0u);
  }
  expect_all_equal_serial("wave 1");

  // §5.2 runtime add, drained through each scheduler.
  RhsArena arena;
  std::vector<std::unique_ptr<Production>> owned;
  {
    Parser parser(serial.syms(), serial.schemas(), arena);
    auto parsed = parser.parse_file(late);
    ASSERT_EQ(parsed.size(), 1u);
    owned.push_back(std::make_unique<Production>(std::move(parsed.front())));
    const CompiledProduction cp =
        serial.builder().add_production(*owned.back());
    ParallelMatcher one(serial.net(), 1);
    one.register_agent(serial.state());
    UpdateScratch scratch;
    run_update(one, serial.net(), serial.state(), cp, serial.wm().live(), 0,
               scratch);
  }
  for (size_t i = 0; i < par.size(); ++i) {
    runtime_add_through(par[i], *matchers[i], arena, owned, late);
  }
  expect_all_equal_serial("runtime add");

  // Wave 2 over the extended network.
  add_workload_wmes(serial, 9);
  serial.match();
  for (size_t i = 0; i < par.size(); ++i) {
    parallel_wave(par[i], *matchers[i], 9);
  }
  expect_all_equal_serial("wave 2");
}

TEST(EngineIntegration, ParallelEngineRunMatchesSerial) {
  // The whole Engine loop (match via the persistent in-Engine matcher)
  // against the default (one-worker) engine as oracle. match_workers widens
  // the matcher that runs the Engine's match() and §5.2 runtime-add.
  EngineOptions popt;
  popt.match_workers = 4;
  popt.record_traces = false;

  Engine serial;
  Engine par(popt);
  for (Engine* e : {&serial, &par}) {
    e->load(workload_productions());
    add_workload_wmes(*e, 20);
    e->match();
  }
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
  ASSERT_NE(par.parallel_matcher(), nullptr);
  EXPECT_GT(par.last_parallel_stats().tasks, 0u);
  EXPECT_GT(par.parallel_matcher()->lifetime_cycles(), 0u);

  // Runtime add through Engine::add_production_runtime (three-phase parallel
  // drain inside the Engine).
  const std::string late = "(p late-j2 (b ^v <x>) (c ^v <x>) --> (halt))";
  RhsArena arena;  // outlives the adopted productions in both engines
  auto add_late = [&](Engine& e) {
    Parser parser(e.syms(), e.schemas(), arena);
    auto parsed = parser.parse_file(late);
    ASSERT_EQ(parsed.size(), 1u);
    // Engine::add_production_runtime adopts the AST into its own store.
    e.add_production_runtime(std::move(parsed.front()));
  };
  add_late(serial);
  add_late(par);
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));

  // One more cycle to confirm the persistent matcher keeps working.
  add_workload_wmes(serial, 6);
  serial.match();
  add_workload_wmes(par, 6);
  par.match();
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
}

/// One match whose batch retracts a join's only left token and adds a new
/// one: a join the removals empty stays linked through the additions, so
/// the match neither unlinks nor relinks it (DESIGN.md §16.2), at one
/// worker (the default engine), at four, and in a one-worker group.
TEST(RightUnlinking, MixedBatchNeitherUnlinksNorRelinks) {
  const char* kJoin = "(p j (a ^v <x>) (b ^v <x>) --> (halt))";
  auto setup = [&](Engine& e) {
    e.load(kJoin);
    const Wme* a1 = e.add_wme_text("(a ^v 1)");
    e.add_wme_text("(b ^v 1)");
    e.add_wme_text("(b ^v 2)");
    e.match();
    return a1;
  };
  auto batch = [](Engine& e, const Wme* a1) {
    e.remove_wme(a1);
    e.add_wme_text("(a ^v 2)");
  };
  Engine serial;
  batch(serial, setup(serial));
  serial.match();
  ASSERT_EQ(serial.cs().size(), 1u);

  auto check = [&](Engine& e, const MatchCounters& before,
                   const std::string& what) {
    const MatchCounters after = e.match_counters();
    EXPECT_EQ(after.unlinks - before.unlinks, 0u) << what;
    EXPECT_EQ(after.relinks - before.relinks, 0u) << what;
    EXPECT_EQ(cs_fingerprint(e), cs_fingerprint(serial)) << what;
    const analysis::VerifyReport report = e.verify_network();
    EXPECT_TRUE(report.ok()) << what << "\n" << report.to_string();
  };
  for (const size_t workers : {1u, 4u}) {
    EngineOptions opts;
    opts.match_workers = workers;
    Engine e(opts);
    const Wme* a1 = setup(e);
    const MatchCounters before = e.match_counters();
    batch(e, a1);
    e.match();
    check(e, before, "match_workers " + std::to_string(workers));
  }
  AgentGroupOptions gopts;
  gopts.workers = 1;
  AgentGroup group(gopts);
  group.load(kJoin);
  Engine& agent = group.add_agent();
  const Wme* a1 = agent.add_wme_text("(a ^v 1)");
  agent.add_wme_text("(b ^v 1)");
  agent.add_wme_text("(b ^v 2)");
  group.step_all();
  const MatchCounters before = agent.match_counters();
  batch(agent, a1);
  group.step_all();
  check(agent, before, "one-worker group");
}

/// Logs every conflict-set change by content, in the order the match makes
/// it, and forwards it to the engine's conflict set.
class OrderLog final : public MatchSink {
 public:
  explicit OrderLog(Engine& e) : e_(e), to_(*e.state().sink) {
    e.state().sink = this;
  }
  void on_insert(const ProdNode& p, const Token& t) override {
    note('+', p, t);
    to_.on_insert(p, t);
  }
  void on_retract(const ProdNode& p, const Token& t) override {
    note('-', p, t);
    to_.on_retract(p, t);
  }

  std::vector<std::string> events;

 private:
  void note(char sign, const ProdNode& p, const Token& t) {
    std::string s(1, sign);
    s += e_.syms().name(p.prod->name);
    for (const Wme* w : t) s += "|" + w->to_string(e_.syms(), e_.schemas());
    events.push_back(std::move(s));
  }

  Engine& e_;
  MatchSink& to_;
};

/// A one-worker drain runs a cycle's seeds, and each task's children, in
/// the order they were emitted (DESIGN.md §8.5), so where every production
/// sits at the same depth it changes the conflict set in the trace
/// recorder's FIFO order: here three productions fed by one alpha memory,
/// a cycle that adds ten wmes, one that removes them all, and one that
/// mixes both. A drain that ran the last-emitted task first would log each
/// cycle backwards. Both one-worker forms are checked: the default engine's
/// own matcher, and an agent of a one-worker group.
TEST(VisitOrder, OneWorkerDrainKeepsTheRecordersOrder) {
  const char* kProds =
      "(p first (a ^v <x>) --> (halt))"
      "(p second (a ^w <y>) --> (halt))"
      "(p third (a ^v <x> ^w <y>) --> (halt))";
  Engine recorded(test::recorded());
  Engine standalone;
  AgentGroupOptions gopts;
  gopts.workers = 1;
  AgentGroup group(gopts);
  group.load(kProds);
  Engine& agent = group.add_agent();
  std::array<Engine*, 3> engines = {&recorded, &standalone, &agent};
  recorded.load(kProds);
  standalone.load(kProds);
  std::vector<std::unique_ptr<OrderLog>> logs;
  std::array<std::vector<const Wme*>, 3> wmes;
  for (Engine* e : engines) logs.push_back(std::make_unique<OrderLog>(*e));
  auto cycle = [&](const std::string& what) {
    recorded.match();
    standalone.match();
    group.step_all();
    ASSERT_FALSE(logs[0]->events.empty()) << what;
    EXPECT_EQ(logs[1]->events, logs[0]->events) << what << ", one worker";
    EXPECT_EQ(logs[2]->events, logs[0]->events) << what << ", group";
    for (auto& log : logs) log->events.clear();
  };
  for (size_t i = 0; i < engines.size(); ++i) {
    for (int v = 0; v < 10; ++v) {
      wmes[i].push_back(engines[i]->add_wme_text(
          "(a ^v " + std::to_string(v) + " ^w " + std::to_string(v % 3) + ")"));
    }
  }
  cycle("adding ten wmes");
  for (size_t i = 0; i < engines.size(); ++i) {
    for (const Wme* w : wmes[i]) engines[i]->remove_wme(w);
    wmes[i].clear();
  }
  cycle("removing them");
  for (size_t i = 0; i < engines.size(); ++i) {
    for (int v = 0; v < 6; ++v) {
      wmes[i].push_back(
          engines[i]->add_wme_text("(a ^v " + std::to_string(v) + ")"));
    }
  }
  cycle("adding six");
  for (size_t i = 0; i < engines.size(); ++i) {
    for (size_t k = 0; k < wmes[i].size(); k += 2) {
      engines[i]->remove_wme(wmes[i][k]);
    }
    for (int v = 0; v < 4; ++v) {
      engines[i]->add_wme_text("(a ^w " + std::to_string(v) + ")");
    }
  }
  cycle("removing three and adding four");
}

/// WorkerPool::run over a captureless trampoline, the way ParallelMatcher
/// dispatches a cycle.
template <typename Fn>
void run_on(WorkerPool& pool, Fn& fn) {
  pool.run([](void* arg, size_t worker) { (*static_cast<Fn*>(arg))(worker); },
           &fn);
}

TEST(WorkerPool, HelperExceptionLeavesRunAndPoolRunsNextJob) {
  WorkerPool pool(4);
  // Every helper throws; run() rethrows one of them once all have finished.
  auto helpers_throw = [](size_t w) {
    if (w != 0) throw std::runtime_error("helper");
  };
  try {
    run_on(pool, helpers_throw);
    ADD_FAILURE() << "run() swallowed the helper exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "helper");
  }
  // The handed-over exception is cleared: the next job runs clean.
  std::atomic<uint32_t> ran{0};
  auto count = [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); };
  EXPECT_NO_THROW(run_on(pool, count));
  EXPECT_EQ(ran.load(), 4u);
}

TEST(WorkerPool, CallerExceptionLeavesRunAndPoolRunsNextJob) {
  WorkerPool pool(4);
  std::atomic<uint32_t> helpers_done{0};
  auto caller_throws = [&](size_t w) {
    if (w == 0) throw std::runtime_error("caller");
    helpers_done.fetch_add(1, std::memory_order_relaxed);
  };
  try {
    run_on(pool, caller_throws);
    ADD_FAILURE() << "run() swallowed the caller exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller");
  }
  // run() joined the helpers before rethrowing.
  EXPECT_EQ(helpers_done.load(), 3u);
  std::atomic<uint32_t> ran{0};
  auto count = [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); };
  EXPECT_NO_THROW(run_on(pool, count));
  EXPECT_EQ(ran.load(), 4u);
}

TEST(WorkerPool, EveryWorkerRunsOncePerRun) {
  constexpr size_t kWorkers = 4;
  constexpr uint32_t kRuns = 10000;
  WorkerPool pool(kWorkers);
  // Plain counters, one per worker: only run()'s publish and join order the
  // caller's reads against the helpers' writes, which TSan checks.
  uint32_t hits[kWorkers] = {};
  auto hit = [&](size_t w) { ++hits[w]; };
  for (uint32_t r = 1; r <= kRuns; ++r) {
    run_on(pool, hit);
    for (size_t w = 0; w < kWorkers; ++w) {
      ASSERT_EQ(hits[w], r) << "worker " << w;
    }
  }
}

TEST(WorkerPool, DestroyingAWaitingPoolJoinsItsHelpers) {
  { WorkerPool never_ran(4); }  // helpers waiting on their first job
  WorkerPool pool(4);
  std::atomic<uint32_t> ran{0};
  auto count = [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); };
  run_on(pool, count);
  EXPECT_EQ(ran.load(), 4u);
  // Past the spin phase of the wait: the helpers are asleep when the
  // destructor at scope exit wakes and joins them.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(ParkingLot, ParkOnStaleTicketReturnsAtOnce) {
  ParkingLot lot;
  const uint32_t first = lot.ticket();
  lot.unpark_one();  // nobody sleeps; the ticket goes stale
  lot.park(first);
  const uint32_t second = lot.ticket();
  EXPECT_NE(second, first);
  lot.unpark_all();
  lot.park(second);
  EXPECT_NE(lot.ticket(), second);
}

TEST(ParkingLot, UnparkAllReleasesEveryParkedThread) {
  constexpr size_t kThreads = 4;
  ParkingLot lot;
  const uint32_t ticket = lot.ticket();
  std::atomic<size_t> parking{0};
  std::atomic<size_t> released{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      parking.fetch_add(1);
      lot.park(ticket);
      released.fetch_add(1);
    });
  }
  while (parking.load() != kThreads) std::this_thread::yield();
  // The epoch has not moved, so no park may return however long we wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(released.load(), 0u);
  lot.unpark_all();
  for (auto& t : threads) t.join();
  EXPECT_EQ(released.load(), kThreads);
}

}  // namespace
}  // namespace psme
