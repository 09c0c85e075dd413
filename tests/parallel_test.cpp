// Threaded matcher: final match state must equal the serial executor's
// across worker counts and chain-splitting tunings; scheduler statistics
// are plumbed through.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "lang/parser.h"
#include "par/parallel_match.h"
#include "rete/update.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;

/// Builds the activation seeds for a batch of wme changes (mirrors
/// Engine::match, which is serial-only).
class SeedCollector final : public ExecContext {
 public:
  void emit(Activation&& a) override { seeds.push_back(std::move(a)); }
  std::vector<Activation> seeds;
};

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

struct ParallelCase {
  size_t workers;
  StealTuning tuning = {};
};

/// Split-every-link with the backoff ladder off: every chain link round-trips
/// through the deque and every failed sweep goes straight to the park ticket
/// (the maximal-churn corner of the tuning space).
StealTuning split_heavy() {
  StealTuning t;
  t.chain_split_depth = 1;
  t.backoff_park_sweeps = 0;
  return t;
}

/// Unbounded inline chains: a dependent chain never leaves its worker.
StealTuning never_split() {
  StealTuning t;
  t.chain_split_depth = 0;
  return t;
}

class ParallelEquivalence : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelEquivalence, MatchesSerialResult) {
  const auto param = GetParam();

  Engine serial;
  serial.load(workload_productions());
  add_workload_wmes(serial, 20);
  serial.match();

  Engine par;
  par.load(workload_productions());
  add_workload_wmes(par, 20);
  // Drain the pending changes through the threaded matcher instead of
  // Engine::match().
  SeedCollector sc;
  for (const Wme* w : par.wm().live()) par.net().inject(w, true, sc);
  ParallelMatcher matcher(par.net(), param.workers, nullptr, param.tuning);
  matcher.register_agent(par.state());
  const ParallelStats st = matcher.run_cycle(sc.seeds);
  EXPECT_GT(st.tasks, 0u);
  if (param.workers > 1) {
    if (param.tuning.chain_split_depth == 1) {
      EXPECT_EQ(st.chain_inline, 0u);  // every link split to the deque
    } else if (param.tuning.chain_split_depth == 0) {
      EXPECT_EQ(st.chain_splits, 0u);  // chains never split
    }
  }

  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
  EXPECT_EQ(serial.state().tables.total_left_entries(),
            par.state().tables.total_left_entries());
  EXPECT_EQ(serial.state().tables.total_right_entries(),
            par.state().tables.total_right_entries());
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndTunings, ParallelEquivalence,
    ::testing::Values(ParallelCase{1}, ParallelCase{2}, ParallelCase{4},
                      ParallelCase{8}, ParallelCase{13},
                      ParallelCase{2, split_heavy()},
                      ParallelCase{4, split_heavy()},
                      ParallelCase{8, split_heavy()},
                      ParallelCase{4, never_split()},
                      ParallelCase{8, never_split()}));

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
  SeedCollector sc;
  for (const Wme* w : pr) {
    par.net().inject(w, false, sc);
  }
  ParallelMatcher matcher(par.net(), 4);
  matcher.register_agent(par.state());
  matcher.run_cycle(sc.seeds);
  for (const Wme* w : pr) par.wm().remove(w);
  par.wm().end_cycle();

  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(par));
}

TEST(ParallelMatcher, PersistentMatcherReusedAcrossCycles) {
  // One Steal matcher (one worker pool, one deque set) drains several cycles
  // in a row; the serial engine is the oracle after each. The lifetime
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
    SeedCollector sc;
    for (const Wme* w : par.wm().live()) {
      bool is_new = true;
      for (const Wme* b : before) {
        if (b == w) {
          is_new = false;
          break;
        }
      }
      if (is_new) par.net().inject(w, true, sc);
    }
    const ParallelStats st = matcher.run_cycle(sc.seeds);
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
  const auto wm_snapshot = e.wm().live();
  std::vector<Activation> seeds = update_alpha_seeds(e.net(), cp, wm_snapshot);
  matcher.run_update(seeds, {cp.first_new_id, /*suppress_alpha_left=*/true});
  seeds = update_right_seeds(e.net(), e.state(), cp);
  matcher.run_update(seeds, {cp.first_new_id, false});
  seeds = update_left_seeds(e.net(), e.state(), cp);
  matcher.run_update(seeds, {cp.first_new_id, false});
}

TEST(SchedulerEquivalence, StealEqualsSerialThroughRuntimeAdd) {
  // Four engines walk the same script — wme wave, §5.2 runtime production
  // add, another wme wave — one drained serially (the oracle) and three
  // through matchers at the corners of the chain-splitting tuning space
  // (default, split-every-link, never-split). All must agree on the
  // conflict set and the memory-table entry counts at every checkpoint.
  const std::string late = "(p late-j2 (b ^v <x>) (c ^v <x>) --> (halt))";

  Engine serial, steal, split, nosplit;
  for (Engine* e : {&serial, &steal, &split, &nosplit}) {
    e->load(workload_productions());
  }
  ParallelMatcher m_steal(steal.net(), 8);
  ParallelMatcher m_split(split.net(), 8, nullptr, split_heavy());
  ParallelMatcher m_nosplit(nosplit.net(), 8, nullptr, never_split());
  m_steal.register_agent(steal.state());
  m_split.register_agent(split.state());
  m_nosplit.register_agent(nosplit.state());

  auto parallel_wave = [&](Engine& e, ParallelMatcher& m, int n) {
    std::vector<const Wme*> before = e.wm().live();
    add_workload_wmes(e, n);
    SeedCollector sc;
    for (const Wme* w : e.wm().live()) {
      bool is_new = true;
      for (const Wme* b : before) {
        if (b == w) {
          is_new = false;
          break;
        }
      }
      if (is_new) e.net().inject(w, true, sc);
    }
    return m.run_cycle(sc.seeds);
  };

  // Wave 1.
  add_workload_wmes(serial, 15);
  serial.match();
  const ParallelStats st1 = parallel_wave(steal, m_steal, 15);
  parallel_wave(split, m_split, 15);
  parallel_wave(nosplit, m_nosplit, 15);
  EXPECT_GT(st1.tasks, 0u);
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(steal));
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(split));
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(nosplit));

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
    run_update_serial(serial.net(), serial.state(), cp,
                      serial.wm().live());
  }
  runtime_add_through(steal, m_steal, arena, owned, late);
  runtime_add_through(split, m_split, arena, owned, late);
  runtime_add_through(nosplit, m_nosplit, arena, owned, late);
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(steal));
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(split));
  ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(nosplit));

  // Wave 2 over the extended network.
  add_workload_wmes(serial, 9);
  serial.match();
  parallel_wave(steal, m_steal, 9);
  parallel_wave(split, m_split, 9);
  parallel_wave(nosplit, m_nosplit, 9);
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(steal));
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(split));
  EXPECT_EQ(cs_fingerprint(serial), cs_fingerprint(nosplit));
  for (Engine* e : {&steal, &split, &nosplit}) {
    EXPECT_EQ(serial.state().tables.total_left_entries(),
              e->state().tables.total_left_entries());
    EXPECT_EQ(serial.state().tables.total_right_entries(),
              e->state().tables.total_right_entries());
  }
}

TEST(EngineIntegration, ParallelEngineRunMatchesSerial) {
  // The whole Engine loop (match via the persistent in-Engine matcher)
  // against the serial engine as oracle. match_workers flips the Engine's
  // match() and §5.2 runtime-add onto the ParallelMatcher.
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

}  // namespace
}  // namespace psme
