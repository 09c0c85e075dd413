// Sanitizer-targeted stress tests: repeated parallel match cycles on a live
// network, run-time production addition whose §5.2 state update drains
// through the ParallelMatcher at full width, right unlinking's relink racing
// the alpha-memory adds it must not miss or double (and the sweep that
// unlinks the joins again), park/unpark under uneven load, and the
// conflict-set lock under direct many-thread fire. These exist primarily to give
// ThreadSanitizer (the `tsan` preset) real interleavings to chew on; they
// also assert serial-equivalence so they are meaningful correctness tests in
// every build.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/verify.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "par/parallel_match.h"
#include "par/worker_pool.h"
#include "rete/update.h"
#include "test_util.h"

// Iteration counts scale down under sanitizer instrumentation (5-20x
// slowdown) so the suite stays fast; the interleaving coverage TSan needs
// comes from the thread count, not raw iteration volume.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PSME_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PSME_SANITIZED_BUILD 1
#endif
#endif
#ifndef PSME_SANITIZED_BUILD
#define PSME_SANITIZED_BUILD 0
#endif

namespace psme {
namespace {

using test::cs_fingerprint;

constexpr int kIters = PSME_SANITIZED_BUILD ? 400 : 3000;
constexpr size_t kWorkers = 8;

class SeedCollector final : public ExecContext {
 public:
  void emit(Activation&& a) override { seeds.push_back(std::move(a)); }
  std::vector<Activation> seeds;
};

std::string stress_productions() {
  // Same value-skew as the parallel_test workload (v mod 7) so many tokens
  // hash to the same lines, maximizing line-lock contention; plus a negation
  // and a cross product to exercise not-node counts and wide emits.
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

void add_stress_wmes(Engine& e, int n, int salt) {
  for (int i = 0; i < n; ++i) {
    const std::string v = std::to_string((i + salt) % 7);
    e.add_wme_text("(a ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    if (i % 5 == 0) e.add_wme_text("(blocker ^v " + v + ")");
  }
}

// One stress configuration: a worker count.
struct RaceCase {
  const char* name;
  size_t workers;
};

/// Drains one engine's pending wme set through a ParallelMatcher of
/// `c.workers` (a persistent `matcher` may be supplied to reuse one pool).
void parallel_cycle(Engine& e, const std::vector<const Wme*>& adds,
                    const std::vector<const Wme*>& removes, const RaceCase& c,
                    ParallelMatcher* matcher = nullptr) {
  SeedCollector sc;
  for (const Wme* w : removes) e.net().inject(w, false, sc);
  for (const Wme* w : adds) e.net().inject(w, true, sc);
  if (matcher != nullptr) {
    matcher->run_cycle(sc.seeds);
  } else {
    ParallelMatcher local(e.net(), c.workers);
    local.register_agent(e.state());
    local.run_cycle(sc.seeds);
  }
}

// Live-network stress runs under the work-stealing scheduler at three
// widths: 2 workers (one thief, so every share goes to the same peer), 8
// and 13 (several thieves race for each share, and with fewer cores than
// workers the park path runs while work is still being published).
class RaceStressTuning : public ::testing::TestWithParam<RaceCase> {};

INSTANTIATE_TEST_SUITE_P(
    Widths, RaceStressTuning,
    ::testing::Values(RaceCase{"W2", 2}, RaceCase{"W8", 8},
                      RaceCase{"W13", 13}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(RaceStressTuning, RepeatedParallelCyclesMatchSerial) {
  // Several add-then-delete cycles, each drained by all workers on the live
  // network: line locks, alpha locks, the CS lock and the scheduler's deque
  // CASes all contended in one run. The serial engine is the
  // oracle after each cycle.
  const int rounds = PSME_SANITIZED_BUILD ? 2 : 4;
  const RaceCase c = GetParam();

  Engine serial, par;
  serial.load(stress_productions());
  par.load(stress_productions());

  for (int r = 0; r < rounds; ++r) {
    // Add wave.
    add_stress_wmes(serial, 18, r);
    serial.match();

    std::vector<const Wme*> before = par.wm().live();
    add_stress_wmes(par, 18, r);
    std::vector<const Wme*> adds;
    for (const Wme* w : par.wm().live()) {
      if (std::find(before.begin(), before.end(), w) == before.end()) {
        adds.push_back(w);
      }
    }
    parallel_cycle(par, adds, {}, c);
    ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(par)) << "add round " << r;

    // Delete wave: every third a-wme.
    auto pick_removals = [](Engine& e) {
      std::vector<const Wme*> out;
      int i = 0;
      for (const Wme* w : e.wm().live()) {
        if (e.syms().name(w->cls) == "a" && ++i % 3 == 0) out.push_back(w);
      }
      return out;
    };
    const auto sr = pick_removals(serial);
    for (const Wme* w : sr) serial.remove_wme(w);
    serial.match();

    const auto pr = pick_removals(par);
    parallel_cycle(par, {}, pr, c);
    for (const Wme* w : pr) par.wm().remove(w);
    par.wm().end_cycle();
    ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(par))
        << "delete round " << r;
  }
}

TEST_P(RaceStressTuning, RuntimeAddWithParallelUpdateMatchesUpfrontLoad) {
  // The §5.2 scenario the paper's Figure 6-9 measures, with real threads:
  // productions added to a live network one at a time, each state update
  // drained through the ParallelMatcher at full width (phases A/B under the
  // task filter with alpha-left suppression, then the last-shared-node
  // replay). The oracle is an engine that knew every production up front.
  // One persistent matcher carries every wave and every update phase, so
  // this also stresses pool reuse (park/unpark across cycles).
  const int waves = PSME_SANITIZED_BUILD ? 2 : 3;
  const RaceCase c = GetParam();

  const std::string base = stress_productions();
  const std::vector<std::string> extras = {
      "(p late-j2 (b ^v <x>) (c ^v <x>) --> (halt))",
      "(p late-j3 (a ^v <x>) (c ^v <x> ^w <x>) --> (halt))",
      "(p late-neg (b ^v <x>) -(a ^v <x>) --> (halt))",
  };

  Engine ref;
  {
    std::string all = base;
    for (const auto& p : extras) all += p;
    ref.load(all);
  }
  Engine live;
  live.load(base);
  ParallelMatcher matcher(live.net(), c.workers);
  matcher.register_agent(live.state());

  for (int wv = 0; wv < waves; ++wv) {
    add_stress_wmes(ref, 12, wv);
    ref.match();
    std::vector<const Wme*> before = live.wm().live();
    add_stress_wmes(live, 12, wv);
    std::vector<const Wme*> adds;
    for (const Wme* w : live.wm().live()) {
      if (std::find(before.begin(), before.end(), w) == before.end()) {
        adds.push_back(w);
      }
    }
    parallel_cycle(live, adds, {}, c, &matcher);
  }

  // Runtime additions on the live (already-matched) network.
  RhsArena arena;
  std::vector<std::unique_ptr<Production>> owned;  // must outlive `live`'s CS
  for (const auto& src : extras) {
    Parser parser(live.syms(), live.schemas(), arena);
    auto parsed = parser.parse_file(src);
    ASSERT_EQ(parsed.size(), 1u);
    owned.push_back(std::make_unique<Production>(std::move(parsed.front())));
    const CompiledProduction cp =
        live.builder().add_production(*owned.back());
    // Phases A (alpha chains), B (right memories fed by shared alpha
    // memories) and C (the last-shared-node replay), all threaded.
    UpdateScratch scratch;
    run_update(matcher, live.net(), live.state(), cp, live.wm().live(), 0,
               scratch);
  }

  EXPECT_EQ(cs_fingerprint(ref), cs_fingerprint(live));

  // And the combined system keeps matching correctly after the adds: one
  // more parallel wme wave over the now-extended network.
  add_stress_wmes(ref, 8, 99);
  ref.match();
  std::vector<const Wme*> before = live.wm().live();
  add_stress_wmes(live, 8, 99);
  std::vector<const Wme*> adds;
  for (const Wme* w : live.wm().live()) {
    if (std::find(before.begin(), before.end(), w) == before.end()) {
      adds.push_back(w);
    }
  }
  parallel_cycle(live, adds, {}, c, &matcher);
  EXPECT_EQ(cs_fingerprint(ref), cs_fingerprint(live));
}

TEST_P(RaceStressTuning, RelinkRacesAlphaAddsThenUnlinks) {
  // Right unlinking with real threads (DESIGN.md §16). Each round's first
  // cycle adds a-, b- and c-wmes together, so the first left tokens reach
  // the unlinked joins — and relink them from the b and c alpha memories —
  // while other workers are still adding wmes to those memories: every
  // (token, wme) pair must be joined once, whichever side wins the alpha
  // lock. The second cycle removes every a and c wme, which empties the
  // joins' left memories, and the end-of-cycle sweep unlinks them again.
  // The linked serial engine (record_traces) is the oracle after each
  // cycle, and the verifier checks the link states.
  const int rounds = PSME_SANITIZED_BUILD ? 3 : 10;
  const RaceCase c = GetParam();
  const std::string prods =
      "(p rl-j2 (a ^v <x>) (b ^v <x>) --> (halt))"
      "(p rl-j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
      "(p rl-cross (c ^w <y>) (b ^v <x>) --> (halt))";
  // Declared first: the sink must outlive the engine that calls it. It
  // yields after each instantiation so helpers run mid-cycle however few
  // cores the host has.
  std::unique_ptr<test::YieldingSink> sink;
  Engine linked(test::recorded());
  EngineOptions opts;
  opts.match_workers = c.workers;
  Engine par(opts);
  sink = std::make_unique<test::YieldingSink>(*par.state().sink);
  par.state().sink = sink.get();
  for (Engine* e : {&linked, &par}) e->load(prods);

  auto remove_class = [](Engine& e, std::string_view cls, int every) {
    int i = 0;
    for (const Wme* w : e.wm().live()) {
      if (e.syms().name(w->cls) == cls && ++i % every == 0) e.remove_wme(w);
    }
  };
  for (int r = 0; r < rounds; ++r) {
    for (Engine* e : {&linked, &par}) {
      for (int i = 0; i < 21; ++i) {
        const std::string v = std::to_string((i + r) % 7);
        e->add_wme_text("(a ^v " + v + ")");
        e->add_wme_text("(b ^v " + v + ")");
        if (i % 3 == 0) e->add_wme_text("(c ^v " + v + " ^w " + v + ")");
      }
      e->match();
    }
    ASSERT_EQ(cs_fingerprint(linked), cs_fingerprint(par))
        << "relink round " << r;
    ASSERT_TRUE(par.verify_network().ok())
        << par.verify_network().to_string();

    for (Engine* e : {&linked, &par}) {
      remove_class(*e, "a", 1);
      remove_class(*e, "c", 1);
      remove_class(*e, "b", 2);
      e->match();
    }
    ASSERT_EQ(cs_fingerprint(linked), cs_fingerprint(par))
        << "unlink round " << r;
    ASSERT_TRUE(par.verify_network().ok())
        << par.verify_network().to_string();
  }
  const MatchCounters mc = par.match_counters();
  EXPECT_GE(mc.relinks, static_cast<uint64_t>(rounds));
  EXPECT_GE(mc.unlinks, static_cast<uint64_t>(rounds));
  EXPECT_EQ(linked.match_counters().relinks, 0u);
}

TEST(RaceStress, StealParkingUnderUnevenLoad) {
  // Tiny seed sets on a wide Steal pool: most workers find nothing and park;
  // the emitting worker's unpark-on-publish must wake them without losing
  // the termination signal. Many short cycles back to back hammer the
  // park/unpark edge where lost wakeups would hang.
  const int cycles = PSME_SANITIZED_BUILD ? 20 : 80;

  Engine serial, par;
  serial.load(stress_productions());
  par.load(stress_productions());
  ParallelMatcher matcher(par.net(), kWorkers);
  matcher.register_agent(par.state());

  uint64_t parks = 0;
  for (int c = 0; c < cycles; ++c) {
    add_stress_wmes(serial, 2, c);
    serial.match();

    std::vector<const Wme*> before = par.wm().live();
    add_stress_wmes(par, 2, c);
    SeedCollector sc;
    for (const Wme* w : par.wm().live()) {
      if (std::find(before.begin(), before.end(), w) == before.end()) {
        par.net().inject(w, true, sc);
      }
    }
    const ParallelStats st = matcher.run_cycle(sc.seeds);
    parks += st.parks;
    ASSERT_EQ(cs_fingerprint(serial), cs_fingerprint(par)) << "cycle " << c;
  }
  EXPECT_EQ(matcher.lifetime_cycles(), static_cast<uint64_t>(cycles));
  // Not asserted > 0: on a loaded 1-cpu host every worker may finish its
  // spin window only after the cycle drained. Recorded for visibility.
  (void)parks;
}

TEST(RaceStress, ConflictSetConcurrentInsertRetract) {
  // The CS lock under direct many-thread fire: half the workers insert,
  // half retract the same (pnode, token) keys.
  ProdNode pnode;
  Production prod;
  pnode.prod = &prod;
  ConflictSet cs;
  const int iters = kIters / 4;
  test::run_workers(kWorkers, [&](size_t worker) {
    for (int i = 0; i < iters; ++i) {
      if (worker % 2 == 0) {
        cs.on_insert(pnode, Token{});
      } else {
        cs.on_retract(pnode, Token{});
      }
      if (i % 64 == 0) (void)cs.size();
    }
  });
  // Conservation: inserts - successful retracts == remaining instantiations.
  // (on_retract counts even unmatched retracts, so just sanity-check size.)
  EXPECT_LE(cs.size(), static_cast<size_t>(kWorkers / 2 + 1) *
                           static_cast<size_t>(iters));
  EXPECT_EQ(cs.total_inserts(), static_cast<uint64_t>(kWorkers / 2) *
                                    static_cast<uint64_t>(iters));
}

}  // namespace
}  // namespace psme
