// Multi-agent serving: N agent sessions over ONE shared CompiledNetwork and
// ONE worker pool must each end every cycle exactly as an isolated serial
// engine running the same per-agent script — per-agent task tagging means no
// agent can observe (or stall on) another's tokens. Also covers run-time
// chunk addition into the shared network while sibling agents hold live
// state, and a 2-agent race-stress run for the TSan lane.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/agent_group.h"
#include "lang/parser.h"
#include "soar/kernel.h"
#include "tasks/registry.h"
#include "test_util.h"

namespace psme {
namespace {

using test::cs_fingerprint;

std::string shared_productions() {
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

/// Each agent gets a DIFFERENT workload (values offset by the agent index)
/// so cross-agent leakage produces a fingerprint mismatch, not a silent
/// coincidence.
void add_agent_wmes(Engine& e, size_t agent, int n, int wave) {
  for (int i = 0; i < n; ++i) {
    const std::string v =
        std::to_string((i + wave * 3 + static_cast<int>(agent) * 11) % 13);
    e.add_wme_text("(a ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    if (i % 5 == static_cast<int>(agent) % 5) {
      e.add_wme_text("(blocker ^v " + v + ")");
    }
  }
}

void remove_every_kth(Engine& e, int k) {
  std::vector<const Wme*> victims;
  int i = 0;
  for (const Wme* w : e.wm().live()) {
    if (++i % k == 0) victims.push_back(w);
  }
  for (const Wme* w : victims) e.remove_wme(w);
}

struct GroupCase {
  const char* name;
  size_t agents;
  size_t workers;
};

class MultiAgentDifferential : public ::testing::TestWithParam<GroupCase> {};

/// N agents over the shared network vs N isolated serial engines walking the
/// same per-agent script: identical conflict sets and memory-table entry
/// counts for every agent at every checkpoint.
TEST_P(MultiAgentDifferential, AgreesWithIsolatedSerialEngines) {
  const GroupCase c = GetParam();

  AgentGroupOptions gopts;
  gopts.workers = c.workers;
  AgentGroup group(gopts);
  std::vector<std::unique_ptr<Engine>> oracles;
  for (size_t a = 0; a < c.agents; ++a) {
    group.add_agent();
    oracles.push_back(std::make_unique<Engine>());
  }
  group.load(shared_productions());
  for (auto& o : oracles) o->load(shared_productions());

  for (int wave = 0; wave < 4; ++wave) {
    for (size_t a = 0; a < c.agents; ++a) {
      add_agent_wmes(group.agent(a), a, 8, wave);
      add_agent_wmes(*oracles[a], a, 8, wave);
      if (wave >= 2) {
        remove_every_kth(group.agent(a), 4 + static_cast<int>(a));
        remove_every_kth(*oracles[a], 4 + static_cast<int>(a));
      }
    }
    group.step_all();
    for (auto& o : oracles) o->match();

    for (size_t a = 0; a < c.agents; ++a) {
      EXPECT_EQ(cs_fingerprint(group.agent(a)), cs_fingerprint(*oracles[a]))
          << c.name << " agent " << a << " wave " << wave;
      EXPECT_EQ(group.agent(a).state().tables.total_left_entries(),
                oracles[a]->state().tables.total_left_entries())
          << "agent " << a;
      EXPECT_EQ(group.agent(a).state().tables.total_right_entries(),
                oracles[a]->state().tables.total_right_entries())
          << "agent " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiAgentDifferential,
    ::testing::Values(GroupCase{"steal2x4", 2, 4},
                      GroupCase{"steal4x4", 4, 4},
                      GroupCase{"steal3x2", 3, 2},
                      GroupCase{"steal5x1", 5, 1}),
    [](const auto& info) { return std::string(info.param.name); });

/// Run-time production addition (the chunking path) from ONE agent while
/// siblings hold live token state: the in-place splice and the per-agent
/// §5.2 updates must leave every agent — learner and bystanders alike —
/// matching as if the production had been in the network all along.
TEST(MultiAgentRuntimeAdd, SpliceUpdatesEveryAgent) {
  constexpr size_t kAgents = 3;
  AgentGroupOptions gopts;
  gopts.workers = 4;
  AgentGroup group(gopts);
  std::vector<std::unique_ptr<Engine>> oracles;
  for (size_t a = 0; a < kAgents; ++a) {
    group.add_agent();
    oracles.push_back(std::make_unique<Engine>());
  }
  group.load(shared_productions());
  for (auto& o : oracles) o->load(shared_productions());

  for (size_t a = 0; a < kAgents; ++a) {
    add_agent_wmes(group.agent(a), a, 10, 0);
    add_agent_wmes(*oracles[a], a, 10, 0);
  }
  group.step_all();
  for (auto& o : oracles) o->match();

  // Agent 1 "learns" a production; the oracles each add the same one to
  // their private networks.
  const std::string late = "(p late-j2 (b ^v <x>) (c ^v <x>) --> (halt))";
  {
    Parser parser(group.agent(1).syms(), group.agent(1).schemas(),
                  test::test_rhs_arena());
    group.agent(1).add_production_runtime(parser.parse_production(late));
  }
  for (auto& o : oracles) {
    Parser parser(o->syms(), o->schemas(), test::test_rhs_arena());
    o->add_production_runtime(parser.parse_production(late));
  }

  for (size_t a = 0; a < kAgents; ++a) {
    EXPECT_EQ(cs_fingerprint(group.agent(a)), cs_fingerprint(*oracles[a]))
        << "after runtime add, agent " << a;
  }

  // The extended network keeps matching correctly for everyone.
  for (size_t a = 0; a < kAgents; ++a) {
    add_agent_wmes(group.agent(a), a, 6, 1);
    add_agent_wmes(*oracles[a], a, 6, 1);
  }
  group.step_all();
  for (auto& o : oracles) o->match();
  for (size_t a = 0; a < kAgents; ++a) {
    EXPECT_EQ(cs_fingerprint(group.agent(a)), cs_fingerprint(*oracles[a]))
        << "post-add wave, agent " << a;
  }
}

/// Network-wide chunk-signature dedup: the second agent to learn an
/// identical chunk must be told it is a duplicate.
TEST(MultiAgentRuntimeAdd, ChunkSignaturesDedupAcrossAgents) {
  AgentGroup group;
  group.add_agent();
  group.add_agent();
  EXPECT_TRUE(group.network().note_chunk_signature("chunk-sig-1"));
  EXPECT_FALSE(group.network().note_chunk_signature("chunk-sig-1"))
      << "agent 2 learning the same chunk must see the network-wide dup";
  EXPECT_TRUE(group.network().note_chunk_signature("chunk-sig-2"));
}

/// Per-agent metric namespaces exist and the group gauges are right.
TEST(MultiAgentObservability, MetricsAreNamespacedPerAgent) {
  AgentGroupOptions gopts;
  gopts.workers = 2;
  AgentGroup group(gopts);
  group.add_agent();
  group.add_agent();
  group.load(shared_productions());
  add_agent_wmes(group.agent(0), 0, 6, 0);
  add_agent_wmes(group.agent(1), 1, 6, 0);
  group.step_all();

  obs::MetricsRegistry m;
  group.collect_metrics(m);
  bool saw_a0 = false, saw_a1 = false;
  for (const auto& s : m.metrics()) {
    if (s.name.rfind("agent0.", 0) == 0) saw_a0 = true;
    if (s.name.rfind("agent1.", 0) == 0) saw_a1 = true;
  }
  EXPECT_TRUE(saw_a0);
  EXPECT_TRUE(saw_a1);
  EXPECT_EQ(m.value("group.agents"), 2u);
}

/// An attached agent that runs its own match() reports its own arena, not
/// agent 0's: here only agent 0 holds tokens long enough to spill, so agent
/// 1's metrics must read zero spills.
TEST(MultiAgentObservability, OwnMatchReportsOwnArena) {
  AgentGroupOptions gopts;
  gopts.workers = 2;
  AgentGroup group(gopts);
  Engine& a0 = group.add_agent();
  Engine& a1 = group.add_agent();
  // A full match is a five-wme token, past Token::kInlineCap.
  group.load(
      "(p deep (a ^v <x>) (b ^v <x>) (c ^v <x>) (d ^v <x>) (e ^v <x>) "
      "--> (halt))");
  for (const char* cls : {"a", "b", "c", "d", "e"}) {
    a0.add_wme_text(std::string("(") + cls + " ^v 1)");
  }
  a0.match();
  const uint64_t a0_spills = a0.state().arena.stats().spill_allocs;
  ASSERT_GT(a0_spills, 0u);
  obs::MetricsRegistry m0;
  a0.collect_metrics(m0);
  EXPECT_EQ(m0.value("arena.spill_allocs"), a0_spills);

  a1.add_wme_text("(a ^v 1)");
  a1.match();
  ASSERT_EQ(a1.state().arena.stats().spill_allocs, 0u);
  obs::MetricsRegistry m;
  a1.collect_metrics(m);
  EXPECT_EQ(m.value("arena.spill_allocs"), 0u);
}

/// One tracer, owned by the group: the workers record task spans on tracks
/// 1..W, every attached engine records its own spans (private match cycles,
/// §5.2 update phases) on track W+1+id, and a SoarKernel attached to the
/// group's matcher records its phases on its agent track too.
TEST(MultiAgentObservability, TracedGroupLaysOutOneTrackPerAgent) {
  constexpr size_t kWorkers = 2;
  AgentGroupOptions gopts;
  gopts.workers = kWorkers;
  gopts.agent.trace.enabled = true;
  AgentGroup group(gopts);
  group.add_agent();
  group.add_agent();
  group.load("(p j2 (a ^v <x>) (b ^v <x>) --> (halt))");
  for (size_t a = 0; a < 2; ++a) {
    add_agent_wmes(group.agent(a), a, 6, 0);
    group.agent(a).match();  // a private cycle, spanned on the agent's track
  }
  // Live working memories: every agent runs the §5.2 update.
  group.load("(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))");

  const obs::Tracer* t = group.tracer();
  ASSERT_NE(t, nullptr);
  auto count = [t](size_t track, obs::EventKind kind) {
    size_t n = 0;
    const obs::EventRing& ring = t->ring(track);
    for (size_t i = 0; i < ring.size(); ++i) n += ring[i].kind == kind;
    return n;
  };
  // A worker records a task on its own track only when it wins a task
  // race, which the small cycles above do not guarantee: a helper may wake
  // after the caller has drained them. Run wide group cycles until every
  // worker track holds a task; a worker that never records on its own
  // track still fails below.
  auto every_worker_ran = [&] {
    for (size_t w = 1; w <= kWorkers; ++w) {
      if (count(w, obs::EventKind::TaskExec) == 0) return false;
    }
    return true;
  };
  for (int wave = 1; wave <= 200 && !every_worker_ran(); ++wave) {
    for (size_t a = 0; a < 2; ++a) add_agent_wmes(group.agent(a), a, 40, wave);
    group.step_all();
  }

  SoarOptions so;
  so.learning = false;
  so.max_decisions = 2;
  SoarKernel kernel(so, group.agent(0).shared_network(), &group.matcher());
  const Task task = make_eight_puzzle();
  kernel.load_productions(task.productions);
  task.init(kernel);
  kernel.run();

  const size_t kernel_track = 1 + kWorkers + kernel.engine().agent_id();
  EXPECT_EQ(kernel.engine().track(), kernel_track);
  ASSERT_EQ(t->tracks(), kernel_track + 1);
  for (size_t w = 1; w <= kWorkers; ++w) {
    EXPECT_GT(count(w, obs::EventKind::TaskExec), 0u) << "worker track " << w;
  }
  for (size_t a = 0; a < 2; ++a) {
    const size_t track = 1 + kWorkers + a;
    EXPECT_EQ(group.agent(a).track(), track);
    EXPECT_GT(count(track, obs::EventKind::MatchCycle), 0u) << "agent " << a;
    for (const obs::EventKind k :
         {obs::EventKind::UpdateA, obs::EventKind::UpdateB,
          obs::EventKind::UpdateC}) {
      EXPECT_GT(count(track, k), 0u) << "agent " << a;
    }
  }
  EXPECT_GT(count(kernel_track, obs::EventKind::Decide), 0u);
  for (size_t track = 0; track < t->tracks(); ++track) {
    const bool worker = track >= 1 && track <= kWorkers;
    EXPECT_EQ(count(track, worker ? obs::EventKind::MatchCycle
                                  : obs::EventKind::TaskExec),
              0u)
        << track;
    if (track != kernel_track) {
      EXPECT_EQ(count(track, obs::EventKind::Decide), 0u) << track;
    }
  }
}

/// TSan lane: 2 agents × stealing workers × interleaved add/remove waves ×
/// a mid-run production add. No assertions beyond the differential —
/// the point is the interleavings TSan gets to watch.
TEST(MultiAgentRaceStress, TwoAgentsUnderFullWidthDrains) {
  AgentGroupOptions gopts;
  gopts.workers = 8;
  AgentGroup group(gopts);
  Engine& a0 = group.add_agent();
  Engine& a1 = group.add_agent();
  group.load(shared_productions());

  Engine o0, o1;
  o0.load(shared_productions());
  o1.load(shared_productions());

#if defined(__SANITIZE_THREAD__) || defined(PSME_TSAN)
  const int waves = 6;
#else
  const int waves = 12;
#endif
  for (int wave = 0; wave < waves; ++wave) {
    add_agent_wmes(a0, 0, 12, wave);
    add_agent_wmes(o0, 0, 12, wave);
    add_agent_wmes(a1, 1, 12, wave);
    add_agent_wmes(o1, 1, 12, wave);
    if (wave % 2 == 1) {
      remove_every_kth(a0, 5);
      remove_every_kth(o0, 5);
      remove_every_kth(a1, 7);
      remove_every_kth(o1, 7);
    }
    group.step_all();
    o0.match();
    o1.match();

    if (wave == waves / 2) {
      const std::string late =
          "(p stress-late (a ^v <x>) (c ^v <x>) --> (halt))";
      Parser p0(a0.syms(), a0.schemas(), test::test_rhs_arena());
      a0.add_production_runtime(p0.parse_production(late));
      for (Engine* o : {&o0, &o1}) {
        Parser p(o->syms(), o->schemas(), test::test_rhs_arena());
        o->add_production_runtime(p.parse_production(late));
      }
    }
  }
  EXPECT_EQ(cs_fingerprint(a0), cs_fingerprint(o0));
  EXPECT_EQ(cs_fingerprint(a1), cs_fingerprint(o1));
}

}  // namespace
}  // namespace psme
