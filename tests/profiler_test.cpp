// Runtime match profiler (obs/profiler.h + analysis/profile_report.h):
//
//   * shard merge vs the recorder — the same monotone-add workload run on
//     the trace recorder and 4-worker-steal, every join linked, must produce
//     IDENTICAL per-node activation and emit counts (counts are
//     schedule-invariant; only timing samples vary), and the merged totals
//     must be internally consistent;
//   * sampling bounds — shift s times exactly ceil(n / 2^s) activations on
//     one worker (one shard, contiguous ticks) and within ±workers of
//     n / 2^s across parallel shards;
//   * per-agent isolation — an idle agent session in a profiled AgentGroup
//     accumulates ZERO activations while its busy sibling accumulates all;
//   * flight ring — overflow keeps exactly the last `capacity` snapshots in
//     order, and dump() round-trips byte-identically with to_json();
//   * report determinism — profile_json/correlation_json are byte-stable,
//     and parse_profile_json round-trips what profile_json emitted.
//
// The oracle workload is deliberately negation-free: with a negation, two
// same-cycle seeds can insert-then-retract under one schedule and never
// insert under another, making task COUNTS schedule-dependent. Monotone
// positive joins execute a schedule-invariant task multiset while every
// join stays linked; right unlinking makes the count of right activations
// depend on whether an alpha-memory add beats a relink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cost_lint.h"
#include "analysis/profile_report.h"
#include "engine/agent_group.h"
#include "engine/engine.h"
#include "lang/parser.h"
#include "obs/profiler.h"

namespace psme {
namespace {

std::string join_productions() {
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

/// Monotone add-only wave script (no removals, no negation — see file
/// comment): every engine running this sees the same task multiset.
void run_waves(Engine& e, int rounds, int wave) {
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < wave; ++i) {
      const std::string v = std::to_string((i + r * 3) % 7);
      e.add_wme_text("(a ^v " + v + ")");
      if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
      if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
    }
    e.match();
  }
}

/// `linked` turns record_traces on, which keeps every join linked on either
/// executor (DESIGN.md §16).
obs::ProfileSnapshot profiled_run(size_t workers, uint32_t shift,
                                  bool linked = false) {
  EngineOptions opts;
  opts.match_workers = workers;
  opts.record_traces = linked;
  opts.profile = true;
  opts.profile_sample_shift = shift;
  Engine e(opts);
  e.load(join_productions());
  run_waves(e, 4, 18);
  EXPECT_NE(e.profiler(), nullptr);
  return e.profiler()->snapshot();
}

TEST(Profiler, ParallelShardMergeMatchesSerialOracle) {
  // Linked on both sides: with right unlinking, whether an alpha-memory add
  // beats a relink in the same drain (and so sends a right activation) is
  // up to the schedule, so only linked runs count the same tasks.
  const obs::ProfileSnapshot serial = profiled_run(1, 0, /*linked=*/true);
  const obs::ProfileSnapshot par = profiled_run(4, 0, /*linked=*/true);

  ASSERT_GT(serial.total_activations, 0u);
  EXPECT_EQ(par.total_activations, serial.total_activations);

  // Per-node counts of linked runs are schedule-invariant; the parallel
  // run's shard merge must reproduce the serial single-shard numbers cell
  // for cell.
  ASSERT_EQ(par.nodes.size(), serial.nodes.size());
  for (size_t id = 0; id < serial.nodes.size(); ++id) {
    EXPECT_EQ(par.nodes[id].activations, serial.nodes[id].activations)
        << "node " << id;
    EXPECT_EQ(par.nodes[id].emits, serial.nodes[id].emits) << "node " << id;
  }

  // Internal consistency of the merge: totals are the column sums.
  uint64_t acts = 0, sampled = 0, time_ns = 0;
  for (const obs::ProfileCell& c : serial.nodes) {
    acts += c.activations;
    sampled += c.sampled;
    time_ns += c.time_ns;
  }
  EXPECT_EQ(acts, serial.total_activations);
  EXPECT_EQ(sampled, serial.total_sampled);
  EXPECT_EQ(time_ns, serial.total_time_ns);

  // Shift 0: every activation is timed, so the estimate is exact.
  EXPECT_EQ(serial.total_sampled, serial.total_activations);
}

TEST(Profiler, OneWorkerSamplingIsExactCeil) {
  const obs::ProfileSnapshot full = profiled_run(1, 0);
  const obs::ProfileSnapshot sampled = profiled_run(1, 3);

  EXPECT_EQ(sampled.total_activations, full.total_activations)
      << "counts are exact at any shift";
  // One shard, tick starts at 0 and never resets: samples land on ticks
  // 0, 8, 16, ... — exactly ceil(n / 8) of n activations.
  const uint64_t n = sampled.total_activations;
  EXPECT_EQ(sampled.total_sampled, (n + 7) / 8);
}

TEST(Profiler, ParallelSamplingIsBounded) {
  const size_t workers = 4;
  const obs::ProfileSnapshot s = profiled_run(workers, 3);
  ASSERT_GT(s.total_activations, 0u);
  // Each worker's tick is independent and contiguous, so each shard's
  // sampled count is floor or ceil of its share: the total lands within
  // ±workers of n / 8.
  const double expect = static_cast<double>(s.total_activations) / 8.0;
  EXPECT_GE(static_cast<double>(s.total_sampled),
            expect - static_cast<double>(workers));
  EXPECT_LE(static_cast<double>(s.total_sampled),
            expect + static_cast<double>(workers));
  EXPECT_GT(s.total_sampled, 0u);
  for (const obs::ProfileCell& c : s.nodes) {
    EXPECT_LE(c.sampled, c.activations);
  }
}

/// A load() over a live working memory runs the §5.2 update through the
/// engine's own executor, so the profiler sees every one of its tasks — at
/// one worker and at four alike. The update's task count comes from a twin
/// engine adding the same production at run time.
TEST(Profiler, LiveLoadUpdateIsProfiled) {
  const std::string late =
      "(p late (a ^v <x>) (c ^v <x> ^w <y>) (b ^v <x>) --> (halt))";
  for (const size_t workers : {1u, 4u}) {
    EngineOptions opts;
    opts.match_workers = workers;
    opts.profile = true;
    Engine e(opts);
    Engine twin;
    for (Engine* x : {&e, &twin}) {
      x->load(join_productions());
      run_waves(*x, 2, 12);
    }
    RhsArena arena;
    Parser parser(twin.syms(), twin.schemas(), arena);
    const uint64_t update_tasks =
        twin.add_production_runtime(parser.parse_production(late))
            .update_tasks;
    ASSERT_GT(update_tasks, 0u);

    const uint64_t before = e.profiler()->snapshot().total_activations;
    e.load(late);
    EXPECT_EQ(e.profiler()->snapshot().total_activations - before,
              update_tasks)
        << "match_workers=" << workers;
  }
}

TEST(Profiler, IdleAgentAccumulatesNothing) {
  AgentGroupOptions gopts;
  gopts.workers = 4;
  gopts.agent.profile = true;
  AgentGroup group(gopts);
  Engine& busy = group.add_agent();
  group.add_agent();  // agent 1 never receives a wme
  group.load(join_productions());

  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i < 12; ++i) {
      const std::string v = std::to_string((i + r) % 5);
      busy.add_wme_text("(a ^v " + v + ")");
      if (i % 2 == 0) busy.add_wme_text("(b ^v " + v + ")");
    }
    group.step_all();
  }

  ASSERT_NE(group.profiler(), nullptr);
  const obs::ProfileSnapshot s = group.profiler()->snapshot();
  ASSERT_GE(s.agents.size(), 2u);
  EXPECT_GT(s.agents[0].activations, 0u);
  EXPECT_EQ(s.agents[1].activations, 0u)
      << "an idle session must not be billed for its sibling's match work";
  EXPECT_EQ(s.agents[1].sampled, 0u);
  EXPECT_EQ(s.agents[1].time_ns, 0u);
}

/// Removal frees a production's node ids and the next production reuses
/// them; the profiler must not bill the newcomer for its predecessor's work.
TEST(Profiler, RecycledIdCellStartsAtZero) {
  for (const size_t workers : {1u, 2u}) {
    EngineOptions opts;
    opts.match_workers = workers;
    opts.profile = true;
    Engine e(opts);
    e.load("(p keep (a ^v <x>) --> (halt))");
    const auto gone = e.load("(p gone (b ^v <x>) (c ^v <x>) --> (halt))");
    for (int v = 0; v < 4; ++v) {
      e.add_wme_text("(b ^v " + std::to_string(v) + ")");
      e.add_wme_text("(c ^v " + std::to_string(v) + ")");
    }
    e.match();
    const std::vector<uint32_t> freed = e.record(gone[0]).compiled.new_nodes;
    const obs::ProfileSnapshot busy = e.profiler()->snapshot();
    for (const uint32_t id : freed) {
      EXPECT_GT(busy.nodes.at(id).activations, 0u) << "node " << id;
    }

    e.remove_production_runtime(gone[0]);
    // Class d has no wmes: nothing ever activates the reborn nodes.
    const auto reborn = e.load("(p reborn (d ^v <x>) (d ^w <x>) --> (halt))");
    e.match();
    const obs::ProfileSnapshot s = e.profiler()->snapshot();
    for (const uint32_t id : e.record(reborn[0]).compiled.new_nodes) {
      ASSERT_NE(std::find(freed.begin(), freed.end(), id), freed.end())
          << "node " << id << " is not a recycled id";
      const obs::ProfileCell& c = s.nodes.at(id);
      EXPECT_EQ(c.activations, 0u) << "node " << id << " workers " << workers;
      EXPECT_EQ(c.emits, 0u);
      EXPECT_EQ(c.sampled, 0u);
      EXPECT_EQ(c.time_ns, 0u);
    }
  }
}

TEST(Profiler, FlightRingKeepsLastCapacityInOrder) {
  obs::MatchProfiler prof(0);
  prof.ensure_nodes(4);
  prof.ensure_agents(2);

  obs::FlightRecorder fr(4);
  EXPECT_EQ(fr.capacity(), 4u);
  for (uint64_t i = 0; i < 10; ++i) {
    prof.record(0, /*node=*/1, /*agent=*/0, /*timed=*/true, /*dur_ns=*/100,
                /*emits=*/2);
    obs::MetricsRegistry m;
    m.counter("test.tick", i);
    fr.snapshot(m, &prof, /*marker=*/i * 10);
  }

  EXPECT_EQ(fr.count(), 10u);
  ASSERT_EQ(fr.size(), 4u);
  for (size_t i = 0; i < fr.size(); ++i) {
    const obs::FlightSnapshot& s = fr.at(i);
    EXPECT_EQ(s.seq, 6u + i) << "oldest retained capture is #6";
    EXPECT_EQ(s.marker, (6u + i) * 10);
    EXPECT_EQ(s.metrics.value("test.tick"), 6u + i);
    // Capture #k saw k+1 records on node 1.
    EXPECT_EQ(s.profile.nodes[1].activations, 7u + i);
  }
}

TEST(Profiler, FlightDumpRoundTripsToJson) {
  obs::MatchProfiler prof(0);
  prof.ensure_nodes(3);
  prof.ensure_agents(1);
  obs::FlightRecorder fr(2);
  for (uint64_t i = 0; i < 3; ++i) {
    prof.record(0, 2, 0, true, 50, 1);
    obs::MetricsRegistry m;
    m.counter("soar.decisions", i + 1);
    fr.snapshot(m, &prof, i);
  }

  const std::string json = fr.to_json();
  EXPECT_EQ(json, fr.to_json()) << "same window, same bytes";
  EXPECT_NE(json.find("\"flight\""), std::string::npos);
  EXPECT_NE(json.find("\"soar.decisions\""), std::string::npos);

  const std::string path =
      ::testing::TempDir() + "psme_flight_roundtrip.json";
  ASSERT_TRUE(fr.dump(path.c_str()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), json);
  std::remove(path.c_str());
}

TEST(Profiler, ProfileJsonIsDeterministicAndParsesBack) {
  EngineOptions opts;
  opts.profile = true;
  Engine e(opts);
  e.load(join_productions());
  run_waves(e, 3, 12);

  const analysis::ProfileReport rep = analysis::build_profile_report(
      e.net(), e.all_records(), e.profiler()->snapshot());
  ASSERT_EQ(rep.productions.size(), 3u);
  EXPECT_GT(rep.total_activations, 0u);

  const std::string json = analysis::profile_json("join-set", rep);
  EXPECT_EQ(json, analysis::profile_json("join-set", rep))
      << "same report, same bytes";

  const analysis::ParsedProfile parsed = analysis::parse_profile_json(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.network, "join-set");
  EXPECT_EQ(parsed.total_activations, rep.total_activations);
  ASSERT_EQ(parsed.productions.size(), rep.productions.size());
  for (size_t i = 0; i < parsed.productions.size(); ++i) {
    EXPECT_EQ(parsed.productions[i].name, rep.productions[i].name);
    EXPECT_EQ(parsed.productions[i].activations,
              rep.productions[i].activations);
    // est_us is emitted at two decimals; round-trip within that precision.
    EXPECT_NEAR(parsed.productions[i].est_us, rep.productions[i].est_us,
                0.01);
  }
}

TEST(Profiler, CorrelationJoinsAndFlagsDeterministically) {
  EngineOptions opts;
  opts.profile = true;
  Engine e(opts);
  e.load(join_productions());
  run_waves(e, 3, 12);

  const analysis::ProfileReport rep = analysis::build_profile_report(
      e.net(), e.all_records(), e.profiler()->snapshot());
  const analysis::ParsedProfile parsed =
      analysis::parse_profile_json(analysis::profile_json("join-set", rep));
  ASSERT_TRUE(parsed.ok) << parsed.error;

  const analysis::LintReport lint =
      analysis::lint_costs(e.net(), e.all_records(), {}, {});
  const analysis::CorrelationReport corr = analysis::correlate(lint, parsed);
  ASSERT_EQ(corr.rows.size(), lint.productions.size());
  EXPECT_GT(corr.correlated, 0u);
  // Every production matched in this workload, so no row is unmeasured and
  // the join is total.
  EXPECT_EQ(corr.correlated, corr.rows.size());

  const std::string json = analysis::correlation_json("join-set", corr);
  EXPECT_EQ(json, analysis::correlation_json("join-set", corr))
      << "same join, same bytes";

  // Degenerate thresholds force flags in both directions: hot_ratio 0 flags
  // every row with measured time; an absurdly large cold_ratio flags every
  // measured row whose time sits under it.
  const analysis::CorrelationReport hot =
      analysis::correlate(lint, parsed, /*hot_ratio=*/0.0, /*cold_ratio=*/0.0);
  EXPECT_GT(hot.flagged, 0u);
  const analysis::CorrelationReport cold = analysis::correlate(
      lint, parsed, /*hot_ratio=*/1e9, /*cold_ratio=*/1e9);
  EXPECT_GT(cold.flagged, 0u);
}

TEST(Profiler, ParseRejectsGarbage) {
  EXPECT_FALSE(analysis::parse_profile_json("").ok);
  EXPECT_FALSE(analysis::parse_profile_json("{\"bench\":\"scheduler\"}").ok);
  const analysis::ParsedProfile p =
      analysis::parse_profile_json("not json at all");
  EXPECT_FALSE(p.ok);
  EXPECT_FALSE(p.error.empty());
}

}  // namespace
}  // namespace psme
