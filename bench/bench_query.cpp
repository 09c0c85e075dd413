// Transient-query churn bench: add/match/remove cycles through QuerySession,
// swept over steal-worker counts {1, 2, 4, 8} × agent-session counts {1, 4}
// over ONE shared CompiledNetwork. Each cycle compiles a cue into a
// temporary production (copy-on-write splice + §5.2 state update = the
// evaluation), reads score and matches, and tears the production back out
// through Engine::remove_production_runtime (COW unsplice + per-agent drain
// + reclaim). This is the hot-path stress workload for run-time removal: the
// jumptable, alpha-memory array and node table must stay flat across the
// whole run (slot/mem-index recycling), which the bench asserts.
//
// Measured per configuration:
//   * churn throughput in queries/sec (aggregate across sessions);
//   * mean per-phase cost: add (compile + update), read (score + matches),
//     remove (unsplice + drain) in µs.
//
// Output: BENCH_query.json on stdout (captured by tools/bench_json.sh),
// human-readable tables on stderr.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/agent_group.h"
#include "harness.h"
#include "obs/profiler.h"
#include "query/query.h"

using namespace psme;
using namespace psme::bench;

namespace {

std::string resident_productions() {
  return "(p stack2 (block ^name <b> ^color blue) (block ^on <b>) "
         "--> (halt))"
         "(p stack3 (block ^name <b>) (block ^on <b> ^name <m>) "
         "(block ^on <m>) --> (halt))"
         "(p holder (gripper ^state free) (block ^name <b>) --> (halt))";
}

/// One agent's episode: a chain of stacked blocks plus loose parts, values
/// offset by the agent index so no two sessions share token content.
void seed_episode(Engine& e, size_t agent, int blocks) {
  const int base = static_cast<int>(agent) * 1000;
  for (int i = 0; i < blocks; ++i) {
    const std::string name = "b" + std::to_string(base + i);
    const char* color = i % 3 == 0 ? "blue" : (i % 3 == 1 ? "red" : "green");
    std::string text = "(block ^name " + name + " ^color " + color;
    if (i > 0) text += " ^on b" + std::to_string(base + i - 1);
    text += ")";
    e.add_wme_text(text);
  }
  e.add_wme_text("(gripper ^name g" + std::to_string(agent) +
                 " ^state free)");
}

/// The cue rotation: a full-match graph cue (shares alpha structure with the
/// residents), a partial cue (joins two CEs, third never matches), and a
/// miss (fresh alpha structure installed and removed every time).
const char* cue_for(int cycle) {
  switch (cycle % 3) {
    case 0:
      return "(block ^name <b> ^color blue) (block ^on <b> ^name <t>)";
    case 1:
      return "(block ^name <b> ^color blue) (block ^on <b> ^name <t>) "
             "(gripper ^holding <t>)";
    default:
      return "(pyramid ^name <p>) (block ^on <p>)";
  }
}

struct Record {
  size_t workers = 0;
  size_t agents = 0;
  int cycles = 0;  // total queries across all sessions
  double wall_seconds = 0;
  double queries_per_sec = 0;
  double add_us_mean = 0, read_us_mean = 0, remove_us_mean = 0;
  uint64_t nodes_churned = 0;  // nodes installed (== removed) over the run
};

double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Record run_config(size_t workers, size_t agents, int cycles_per_agent) {
  AgentGroupOptions gopts;
  gopts.workers = workers;
  AgentGroup group(gopts);
  for (size_t a = 0; a < agents; ++a) group.add_agent();
  group.load(resident_productions());
  for (size_t a = 0; a < agents; ++a) seed_episode(group.agent(a), a, 24);
  group.step_all();

  std::vector<std::unique_ptr<QuerySession>> sessions;
  for (size_t a = 0; a < agents; ++a) {
    sessions.push_back(std::make_unique<QuerySession>(group.agent(a)));
  }

  Record r;
  r.workers = workers;
  r.agents = agents;
  const uint32_t live_before = group.network().net().live_node_count();
  const size_t jt_before = group.network().net().jumptable().size();

  const int warmup = 3;
  double add_us = 0, read_us = 0, remove_us = 0;
  const auto wall0 = std::chrono::steady_clock::now();
  for (int c = 0; c < warmup + cycles_per_agent; ++c) {
    for (size_t a = 0; a < agents; ++a) {
      QuerySession& q = *sessions[a];
      auto t0 = std::chrono::steady_clock::now();
      const auto add = q.begin(cue_for(c + static_cast<int>(a)));
      const double t_add = us_since(t0);

      t0 = std::chrono::steady_clock::now();
      const uint32_t score = q.score();
      const auto matches = q.matches();
      const double t_read = us_since(t0);
      (void)score;
      (void)matches;

      t0 = std::chrono::steady_clock::now();
      const auto rem = q.end();
      const double t_remove = us_since(t0);

      if (c >= warmup) {
        add_us += t_add;
        read_us += t_read;
        remove_us += t_remove;
        r.nodes_churned += rem.nodes_removed;
        ++r.cycles;
      }
      (void)add;
    }
  }
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  // Removal must leave no residue: same live-node count, same jumptable
  // footprint (slots recycled, never grown past the high-water mark of one
  // in-flight query per session).
  const uint32_t live_after = group.network().net().live_node_count();
  const size_t jt_after = group.network().net().jumptable().size();
  if (live_after != live_before) {
    std::fprintf(stderr,
                 "bench_query: node leak — %u live nodes before churn, %u "
                 "after\n",
                 live_before, live_after);
    std::exit(1);
  }
  if (jt_after > jt_before + agents * 16) {
    std::fprintf(stderr,
                 "bench_query: jumptable grew %zu -> %zu slots (recycling "
                 "broken)\n",
                 jt_before, jt_after);
    std::exit(1);
  }

  if (r.cycles > 0) {
    const double n = static_cast<double>(r.cycles);
    r.add_us_mean = add_us / n;
    r.read_us_mean = read_us / n;
    r.remove_us_mean = remove_us / n;
  }
  if (r.wall_seconds > 0) {
    r.queries_per_sec = static_cast<double>(r.cycles) / r.wall_seconds;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int cycles = argc > 1 ? std::atoi(argv[1]) : 120;
  const int reps = argc > 2 ? std::atoi(argv[2]) : 3;
  const std::vector<size_t> worker_counts = {1, 2, 4, 8};
  const std::vector<size_t> session_counts = {1, 4};

  std::fprintf(stderr,
               "bench_query: %d add/match/remove cycles per session, best of "
               "%d, steal workers {1,2,4,8}, sessions {1,4}\n",
               cycles, reps);
  std::fprintf(stderr, "%8s %7s %9s %13s %10s %10s %10s\n", "workers",
               "agents", "queries", "queries/sec", "add_us", "read_us",
               "rm_us");

  std::vector<Record> records;
  for (const size_t w : worker_counts) {
    for (const size_t n : session_counts) {
      Record best;
      for (int rep = 0; rep < reps; ++rep) {
        Record one = run_config(w, n, cycles);
        if (rep == 0 || one.wall_seconds < best.wall_seconds) {
          best = one;
        }
      }
      std::fprintf(stderr, "%8zu %7zu %9d %13.0f %10.2f %10.2f %10.2f\n",
                   best.workers, best.agents, best.cycles,
                   best.queries_per_sec, best.add_us_mean, best.read_us_mean,
                   best.remove_us_mean);
      records.push_back(best);
    }
  }

  // Per-CE measured join cost: a dedicated non-timed pass with the group's
  // profiler at full rate (shift 0 — exact, no scaling). For each cue in the
  // rotation: snapshot, install the cue (the §5.2 update IS the evaluation),
  // resolve its per-CE anchor nodes (QuerySession::ce_join_nodes), snapshot
  // again — the node-cell diff isolates what THIS query cost at each CE's
  // join even when the prefix is shared with a resident production, and the
  // snapshot window sidesteps the recycled-node-id caveat across cues.
  struct CeCost {
    uint32_t node = UINT32_MAX;
    uint64_t acts = 0;
    double est_us = 0;
  };
  struct CueCosts {
    std::string cue;
    uint32_t score = 0;
    std::vector<CeCost> ces;
  };
  std::vector<CueCosts> per_ce;
  {
    AgentGroupOptions gopts;
    gopts.workers = 8;
    gopts.profile = true;
    gopts.profile_sample_shift = 0;
    AgentGroup group(gopts);
    group.add_agent();
    group.load(resident_productions());
    seed_episode(group.agent(0), 0, 24);
    group.step_all();
    QuerySession q(group.agent(0));
    obs::ProfileSnapshot before, after;
    for (int c = 0; c < 3; ++c) {
      group.profiler()->snapshot_into(before);
      q.begin(cue_for(c));
      const std::vector<uint32_t> anchors = q.ce_join_nodes();
      CueCosts cc;
      cc.cue = cue_for(c);
      cc.score = q.score();
      (void)q.matches();
      group.profiler()->snapshot_into(after);
      for (const uint32_t id : anchors) {
        CeCost ce;
        ce.node = id;
        if (id != UINT32_MAX && id < after.nodes.size()) {
          const obs::ProfileCell& na = after.nodes[id];
          obs::ProfileCell nb;
          if (id < before.nodes.size()) nb = before.nodes[id];
          ce.acts = na.activations - nb.activations;
          ce.est_us = (obs::ProfileSnapshot::est_ns(na) -
                       obs::ProfileSnapshot::est_ns(nb)) /
                      1e3;
        }
        cc.ces.push_back(ce);
      }
      q.end();
      per_ce.push_back(std::move(cc));
    }
  }
  std::fprintf(stderr, "\nper-CE measured join cost (full-rate profiler, "
                       "snapshot-diff per cue):\n");
  for (const CueCosts& cc : per_ce) {
    std::fprintf(stderr, "  cue \"%s\" (score %u):\n", cc.cue.c_str(),
                 cc.score);
    for (size_t i = 0; i < cc.ces.size(); ++i) {
      const CeCost& ce = cc.ces[i];
      if (ce.node == UINT32_MAX) {
        std::fprintf(stderr, "    ce %zu: (unresolved)\n", i);
      } else {
        std::fprintf(stderr,
                     "    ce %zu: node %u, %llu activations, %.2f est_us\n",
                     i, ce.node, static_cast<unsigned long long>(ce.acts),
                     ce.est_us);
      }
    }
  }

  JsonWriter j(stdout);
  j.begin_object();
  j.field("bench", "query");
  j.field("workload",
          "transient-query churn: compile cue -> read score/matches -> "
          "remove, over one shared network");
  j.field("cycles_per_session", static_cast<uint64_t>(cycles));
  j.begin_array("records");
  for (const Record& r : records) {
    j.begin_object();
    j.field("workers", static_cast<uint64_t>(r.workers));
    j.field("agents", static_cast<uint64_t>(r.agents));
    j.field("queries", static_cast<uint64_t>(r.cycles));
    j.field("wall_seconds", r.wall_seconds);
    j.field("queries_per_sec", r.queries_per_sec);
    j.field("add_us_mean", r.add_us_mean);
    j.field("read_us_mean", r.read_us_mean);
    j.field("remove_us_mean", r.remove_us_mean);
    j.field("nodes_churned", r.nodes_churned);
    j.end_object();
  }
  j.end_array();
  // The per-CE measured join costs from the profiled pass above.
  j.begin_object("profile");
  j.field("sample_shift", static_cast<uint64_t>(0));
  j.begin_array("per_ce");
  for (const CueCosts& cc : per_ce) {
    j.begin_object();
    j.field("cue", cc.cue);
    j.field("score", static_cast<uint64_t>(cc.score));
    j.begin_array("ces");
    for (size_t i = 0; i < cc.ces.size(); ++i) {
      const CeCost& ce = cc.ces[i];
      j.begin_object();
      j.field("ce", static_cast<uint64_t>(i));
      j.field("resolved", ce.node == UINT32_MAX ? "false" : "true");
      j.field("node", static_cast<uint64_t>(ce.node));
      j.field("acts", ce.acts);
      j.field("est_us", ce.est_us);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.end_object();
  j.end_object();
  j.finish();
  return 0;
}
