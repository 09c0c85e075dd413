// The threaded matcher on a synthetic workload: N match processes pull node
// activations through the lock-free work-stealing scheduler at 1..13
// workers. Verifies that every worker count produces the serial executor's
// conflict set and prints the scheduler statistics.
//
// On a host with fewer cores than workers the threads interleave; the
// *correctness* of the parallel path is what this example demonstrates. For
// speedup curves on a virtual 13-processor Encore — including the paper's
// shared and per-process spinlocked queues — see bench/bench_fig_6_1 and
// friends.
//
// The steal scheduler's tuning knobs are exposed on the command line:
//
//   $ ./parallel_match [--chain-split-depth N] [--steal-backoff-base N]
//                      [--steal-backoff-max N] [--steal-backoff-park N]
//
// With --agents N (N > 1) the demo also serves N independent agent sessions
// over ONE shared CompiledNetwork and ONE worker pool (AgentGroup): each
// agent gets its own working memory and conflict set, the group drains all
// sessions' cycles through batched fork-joins, and every agent's conflict
// set is checked against an isolated serial engine running the same script.
//
//   $ ./parallel_match --agents 16
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/agent_group.h"
#include "engine/engine.h"
#include "par/parallel_match.h"

using namespace psme;

namespace {

class SeedCollector final : public ExecContext {
 public:
  void emit(Activation&& a) override { seeds.push_back(std::move(a)); }
  std::vector<Activation> seeds;
};

void load_workload(Engine& e) {
  e.load(R"(
    (p pair   (item ^v <x>) (slot ^v <x>) --> (halt))
    (p triple (item ^v <x>) (slot ^v <x>) (tag ^v <x>) --> (halt))
    (p lonely (item ^v <x>) -(slot ^v <x>) --> (halt))
  )");
  for (int i = 0; i < 120; ++i) {
    const std::string v = std::to_string(i % 17);
    e.add_wme_text("(item ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(slot ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(tag ^v " + v + ")");
  }
}

/// Per-agent wme script for the --agents demo: distinct value ranges per
/// session, so cross-agent leakage through the shared network would show up
/// as a conflict-set mismatch against the isolated oracle.
void load_agent_workload(Engine& e, size_t agent) {
  for (int i = 0; i < 40; ++i) {
    const std::string v =
        std::to_string((i + static_cast<int>(agent) * 7) % 17);
    e.add_wme_text("(item ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(slot ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(tag ^v " + v + ")");
  }
}

int run_agents_demo(size_t agents, const StealTuning& tuning) {
  std::printf("\nmulti-agent serving: %zu sessions, one shared network, "
              "8 workers\n",
              agents);
  AgentGroupOptions gopts;
  gopts.workers = 8;
  gopts.steal = tuning;
  AgentGroup group(gopts);
  std::vector<std::unique_ptr<Engine>> oracles;
  for (size_t a = 0; a < agents; ++a) {
    group.add_agent();
    oracles.push_back(std::make_unique<Engine>());
  }
  group.load(R"(
    (p pair   (item ^v <x>) (slot ^v <x>) --> (halt))
    (p triple (item ^v <x>) (slot ^v <x>) (tag ^v <x>) --> (halt))
    (p lonely (item ^v <x>) -(slot ^v <x>) --> (halt))
  )");
  for (size_t a = 0; a < agents; ++a) {
    oracles[a]->load(R"(
      (p pair   (item ^v <x>) (slot ^v <x>) --> (halt))
      (p triple (item ^v <x>) (slot ^v <x>) (tag ^v <x>) --> (halt))
      (p lonely (item ^v <x>) -(slot ^v <x>) --> (halt))
    )");
    load_agent_workload(group.agent(a), a);
    load_agent_workload(*oracles[a], a);
  }

  const ParallelStats st = group.step_all();
  for (auto& o : oracles) o->match();

  std::printf("%-7s %14s %14s  %s\n", "agent", "conflict-set", "oracle",
              "match?");
  bool all_ok = true;
  for (size_t a = 0; a < agents; ++a) {
    const size_t got = group.agent(a).cs().size();
    const size_t want = oracles[a]->cs().size();
    all_ok = all_ok && got == want;
    std::printf("%-7zu %14zu %14zu  %s\n", a, got, want,
                got == want ? "yes" : "MISMATCH");
  }
  std::printf("group cycle: %llu tasks in %.2f ms across %zu sessions "
              "(%llu steals, %llu parks)\n",
              static_cast<unsigned long long>(st.tasks),
              st.wall_seconds * 1e3, agents,
              static_cast<unsigned long long>(st.steals),
              static_cast<unsigned long long>(st.parks));
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  StealTuning tuning;
  size_t agents = 1;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> uint32_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "parallel_match: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    };
    if (std::strcmp(argv[i], "--chain-split-depth") == 0) {
      tuning.chain_split_depth = value();
    } else if (std::strcmp(argv[i], "--steal-backoff-base") == 0) {
      tuning.backoff_base_spins = value();
    } else if (std::strcmp(argv[i], "--steal-backoff-max") == 0) {
      tuning.backoff_max_spins = value();
    } else if (std::strcmp(argv[i], "--steal-backoff-park") == 0) {
      tuning.backoff_park_sweeps = value();
    } else if (std::strcmp(argv[i], "--agents") == 0) {
      agents = value();
      if (agents == 0) {
        std::fprintf(stderr, "parallel_match: --agents needs N >= 1\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "parallel_match: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  // Reference: the serial executor.
  Engine serial;
  load_workload(serial);
  serial.match();
  const size_t expected = serial.cs().size();
  std::printf("serial executor: %zu instantiations\n\n", expected);

  std::printf("%-8s %10s %8s %12s %8s %10s  %s\n", "workers", "tasks",
              "steals", "fail-sweeps", "parks", "wall(ms)", "CS ok?");
  for (const size_t workers : {1u, 2u, 4u, 8u, 13u}) {
    Engine par;
    load_workload(par);
    SeedCollector sc;
    for (const Wme* w : par.wm().live()) par.net().inject(w, true, sc);
    ParallelMatcher matcher(par.net(), workers, nullptr, tuning);
    matcher.register_agent(par.state());
    const ParallelStats st = matcher.run_cycle(sc.seeds);
    std::printf("%-8zu %10llu %8llu %12llu %8llu %10.2f  %s\n", workers,
                static_cast<unsigned long long>(st.tasks),
                static_cast<unsigned long long>(st.steals),
                static_cast<unsigned long long>(st.failed_sweeps),
                static_cast<unsigned long long>(st.parks),
                st.wall_seconds * 1e3,
                par.cs().size() == expected ? "yes" : "MISMATCH");
  }
  if (agents > 1) return run_agents_demo(agents, tuning);
  return 0;
}
