// Eight-Puzzle-Soar end to end: solve the puzzle without learning, solve it
// again with chunking on (watch the chunks being built), then re-solve with
// the learned chunks preloaded and compare the effort.
//
//   $ ./eight_puzzle_demo [--stats] [--agents N] [--profile-json <path>]
//   $ PSME_TRACE=trace.json ./eight_puzzle_demo
//
// --profile-json repeats the during-chunking run on an 8-worker Steal
// matcher with the runtime match profiler on (full rate) and writes the
// deterministic per-production profile document to <path> — the file
// `network_lint --profile <path> eight-puzzle` correlates against the
// static cost table (the profile_correlation_smoke ctest does exactly
// this).
//
// An unknown flag, or an --agents value that is not a whole number below
// 2^32, exits 2.
//
// With PSME_TRACE set, the during-chunking run repeats on an 8-worker
// parallel matcher with tracing on and exports a Perfetto-loadable Chrome
// trace: per-worker task spans plus the §5.2 update-phase spans of every
// chunk added at run time. (The conflict set orders instantiations by a
// deterministic content key, so the parallel learning run is bit-identical
// to the serial one at any worker count.)
//
// With --agents N (N > 1) the demo also runs N learning kernels as agent
// sessions over ONE shared CompiledNetwork: each agent solves the puzzle
// with chunking on, chunks are spliced into the shared network in place,
// and chunk-signature dedup is network-wide — so later agents
// inherit earlier agents' chunks and solve with fewer impasses and fewer
// freshly-built chunks.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.h"
#include "tasks/registry.h"

using namespace psme;

namespace {

void report(const char* label, const TaskRunResult& r) {
  std::printf(
      "%-18s decisions %3llu  elaboration cycles %3llu  impasses %2llu  "
      "chunks %2llu  match tasks %7llu  solved %s\n",
      label, static_cast<unsigned long long>(r.stats.decisions),
      static_cast<unsigned long long>(r.stats.elab_cycles),
      static_cast<unsigned long long>(r.stats.impasses),
      static_cast<unsigned long long>(r.stats.chunks_built),
      static_cast<unsigned long long>(r.stats.match_tasks),
      r.stats.goal_achieved ? "yes" : "NO");
}

/// N learning kernels, sequentially, as agent sessions over one shared
/// network: chunks any agent learns are in the shared Rete when the next
/// agent runs, and identical chunks dedup network-wide.
void run_agents(const Task& task, size_t agents) {
  std::printf("\nmulti-agent serving: %zu learning kernels over one shared "
              "network\n",
              agents);
  std::printf("%-7s %10s %9s %13s  %s\n", "agent", "decisions",
              "impasses", "chunks-built", "solved");

  auto cnet = std::make_shared<CompiledNetwork>();
  std::vector<std::unique_ptr<SoarKernel>> kernels;  // sessions stay attached
  for (size_t a = 0; a < agents; ++a) {
    SoarOptions opts;
    opts.learning = true;
    opts.max_decisions = task.max_decisions;
    kernels.push_back(std::make_unique<SoarKernel>(opts, cnet));
    SoarKernel& k = *kernels.back();
    // The task productions live in the shared network: only the first
    // session loads them, siblings find them already compiled.
    if (a == 0) k.load_productions(task.productions);
    task.init(k);
    const SoarRunStats stats = k.run();
    std::printf("%-7zu %10llu %9llu %13llu  %s\n", a,
                static_cast<unsigned long long>(stats.decisions),
                static_cast<unsigned long long>(stats.impasses),
                static_cast<unsigned long long>(stats.chunks_built),
                stats.goal_achieved ? "yes" : "NO");
  }
  std::printf("later agents inherit earlier agents' chunks through the "
              "shared jumptable;\nnetwork-wide signature dedup keeps "
              "identical chunks from compiling twice.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool want_stats = false;
  size_t agents = 1;
  std::string profile_path;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> uint32_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "eight_puzzle_demo: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      const char* flag = argv[i];
      const char* text = argv[++i];
      const char* end = text + std::strlen(text);
      uint32_t v = 0;
      const auto [stop, err] = std::from_chars(text, end, v);
      if (err != std::errc() || stop != end) {
        std::fprintf(stderr,
                     "eight_puzzle_demo: %s needs a whole number below 2^32, "
                     "got '%s'\n",
                     flag, text);
        std::exit(2);
      }
      return v;
    };
    if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--profile-json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "eight_puzzle_demo: --profile-json needs a path\n");
        return 2;
      }
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--agents") == 0) {
      agents = value();
      if (agents == 0) {
        std::fprintf(stderr, "eight_puzzle_demo: --agents needs N >= 1\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "eight_puzzle_demo: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  const Task task = make_eight_puzzle();
  std::printf("Eight-Puzzle-Soar: %zu-byte production source, solving a "
              "board scrambled 8 moves from the goal.\n\n",
              task.productions.size());

  const auto without = run_task(task, /*learning=*/false);
  report("without chunking", without);

  const auto during = run_task(task, /*learning=*/true);
  report("during chunking", during);

  std::printf("\nchunks learned (%zu):\n", during.stats.chunk_texts.size());
  for (size_t i = 0; i < during.stats.chunk_texts.size() && i < 2; ++i) {
    std::printf("%s\n", during.stats.chunk_texts[i].c_str());
  }
  if (during.stats.chunk_texts.size() > 2) {
    std::printf("  ... and %zu more\n", during.stats.chunk_texts.size() - 2);
  }

  const auto after =
      run_task(task, /*learning=*/false, &during.stats.chunk_texts);
  report("after chunking", after);

  std::printf("\nThe after-chunking run avoids the selection impasses the "
              "first run needed:\n%llu impasses -> %llu.\n",
              static_cast<unsigned long long>(without.stats.impasses),
              static_cast<unsigned long long>(after.stats.impasses));

  if (want_stats) {
    std::printf("\nend-of-run metrics (during-chunking run):\n");
    psme::obs::print_metrics_table(during.metrics, stdout);
  }

  if (psme::obs::env_trace_path() != nullptr) {
    // Traced repeat of the during-chunking run on an 8-worker matcher:
    // run_task exports the Chrome JSON to $PSME_TRACE before teardown.
    std::printf("\ntracing during-chunking run (8 workers) ...\n");
    EngineOptions eo;
    eo.match_workers = 8;
    eo.trace.enabled = true;
    const auto traced = run_task(task, /*learning=*/true, nullptr, eo);
    report("traced (8 workers)", traced);
    if (want_stats) {
      std::printf("\nend-of-run metrics (traced run):\n");
      psme::obs::print_metrics_table(traced.metrics, stdout);
    }
  }

  if (!profile_path.empty()) {
    // Profiled repeat of the during-chunking run: 8-worker Steal matcher,
    // profiler at full rate (every activation timed) — the run is short, so
    // the exact document beats sampling noise here. run_task builds the
    // profile_json before teardown.
    std::printf("\nprofiling during-chunking run (8 workers, full rate) ...\n");
    EngineOptions eo;
    eo.match_workers = 8;
    eo.profile = true;
    eo.profile_sample_shift = 0;
    const auto profiled = run_task(task, /*learning=*/true, nullptr, eo);
    report("profiled (8 workers)", profiled);
    std::ofstream out(profile_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "eight_puzzle_demo: cannot write %s\n",
                   profile_path.c_str());
      return 2;
    }
    out << profiled.profile_json;
    std::printf("wrote %s\n", profile_path.c_str());
  }

  if (agents > 1) run_agents(task, agents);
  return 0;
}
