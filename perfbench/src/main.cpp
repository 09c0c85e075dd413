// perfbench: end-to-end and per-layer benchmark of the psme matcher.
//
//   perfbench --workload <soar_learn|query_churn|group_wave> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// --trace 0 measures the workload untraced and prints its end-to-end
// metrics. --trace 1 measures it traced and prints its end-to-end metrics
// (run.py subtracts an untraced run's to get the tracing overhead), its
// per-layer metrics, and the share of op time the layers account for; the
// spans go to .bench_out/trace-<workload>-seed<n>.json.
//
// The last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
// the line before it records the host and the run's exact counts.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "analysis/verify.h"  // defines PSME_NET_VERIFY for this build
#include "bench.h"

namespace {

using pb::Metric;
using pb::PassResult;

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* workload;
  const char* moves;  // the end-to-end metric(s) it should move
};

// Every per-layer metric, the workload it is measured on, and the
// end-to-end metric it should move there.
const LayerSpec kLayers[] = {
    {"lang.parse_ms", "ms", "soar_learn", "setup_s"},
    {"rete.compile_ms", "ms", "soar_learn", "setup_s"},
    {"soar.init_ms", "ms", "soar_learn", "setup_s"},
    {"rete.chunk_compile_ms", "ms", "soar_learn", "latency_p99_ms"},
    {"rete.chunk_update_tasks", "count", "soar_learn", "latency_p99_ms, psim.sim_match_s_p8"},
    {"engine.match_tasks", "count", "soar_learn", "latency_p50_ms, psim.sim_match_s_p8"},
    {"engine.elab_cycles", "count/op", "soar_learn", "latency_p50_ms"},
    {"soar.elaborate_ms", "ms/op", "soar_learn", "latency_p50_ms, throughput_ops_s"},
    {"soar.decide_ms", "ms/op", "soar_learn", "latency_p50_ms, throughput_ops_s"},
    {"soar.gc_ms", "ms/op", "soar_learn", "latency_p50_ms, throughput_ops_s"},
    {"soar.chunks_built", "count", "soar_learn", "latency_p99_ms"},
    {"soar.chunk_decision_ms_p50", "ms", "soar_learn", "latency_p99_ms"},
    {"soar.plain_decision_ms_p50", "ms", "soar_learn", "latency_p50_ms"},
    {"base.arena_spill_bytes", "bytes", "soar_learn", "peak_rss_mb"},
    {"psim.sim_match_s_p8", "vs", "soar_learn", "(virtual match time at 8 processors)"},
    {"psim.speedup_p8", "x", "soar_learn", "psim.sim_match_s_p8"},
    {"psim.spins_per_task", "count/op", "soar_learn", "psim.sim_match_s_p8"},
    {"lang.cue_parse_us", "us", "query_churn", "latency_p50_ms"},
    {"rete.cue_compile_us", "us", "query_churn", "latency_p50_ms"},
    {"rete.cue_update_tasks", "count", "query_churn", "latency_p50_ms"},
    {"rete.cue_shared_frac", "frac", "query_churn", "latency_p50_ms"},
    {"rete.remove_nodes", "count", "query_churn", "latency_p50_ms"},
    {"rete.remove_refs", "count", "query_churn", "latency_p50_ms"},
    {"rete.node_ids", "count", "query_churn", "latency_p50_ms, throughput_ops_s"},
    {"rete.live_nodes", "count", "query_churn", "peak_rss_mb"},
    {"engine.drain_entries", "count", "query_churn", "latency_p50_ms"},
    {"query.begin_us", "us", "query_churn", "latency_p50_ms, throughput_ops_s"},
    {"query.read_us", "us", "query_churn", "latency_p50_ms, throughput_ops_s"},
    {"query.end_us", "us", "query_churn", "latency_p50_ms, throughput_ops_s"},
    {"query.end_us_p99", "us", "query_churn", "latency_p99_ms"},
    {"engine.wm_change_us", "us", "group_wave", "latency_p50_ms"},
    {"par.step_all_us", "us", "group_wave", "latency_p50_ms, throughput_ops_s"},
    {"par.drain_us", "us", "group_wave", "latency_p50_ms"},
    {"par.overhead_us", "us", "group_wave", "latency_p50_ms"},
    {"par.tasks", "count/op", "group_wave", "latency_p50_ms"},
    {"par.chain_inline_frac", "frac", "group_wave", "latency_p50_ms"},
    {"par.pool_slabs", "count", "group_wave", "peak_rss_mb"},
};

const char* const kWorkloads[] = {"soar_learn", "query_churn", "group_wave"};

/// Unit of each exact count the run records.
const char* count_unit(const std::string& name) {
  return name == "psim.sim_match_s_p8" ? "vs" : "count";
}

PassResult run_workload(const std::string& w, const pb::Config& cfg) {
  if (w == "soar_learn") return pb::run_soar_learn(cfg);
  if (w == "query_churn") return pb::run_query_churn(cfg);
  return pb::run_group_wave(cfg);
}

/// Non-null when this build or environment must not report numbers.
const char* refusal() {
#ifndef NDEBUG
  return "built without NDEBUG (assertions on); use an optimized build";
#endif
#if PSME_NET_VERIFY
  return "built with PSME_NET_VERIFY (verifies the network after every add and remove)";
#endif
  if (const char* v = std::getenv("PSME_TRACE"); v != nullptr && *v != '\0') {
    return "PSME_TRACE is set (the library would trace the run)";
  }
  if (const char* v = std::getenv("PSME_FLIGHT"); v != nullptr && *v != '\0') {
    return "PSME_FLIGHT is set (the flight recorder would snapshot every decision)";
  }
  return nullptr;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <soar_learn|query_churn|group_wave> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test\n");
}


}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else {
      usage();
      return 2;
    }
  }
  if (self_test) {
    const int failures = pb::run_self_tests();
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (!known || seconds <= 0 || (trace != 0 && trace != 1)) {
    usage();
    return 2;
  }
  if (const char* why = refusal(); why != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why);
    return 3;
  }

  pb::Config cfg;
  cfg.seed = seed;
  cfg.seconds = seconds;
  pb::SpanLog log(trace == 1 ? size_t{1} << 22 : 0);
  if (trace == 1) cfg.spans = &log;
  PassResult r = run_workload(workload, cfg);
  std::vector<Metric> metrics = pb::end_to_end(r);
  if (r.threads != 1) {
    r.errors.push_back("the timed loop ran with " + std::to_string(r.threads) +
                       " threads; the benchmark starts none");
  }
  std::fprintf(stderr, "%s seed %llu%s: %zu ops\n", workload.c_str(),
               static_cast<unsigned long long>(seed), trace == 1 ? " (traced)" : "",
               r.op_ms.size());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  if (trace == 1) {
    if (log.dropped() > 0) r.errors.push_back(std::to_string(log.dropped()) + " spans dropped");
    const std::string out_dir = ".bench_out";
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path =
        out_dir + "/trace-" + workload + "-seed" + std::to_string(seed) + ".json";
    if (!log.write_chrome(path)) r.errors.push_back("could not write " + path);
    std::fprintf(stderr, "  %zu spans in %s\n", log.spans().size(), path.c_str());
    std::fprintf(stderr, "  %-36s %14s %-8s %s\n", "per-layer metric", "value", "unit",
                 "should move (end-to-end @ workload)");
    for (const LayerSpec& l : kLayers) {
      if (workload != l.workload) continue;
      const auto it = r.layers.find(l.name);
      if (it == r.layers.end()) {
        r.errors.push_back(std::string("layer metric missing: ") + l.name);
        continue;
      }
      metrics.push_back({l.name, it->second, l.unit});
      std::fprintf(stderr, "  %-36s %14.6g %-8s %s @ %s\n", l.name, it->second, l.unit,
                   l.moves, l.workload);
    }
    metrics.push_back({"accounted." + workload, r.accounted, "frac"});
    std::fprintf(stderr, "  %-36s %14.6g frac     (layer time / op time)\n",
                 ("accounted." + workload).c_str(), r.accounted);
  }
  for (const std::string& e : r.errors) std::fprintf(stderr, "  FAILED: %s\n", e.c_str());
  const bool correct = r.errors.empty() && r.failed == 0;

  std::vector<Metric> counts;
  for (const auto& [name, value] : r.counts) {
    counts.push_back({name, value, count_unit(name)});
  }
  std::printf("{\"host\": {\"nproc\": %llu, \"loadavg_1m\": %s, \"matcher_threads\": %llu}, "
              "\"exact_counts\": %s}\n",
              static_cast<unsigned long long>(pb::nproc()),
              pb::json_number(pb::loadavg_1m()).c_str(),
              static_cast<unsigned long long>(r.threads), pb::metrics_json(counts).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), pb::metrics_json(metrics).c_str());
  return 0;
}
