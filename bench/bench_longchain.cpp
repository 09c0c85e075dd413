// Adversarial long-chain workload: deep *linear* join chains — the shape of
// monitor-strips-state-6..11, which the cost linter flags at chain depths
// 31..63 and which the paper's Figures 6-5/6-7 identify as the long-chain
// speedup limiter. Every head-wme addition spawns a dependent activation
// chain as deep as the production, so the cycle's tail serializes on
// whichever workers own the chains: a link cannot start before its parent,
// so only the chains themselves, not their links, can go to other workers.
//
// Measured, per worker count (2, 4, 8) on real threads: wall time of the
// add cycles, private-run, share and steal counts, and the speedup against
// the serial executor on the identical workload.
//
// The same recorded serial traces also drive a virtual-processor sweep to
// 256 VPs (psim has no processor cap — only the paper-faithful benches stop
// at 13), previewing where the chain-bound workload saturates on machines
// no 1988 Encore could be (ROADMAP carryover item).
//
// Output: one JSON document on stdout (the `longchain_bench_smoke` ctest
// checks it), human tables on stderr.
//
//   $ bench_longchain [rounds] [values] [reps]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "obs/export.h"
#include "par/parallel_match.h"

using namespace psme;
using namespace psme::bench;

namespace {

class SeedCollector final : public ExecContext {
 public:
  void emit(Activation&& a) override { seeds.push_back(std::move(a)); }
  std::vector<Activation> seeds;
};

const std::vector<int>& chain_depths() {
  static const std::vector<int> d = {31, 47, 63};
  return d;
}

std::string chain_class(int depth, int i) {
  return "d" + std::to_string(depth) + "-c" + std::to_string(i);
}

/// One linear chain production of `depth` conditions, all binding the same
/// variable: (p chain-63 (d63-c0 ^v <x>) (d63-c1 ^v <x>) ... --> (halt)).
/// The first condition is the chain head; a head wme's token cascades
/// through every join below it, one dependent activation per level.
std::string chain_production(int depth) {
  std::string p = "(p chain-" + std::to_string(depth);
  for (int i = 0; i < depth; ++i) {
    p += " (" + chain_class(depth, i) + " ^v <x>)";
  }
  p += " --> (halt))";
  return p;
}

std::string all_productions() {
  std::string src;
  for (const int d : chain_depths()) src += chain_production(d) + "\n";
  return src;
}

/// Loads the chains and settles the right-hand sides: every non-head class
/// gets one wme per value, so each head wme later completes exactly one
/// full-depth token per level — a pure linear cascade, no fan-out to hide
/// the chain behind.
void settle_rhs(Engine& e, int values) {
  e.load(all_productions());
  for (const int d : chain_depths()) {
    for (int i = 1; i < d; ++i) {
      for (int v = 0; v < values; ++v) {
        e.add_wme_text("(" + chain_class(d, i) + " ^v " + std::to_string(v) +
                       ")");
      }
    }
  }
  e.match();
}

std::vector<std::string> head_texts(int values) {
  std::vector<std::string> out;
  for (const int d : chain_depths()) {
    for (int v = 0; v < values; ++v) {
      out.push_back("(" + chain_class(d, 0) + " ^v " + std::to_string(v) +
                    ")");
    }
  }
  return out;
}

struct SerialResult {
  double wall_seconds = 0;  // add cycles only (the measured cycles)
  uint64_t tasks = 0;
  size_t cs_peak = 0;                // CS size with all heads present
  std::vector<CycleTrace> traces;    // add-cycle traces, for the VP sweep
};

SerialResult run_serial(int rounds, int values) {
  SerialResult r;
  Engine e(recorded());
  settle_rhs(e, values);
  const auto heads = head_texts(values);
  for (int round = 0; round < rounds; ++round) {
    std::vector<const Wme*> added;
    for (const auto& h : heads) added.push_back(e.add_wme_text(h));
    const auto t0 = std::chrono::steady_clock::now();
    CycleTrace t = e.match();
    r.wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    r.tasks += t.task_count();
    r.cs_peak = e.cs().size();
    r.traces.push_back(std::move(t));
    for (const Wme* w : added) e.remove_wme(w);
    e.match();  // delete chains drain un-measured, like the parallel configs
  }
  return r;
}

struct ParResult {
  size_t workers = 0;
  ParallelStats stats;  // add cycles only
  size_t cs_peak = 0;
  bool cs_ok = false;
};

ParResult run_parallel(size_t workers, int rounds, int values,
                       size_t expect_cs_peak) {
  ParResult r;
  r.workers = workers;
  Engine e;
  settle_rhs(e, values);
  ParallelMatcher matcher(e.net(), workers);
  matcher.register_agent(e.state());
  const auto heads = head_texts(values);
  r.cs_ok = true;
  for (int round = 0; round < rounds; ++round) {
    std::vector<const Wme*> added;
    for (const auto& h : heads) added.push_back(e.add_wme_text(h));
    SeedCollector sc;
    for (const Wme* w : added) e.net().inject(w, true, sc);
    r.stats.accumulate(matcher.run_cycle(sc.seeds));
    e.wm().end_cycle();
    r.cs_peak = e.cs().size();
    r.cs_ok = r.cs_ok && r.cs_peak == expect_cs_peak;

    SeedCollector del;
    for (const Wme* w : added) {
      e.net().inject(w, false, del);
      e.wm().remove(w);
    }
    matcher.run_cycle(del.seeds);
    e.wm().end_cycle();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 6;
  const int values = argc > 2 ? std::atoi(argv[2]) : 8;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 3;

  std::fprintf(stderr,
               "bench_longchain: linear chains at depths 31/47/63, %d rounds, "
               "%d values, best of %d\n",
               rounds, values, reps);

  // Serial oracle + trace source. The traces are identical across reps, so
  // keep the first rep's and take the minimum wall time.
  SerialResult serial = run_serial(rounds, values);
  for (int rep = 1; rep < reps; ++rep) {
    const SerialResult one = run_serial(rounds, values);
    if (one.wall_seconds < serial.wall_seconds) {
      serial.wall_seconds = one.wall_seconds;
    }
  }
  std::fprintf(stderr,
               "serial: %.2f ms over %d add cycles, %llu tasks, CS peak %zu\n",
               serial.wall_seconds * 1e3, rounds,
               static_cast<unsigned long long>(serial.tasks), serial.cs_peak);

  std::fprintf(stderr, "\n%-8s %10s %10s %10s %9s %8s %8s %8s %5s\n",
               "workers", "wall_ms", "speedup", "tasks/sec", "inline",
               "shares", "steals", "fail_sw", "CS?");
  std::vector<ParResult> records;
  for (const size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
    ParResult best;
    bool cs_ok = true;  // every rep's CS is checked, not just the kept one
    for (int rep = 0; rep < reps; ++rep) {
      ParResult one = run_parallel(workers, rounds, values, serial.cs_peak);
      cs_ok = cs_ok && one.cs_ok;
      if (rep == 0 || one.stats.wall_seconds < best.stats.wall_seconds) {
        best = std::move(one);
      }
    }
    best.cs_ok = cs_ok;
    const double speedup = best.stats.wall_seconds > 0
                               ? serial.wall_seconds / best.stats.wall_seconds
                               : 0.0;
    const double tps = best.stats.wall_seconds > 0
                           ? best.stats.tasks / best.stats.wall_seconds
                           : 0.0;
    std::fprintf(stderr,
                 "%-8zu %10.2f %10.2f %10.0f %9llu %8llu %8llu %8llu %5s\n",
                 best.workers, best.stats.wall_seconds * 1e3, speedup, tps,
                 static_cast<unsigned long long>(best.stats.chain_inline),
                 static_cast<unsigned long long>(best.stats.shares),
                 static_cast<unsigned long long>(best.stats.steals),
                 static_cast<unsigned long long>(best.stats.failed_sweeps),
                 best.cs_ok ? "yes" : "NO");
    records.push_back(std::move(best));
  }

  // Virtual-processor sweep over the recorded serial traces: the chain-bound
  // saturation curve, out to VP counts far past the paper's 13.
  std::fprintf(stderr, "\nVP sweep (psim, recorded serial traces):\n%-6s %10s %10s\n",
               "procs", "steal", "multi");
  struct VpPoint {
    uint32_t procs;
    double steal, multi;
  };
  std::vector<VpPoint> vp;
  for (const uint32_t p : wide_process_counts()) {
    VpPoint pt{p, speedup_at(serial.traces, p, QueuePolicy::Steal),
               speedup_at(serial.traces, p, QueuePolicy::Multi)};
    std::fprintf(stderr, "%-6u %10.2f %10.2f\n", pt.procs, pt.steal, pt.multi);
    vp.push_back(pt);
  }

  bool cs_ok_all = true;
  for (const ParResult& r : records) cs_ok_all = cs_ok_all && r.cs_ok;

  JsonWriter j(stdout);
  j.begin_object();
  j.field("bench", "longchain");
  j.field("workload",
          "linear join chains at depths 31/47/63 (Fig 6-5/6-7 limiter)");
  j.field("rounds", static_cast<uint64_t>(rounds));
  j.field("values", static_cast<uint64_t>(values));
  j.begin_object("serial");
  j.field("wall_seconds", serial.wall_seconds);
  j.field("tasks", serial.tasks);
  j.field("cs_peak", static_cast<uint64_t>(serial.cs_peak));
  j.end_object();
  j.begin_array("records");
  for (const ParResult& r : records) {
    j.begin_object();
    j.field("workers", static_cast<uint64_t>(r.workers));
    j.field("wall_seconds", r.stats.wall_seconds);
    j.field("tasks", r.stats.tasks);
    j.field("speedup_vs_serial", r.stats.wall_seconds > 0
                                     ? serial.wall_seconds /
                                           r.stats.wall_seconds
                                     : 0.0);
    j.field("chain_inline", r.stats.chain_inline);
    j.field("shares", r.stats.shares);
    j.field("steals", r.stats.steals);
    j.field("failed_sweeps", r.stats.failed_sweeps);
    j.field("sweep_backoff_ns", r.stats.sweep_backoff_ns);
    j.field("parks", r.stats.parks);
    j.field("cs_ok", r.cs_ok ? "true" : "false");
    obs::MetricsRegistry reg;
    obs::collect(reg, r.stats);
    write_metrics(j, "metrics", reg);
    j.end_object();
  }
  j.end_array();
  j.begin_array("vp_sweep");
  for (const VpPoint& p : vp) {
    j.begin_object();
    j.field("processors", static_cast<uint64_t>(p.procs));
    j.field("steal_speedup", p.steal);
    j.field("multi_speedup", p.multi);
    j.end_object();
  }
  j.end_array();
  j.field("cs_consistent", cs_ok_all ? "true" : "false");
  j.end_object();
  j.finish();

  return cs_ok_all ? 0 : 1;
}
