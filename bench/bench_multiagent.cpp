// Multi-agent serving bench: N independent agent sessions multiplexed over
// ONE shared CompiledNetwork and ONE worker pool (AgentGroup), swept over
// session counts {1, 4, 16, 64}. Each agent runs the same lightly-loaded
// per-cycle workload (a small wme wave plus a removal slice — the "many
// small sessions" serving regime the network/state split targets), and the
// group drains every agent's cycle through two batched fork-joins per step.
//
// Measured per session count:
//   * aggregate throughput in agent-cycles/sec (N agents served per step);
//   * p50/p99 step latency (wall time of one batched group cycle).
//
// The headline is aggregate throughput at 16 agents vs 1 agent on the same
// workers (8 by default): one agent pays the pool's dispatch/park overhead
// on every cycle; 16 agents amortize it across 16 sessions' worth of match
// work.
// The differential in tests/multiagent_test.cpp proves the batched drains
// leave every agent bit-identical to an isolated engine; this bench prices
// them.
//
// Output: one JSON document on stdout (the `multiagent_bench_smoke` ctest
// checks it), human-readable tables on stderr.
//
//   $ bench_multiagent [rounds] [wave] [reps] [soar-sessions] [workers]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/profile_report.h"
#include "engine/agent_group.h"
#include "harness.h"
#include "obs/profiler.h"
#include "par/parallel_match.h"

using namespace psme;
using namespace psme::bench;

namespace {

std::string bench_productions() {
  return "(p j2 (a ^v <x>) (b ^v <x>) --> (halt))"
         "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (halt))"
         "(p neg (a ^v <x>) -(blocker ^v <x>) --> (halt))"
         "(p cross (a ^v <x>) (c ^w <y>) --> (halt))";
}

/// One agent's per-cycle workload: values offset by the agent index so no
/// two sessions share token content (distinct per-session state is the
/// serving scenario; shared content would be unrealistically cache-friendly).
void queue_wave(Engine& e, size_t agent, int wave, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string v =
        std::to_string((i + wave * 3 + static_cast<int>(agent) * 11) % 13);
    e.add_wme_text("(a ^v " + v + ")");
    if (i % 2 == 0) e.add_wme_text("(b ^v " + v + ")");
    if (i % 3 == 0) e.add_wme_text("(c ^v " + v + " ^w " + v + ")");
  }
}

/// Queue removal of roughly 1/3 of the agent's live wmes (keeps WM bounded
/// across rounds; the removals drain in step_all's first batched cycle).
void queue_trim(Engine& e) {
  std::vector<const Wme*> victims;
  int i = 0;
  for (const Wme* w : e.wm().live()) {
    if (++i % 3 == 0) victims.push_back(w);
  }
  for (const Wme* w : victims) e.remove_wme(w);
}

struct Record {
  size_t agents = 0;
  int steps = 0;                  // batched group cycles measured
  double wall_seconds = 0;        // sum of measured step latencies
  double p50_ms = 0, p99_ms = 0;  // step latency percentiles
  uint64_t tasks = 0;             // scheduler tasks over the window
  double agent_cycles_per_sec = 0;
  analysis::ProfileReport prof;   // only filled by profiled runs
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

/// `profile_shift` < 0 runs with the profiler off; >= 0 turns the group's
/// shared match profiler on at that sampling shift and fills Record::prof
/// (per-production AND per-agent attribution over the shared shards).
Record run_config(size_t agents, size_t workers, int rounds, int wave,
                  int profile_shift = -1) {
  AgentGroupOptions gopts;
  gopts.workers = workers;
  if (profile_shift >= 0) {
    gopts.agent.profile = true;
    gopts.agent.profile_sample_shift = static_cast<uint32_t>(profile_shift);
  }
  AgentGroup group(gopts);
  for (size_t a = 0; a < agents; ++a) group.add_agent();
  group.load(bench_productions());

  Record r;
  r.agents = agents;

  const int warmup = 4;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(rounds));
  for (int round = 0; round < warmup + rounds; ++round) {
    for (size_t a = 0; a < agents; ++a) {
      Engine& e = group.agent(a);
      if (round > 0) queue_trim(e);
      queue_wave(e, a, round, wave);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const ParallelStats st = group.step_all();
    const auto t1 = std::chrono::steady_clock::now();
    if (round >= warmup) {
      r.tasks += st.tasks;
      const double s = std::chrono::duration<double>(t1 - t0).count();
      latencies.push_back(s * 1e3);
      r.wall_seconds += s;
      ++r.steps;
    }
  }
  r.p50_ms = percentile(latencies, 0.50);
  r.p99_ms = percentile(latencies, 0.99);
  r.agent_cycles_per_sec =
      r.wall_seconds > 0
          ? static_cast<double>(agents) * r.steps / r.wall_seconds
          : 0;
  if (group.profiler() != nullptr) {
    r.prof = analysis::build_profile_report(group.agent(0).net(),
                                            group.agent(0).all_records(),
                                            group.profiler()->snapshot());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 30;
  const int wave = argc > 2 ? std::atoi(argv[2]) : 6;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 3;
  const size_t workers =
      argc > 5 ? std::max<size_t>(1, std::strtoul(argv[5], nullptr, 10)) : 8;
  const std::vector<size_t> session_counts = {1, 4, 16, 64};

  std::fprintf(stderr,
               "bench_multiagent: %d rounds, wave %d/agent, best of %d, "
               "%zu workers, sessions {1,4,16,64}\n",
               rounds, wave, reps, workers);
  std::fprintf(stderr, "%8s %7s %12s %14s %10s %10s\n", "agents", "steps",
               "wall_ms", "agent-cyc/sec", "p50_ms", "p99_ms");

  std::vector<Record> records;
  for (const size_t n : session_counts) {
    Record best;
    for (int rep = 0; rep < reps; ++rep) {
      Record one = run_config(n, workers, rounds, wave);
      if (rep == 0 || one.wall_seconds < best.wall_seconds) {
        best = std::move(one);
      }
    }
    std::fprintf(stderr, "%8zu %7d %12.2f %14.0f %10.3f %10.3f\n",
                 best.agents, best.steps, best.wall_seconds * 1e3,
                 best.agent_cycles_per_sec, best.p50_ms, best.p99_ms);
    records.push_back(std::move(best));
  }

  auto throughput_of = [&](size_t n) {
    for (const Record& r : records) {
      if (r.agents == n) return r.agent_cycles_per_sec;
    }
    return 0.0;
  };
  const double base = throughput_of(1);
  const double ratio16 = base > 0 ? throughput_of(16) / base : 0;
  std::fprintf(stderr,
               "\naggregate throughput at 16 sessions vs 1: %.2fx "
               "(acceptance floor 2.0x)\n",
               ratio16);

  // Profiled 16-session run (sampled 1 in 64): the shared profiler's
  // per-agent cells attribute the shared pool's work back to individual
  // sessions — the multi-tenant attribution surface. Overhead is measured
  // against the profiler-off 16-session record above.
  Record prof16;
  for (int rep = 0; rep < reps; ++rep) {
    Record one = run_config(16, workers, rounds, wave, /*profile_shift=*/6);
    if (rep == 0 || one.wall_seconds < prof16.wall_seconds) {
      prof16 = std::move(one);
    }
  }
  double wall_off16 = 0;
  for (const Record& r : records) {
    if (r.agents == 16) wall_off16 = r.wall_seconds;
  }
  const double prof_overhead_pct =
      wall_off16 > 0 ? (prof16.wall_seconds - wall_off16) / wall_off16 * 100.0
                     : 0.0;
  std::fprintf(stderr,
               "\nprofiled 16 sessions (sampled 1/64): wall %.2f ms vs "
               "%.2f ms off (%+.1f%%); per-agent attribution:\n",
               prof16.wall_seconds * 1e3, wall_off16 * 1e3, prof_overhead_pct);
  for (const analysis::AgentProfile& a : prof16.prof.agents) {
    std::fprintf(stderr, "  agent %2u: %10llu activations %12.2f est_us\n",
                 a.agent, static_cast<unsigned long long>(a.activations),
                 a.est_us);
  }

  // Per-phase attribution across Soar sessions over one shared network and
  // one shared pool: Elaborate drains through the parallel matcher; Decide
  // and GC run serially between drains. Their aggregate share at 16 sessions
  // answers the ROADMAP question of whether the serial gap matters at scale.
  const int soar_sessions = argc > 4 ? std::atoi(argv[4]) : 16;
  uint64_t ph_elab_ns = 0, ph_dec_ns = 0, ph_gc_ns = 0, ph_decisions = 0;
  bool soar_all_solved = true;
  {
    const Task task = make_task("eight-puzzle");
    auto cnet = std::make_shared<CompiledNetwork>();
    ParallelMatcher matcher(cnet->net(), workers);
    std::vector<std::unique_ptr<SoarKernel>> kernels;  // sessions stay attached
    for (int a = 0; a < soar_sessions; ++a) {
      SoarOptions sopts;
      sopts.learning = true;
      sopts.max_decisions = task.max_decisions;
      kernels.push_back(std::make_unique<SoarKernel>(sopts, cnet, &matcher));
      SoarKernel& k = *kernels.back();
      if (a == 0) k.load_productions(task.productions);
      task.init(k);
      const SoarRunStats st = k.run();
      ph_elab_ns += st.elaborate_ns;
      ph_dec_ns += st.decide_ns;
      ph_gc_ns += st.gc_ns;
      ph_decisions += st.decisions;
      soar_all_solved = soar_all_solved && st.goal_achieved;
    }
  }
  const uint64_t ph_total_ns = ph_elab_ns + ph_dec_ns + ph_gc_ns;
  const double serial_share_pct =
      ph_total_ns > 0
          ? 100.0 * static_cast<double>(ph_dec_ns + ph_gc_ns) /
                static_cast<double>(ph_total_ns)
          : 0.0;
  std::fprintf(
      stderr,
      "\nsoar phase attribution (%d eight-puzzle sessions, shared network, "
      "%zu workers): elaborate %.2f ms (%.1f%%), decide %.2f ms (%.1f%%), "
      "gc %.2f ms (%.1f%%) over %llu decisions — serial decide+gc share "
      "%.1f%%%s\n",
      soar_sessions, workers, ph_elab_ns / 1e6,
      ph_total_ns > 0 ? 100.0 * ph_elab_ns / ph_total_ns : 0.0,
      ph_dec_ns / 1e6, ph_total_ns > 0 ? 100.0 * ph_dec_ns / ph_total_ns : 0.0,
      ph_gc_ns / 1e6, ph_total_ns > 0 ? 100.0 * ph_gc_ns / ph_total_ns : 0.0,
      static_cast<unsigned long long>(ph_decisions), serial_share_pct,
      soar_all_solved ? "" : "  (!! some sessions unsolved)");

  JsonWriter j(stdout);
  j.begin_object();
  j.field("bench", "multiagent");
  j.field("workload", "N agent sessions over one shared network and one " +
                          std::to_string(workers) +
                          "-worker pool, batched group cycles");
  j.field("workers", static_cast<uint64_t>(workers));
  j.field("rounds", static_cast<uint64_t>(rounds));
  j.field("wave_per_agent", static_cast<uint64_t>(wave));
  j.begin_array("records");
  for (const Record& r : records) {
    j.begin_object();
    j.field("agents", static_cast<uint64_t>(r.agents));
    j.field("steps", static_cast<uint64_t>(r.steps));
    j.field("wall_seconds", r.wall_seconds);
    j.field("agent_cycles_per_sec", r.agent_cycles_per_sec);
    j.field("p50_step_ms", r.p50_ms);
    j.field("p99_step_ms", r.p99_ms);
    j.field("tasks", r.tasks);
    j.field("throughput_vs_1", base > 0 ? r.agent_cycles_per_sec / base : 0);
    j.end_object();
  }
  j.end_array();
  j.field("speedup_16_vs_1", ratio16);
  // Profiled 16-session run: overhead plus per-agent attribution through
  // the shared profiler's agent cells.
  j.begin_object("profile");
  j.field("agents", static_cast<uint64_t>(16));
  j.field("sample_shift", static_cast<uint64_t>(6));
  j.field("wall_off_seconds", wall_off16);
  j.field("wall_profiled_seconds", prof16.wall_seconds);
  j.field("overhead_pct", prof_overhead_pct);
  write_profile(j, "sampled", prof16.prof);
  j.begin_array("per_agent");
  for (const analysis::AgentProfile& a : prof16.prof.agents) {
    j.begin_object();
    j.field("agent", static_cast<uint64_t>(a.agent));
    j.field("acts", a.activations);
    j.field("est_us", a.est_us);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  // Per-phase attribution of the Soar-sessions run (elaborate drains the
  // shared pool; decide and gc are the serial gap between drains).
  j.begin_object("soar_phases");
  j.field("sessions", static_cast<uint64_t>(soar_sessions));
  j.field("task", "eight-puzzle");
  j.field("decisions", ph_decisions);
  j.field("elaborate_ns", ph_elab_ns);
  j.field("decide_ns", ph_dec_ns);
  j.field("gc_ns", ph_gc_ns);
  j.field("serial_decide_gc_share_pct", serial_share_pct);
  j.field("all_solved", soar_all_solved ? "true" : "false");
  j.end_object();
  j.end_object();
  j.finish();

  return 0;
}
