// soar_learn: the paper's three Soar tasks (eight-puzzle, strips, cypress)
// with learning on, one fresh SoarKernel per episode, default EngineOptions
// (serial executor). A round is one episode of each task in a seeded order.
// op = the interval between consecutive decision-listener calls; set-up =
// kernel construction + load_productions + Task::init.
//
// After the timed rounds an untimed recorded pass (record_traces = true set
// explicitly) runs one round in registry order and feeds its task DAGs
// (elaboration cycles and §5.2 chunk updates) to psim at 8 processors.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "lang/parser.h"
#include "psim/sim.h"
#include "tasks/registry.h"

namespace pb {
namespace {

using psme::SoarKernel;
using psme::SoarOptions;
using psme::SoarRunStats;
using psme::Task;

struct Episode {
  uint64_t decisions = 0;
  uint64_t chunks = 0;
  uint64_t elab_cycles = 0;
  bool goal = false;
  uint64_t elab_ns = 0, decide_ns = 0, gc_ns = 0;
  uint64_t spill_bytes = 0;
  double setup_s = 0, run_s = 0;
  double parse_s = 0, load_s = 0, init_s = 0;  // parse only when traced
  double chunk_compile_s = 0;
};

struct SpanNames {
  uint32_t parse, episode, ctor, load, init, run, decision;
};

/// Per-decision latencies of a traced pass, split by whether the decision
/// added a chunk.
struct DecisionSplit {
  std::vector<double> chunk_ms, plain_ms;
};

Episode run_episode(const Task& task, PassResult& r, SpanLog* log,
                    const SpanNames& nm, uint64_t& op_seq,
                    DecisionSplit& split) {
  Episode ep;
  std::vector<uint64_t> stamps;
  std::vector<size_t> prods;
  stamps.reserve(task.max_decisions + 1);
  prods.reserve(task.max_decisions + 1);

  if (log != nullptr) {
    // Parser cost, measured on the same source outside any op span.
    psme::SymbolTable syms;
    psme::ClassSchemas schemas;
    psme::RhsArena arena;
    psme::Parser parser(syms, schemas, arena);
    Scope s(log, nm.parse, kNoSpan, 0);
    const uint64_t t = now_ns();
    [[maybe_unused]] const auto parsed = parser.parse_file(task.productions);
    ep.parse_s = static_cast<double>(now_ns() - t) / 1e9;
  }

  Scope episode(log, nm.episode, kNoSpan, 0);
  const uint64_t t0 = now_ns();
  std::unique_ptr<SoarKernel> k;
  {
    Scope s(log, nm.ctor, episode.id(), 0);
    SoarOptions so;
    so.learning = true;
    so.max_decisions = task.max_decisions;
    k = std::make_unique<SoarKernel>(so);
  }
  const uint64_t t1 = now_ns();
  {
    Scope s(log, nm.load, episode.id(), 0);
    k->load_productions(task.productions);
  }
  const uint64_t t2 = now_ns();
  {
    Scope s(log, nm.init, episode.id(), 0);
    task.init(*k);
  }
  const uint64_t t3 = now_ns();
  ep.setup_s = static_cast<double>(t3 - t0) / 1e9;
  ep.load_s = static_cast<double>(t2 - t1) / 1e9;
  ep.init_s = static_cast<double>(t3 - t2) / 1e9;

  k->set_decision_listener([&](SoarKernel& kk) {
    stamps.push_back(now_ns());
    prods.push_back(kk.engine().productions().size());
  });
  size_t prev_prods = k->engine().productions().size();
  const uint32_t run_span =
      log != nullptr ? log->open(nm.run, episode.id(), 0) : kNoSpan;
  const uint64_t r0 = now_ns();
  const SoarRunStats st = k->run();
  const uint64_t r1 = now_ns();
  if (log != nullptr) log->close(run_span, r1);

  uint64_t prev = r0;
  for (size_t i = 0; i < stamps.size(); ++i) {
    const double ms = static_cast<double>(stamps[i] - prev) / 1e6;
    r.op_ms.push_back(ms);
    ++op_seq;
    if (log != nullptr) {
      log->add(nm.decision, run_span, op_seq, prev, stamps[i]);
      (prods[i] > prev_prods ? split.chunk_ms : split.plain_ms).push_back(ms);
    }
    prev = stamps[i];
    prev_prods = prods[i];
  }
  ep.run_s = static_cast<double>(r1 - r0) / 1e9;
  ep.decisions = stamps.size();
  ep.chunks = st.chunks_built;
  ep.elab_cycles = st.elab_cycles;
  ep.goal = st.goal_achieved;
  ep.elab_ns = st.elaborate_ns;
  ep.decide_ns = st.decide_ns;
  ep.gc_ns = st.gc_ns;
  for (const auto& c : st.chunk_costs) ep.chunk_compile_s += c.compile_seconds;
  psme::obs::MetricsRegistry m;
  k->engine().collect_metrics(m);
  ep.spill_bytes = m.value("arena.spill_bytes");
  return ep;
}

bool same_outcome(const Episode& a, const Episode& b) {
  return a.goal && b.goal && a.decisions == b.decisions &&
         a.chunks == b.chunks && a.elab_cycles == b.elab_cycles;
}

}  // namespace

PassResult run_soar_learn(const Config& cfg) {
  PassResult r;
  std::vector<Task> tasks;
  for (const std::string& name : psme::task_names()) {
    tasks.push_back(psme::make_task(name));
  }
  const size_t n_tasks = tasks.size();

  SpanLog* log = cfg.spans;
  SpanNames nm{};
  if (log != nullptr) {
    nm = {log->name_id("lang.parse_file"), log->name_id("soar.episode"),
          log->name_id("soar.kernel_ctor"), log->name_id("soar.load_productions"),
          log->name_id("soar.init"), log->name_id("soar.run"),
          log->name_id("soar.decision")};
  }

  Rng order_rng(cfg.seed, 1);
  std::vector<size_t> order(n_tasks);
  auto next_order = [&] {
    for (size_t i = 0; i < n_tasks; ++i) order[i] = i;
    for (size_t i = n_tasks - 1; i > 0; --i) {
      std::swap(order[i], order[order_rng.below(static_cast<uint32_t>(i + 1))]);
    }
  };

  // First round: untimed warm-up, and the reference every later round must
  // reproduce (goal reached, same decision/chunk/elaboration counts).
  std::vector<Episode> ref(n_tasks);
  {
    PassResult scratch;
    uint64_t seq = 0;
    DecisionSplit unused;
    next_order();
    for (const size_t t : order) {
      ref[t] = run_episode(tasks[t], scratch, nullptr, SpanNames{}, seq, unused);
      if (!ref[t].goal) {
        r.errors.push_back("soar_learn: " + tasks[t].name +
                           " did not reach its goal in the first round");
      }
    }
  }
  uint64_t ref_chunks = 0, ref_spill = 0;
  for (const Episode& e : ref) {
    ref_chunks += e.chunks;
    ref_spill += e.spill_bytes;
  }

  // Timed rounds, one CPU each.
  uint64_t op_seq = 0;
  DecisionSplit split;
  CpuRotation cpus;
  std::vector<double> parse_ms, compile_ms, init_ms, chunk_compile_ms;
  uint64_t elab_ns = 0, decide_ns = 0, gc_ns = 0, decisions = 0,
           elab_cycles = 0;
  double run_s = 0;
  const uint64_t start = now_ns();
  while (static_cast<double>(now_ns() - start) / 1e9 < cfg.seconds ||
         r.op_ms.size() < kMinOps) {
    cpus.next();
    next_order();
    double setup = 0, parse = 0, compile = 0, init = 0, chunk_compile = 0;
    PassResult::Window window;
    for (const size_t t : order) {
      const Episode ep = run_episode(tasks[t], r, log, nm, op_seq, split);
      r.attempted += ep.decisions;
      if (!same_outcome(ep, ref[t])) {
        r.failed += ep.decisions;
        if (r.errors.size() < 20) r.errors.push_back("soar_learn: " + tasks[t].name + " gave " +
                           std::to_string(ep.decisions) + " decisions / " +
                           std::to_string(ep.chunks) + " chunks, first round " +
                           std::to_string(ref[t].decisions) + " / " +
                           std::to_string(ref[t].chunks));
      }
      setup += ep.setup_s;
      parse += ep.parse_s;
      compile += ep.load_s - ep.parse_s;
      init += ep.init_s;
      chunk_compile += ep.chunk_compile_s;
      window.ops += ep.decisions;
      window.loop_seconds += ep.run_s;
      run_s += ep.run_s;
      elab_ns += ep.elab_ns;
      decide_ns += ep.decide_ns;
      gc_ns += ep.gc_ns;
      decisions += ep.decisions;
      elab_cycles += ep.elab_cycles;
    }
    r.windows.push_back(window);
    r.setup_s.push_back(setup);
    parse_ms.push_back(parse * 1e3);
    compile_ms.push_back(compile * 1e3);
    init_ms.push_back(init * 1e3);
    chunk_compile_ms.push_back(chunk_compile * 1e3);
  }
  r.threads = thread_count();
  r.peak_rss_mb = peak_rss_mb();

  // Recorded pass: one round in registry order with DAG recording set
  // explicitly, so psim's input does not depend on the library default.
  std::vector<psme::CycleTrace> dags;
  uint64_t match_tasks = 0, update_tasks = 0;
  for (size_t t = 0; t < n_tasks; ++t) {
    SoarOptions so;
    so.learning = true;
    so.max_decisions = tasks[t].max_decisions;
    so.engine.record_traces = true;
    SoarKernel k(so);
    k.load_productions(tasks[t].productions);
    tasks[t].init(k);
    SoarRunStats st = k.run();
    if (!st.goal_achieved || st.decisions != ref[t].decisions ||
        st.chunks_built != ref[t].chunks) {
      r.errors.push_back("soar_learn: recorded pass of " + tasks[t].name +
                         " disagrees with the first round");
    }
    for (auto* list : {&st.traces, &st.update_ab, &st.update_c}) {
      for (psme::CycleTrace& c : *list) {
        (list == &st.traces ? match_tasks : update_tasks) += c.task_count();
        dags.push_back(std::move(c));
      }
    }
  }
  psme::SimOptions sim;
  sim.processors = 8;
  sim.policy = psme::QueuePolicy::Steal;
  const psme::SimRunResult sr = psme::simulate_run(dags, sim);

  r.counts["engine.match_tasks"] = static_cast<double>(match_tasks);
  r.counts["rete.chunk_update_tasks"] = static_cast<double>(update_tasks);
  r.counts["soar.chunks_built"] = static_cast<double>(ref_chunks);
  r.counts["psim.sim_match_s_p8"] = sr.parallel_us / 1e6;

  if (log != nullptr) {
    const double d = decisions > 0 ? static_cast<double>(decisions) : 1;
    auto& L = r.layers;
    L["lang.parse_ms"] = median(parse_ms);
    L["rete.compile_ms"] = median(compile_ms);
    L["soar.init_ms"] = median(init_ms);
    L["rete.chunk_compile_ms"] = median(chunk_compile_ms);
    L["rete.chunk_update_tasks"] = static_cast<double>(update_tasks);
    L["engine.match_tasks"] = static_cast<double>(match_tasks);
    L["engine.elab_cycles"] = static_cast<double>(elab_cycles) / d;
    L["soar.elaborate_ms"] = static_cast<double>(elab_ns) / 1e6 / d;
    L["soar.decide_ms"] = static_cast<double>(decide_ns) / 1e6 / d;
    L["soar.gc_ms"] = static_cast<double>(gc_ns) / 1e6 / d;
    L["soar.chunks_built"] = static_cast<double>(ref_chunks);
    L["soar.chunk_decision_ms_p50"] = median(split.chunk_ms);
    L["soar.plain_decision_ms_p50"] = median(split.plain_ms);
    L["base.arena_spill_bytes"] = static_cast<double>(ref_spill);
    L["psim.sim_match_s_p8"] = sr.parallel_us / 1e6;
    L["psim.speedup_p8"] = sr.speedup();
    L["psim.spins_per_task"] = sr.spins_per_task();
    // The kernel's phase clocks against the run() spans that hold them.
    r.accounted = run_s > 0 ? static_cast<double>(elab_ns + decide_ns + gc_ns) /
                                  1e9 / run_s
                            : 0;
  }
  return r;
}

}  // namespace pb
