// Shared benchmark harness: runs the paper's three Soar systems in the three
// regimes (without chunking / during chunking / after chunking), collects the
// per-cycle task traces, and provides the virtual-multiprocessor sweeps that
// regenerate the paper's tables and figures.
//
// Every bench binary prints the paper's reported values next to the measured
// ones; EXPERIMENTS.md records the comparison.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/profile_report.h"
#include "obs/metrics.h"
#include "psim/report.h"
#include "psim/sim.h"
#include "tasks/registry.h"

namespace psme::bench {

struct TaskData {
  std::string name;
  Task task;
  TaskRunResult nolearn;   // without chunking
  TaskRunResult during;    // during chunking (learning on)
  TaskRunResult after;     // after chunking (chunks preloaded, learning off)
};

/// Engine options for the reproductions: serial, with every cycle's task
/// DAG recorded (the virtual multiprocessor's input).
inline EngineOptions recorded() {
  EngineOptions opts;
  opts.record_traces = true;
  return opts;
}

/// Runs one task in all three regimes.
inline TaskData collect(const std::string& name) {
  TaskData d;
  d.name = name;
  d.task = make_task(name);
  d.nolearn = run_task(d.task, /*learning=*/false, nullptr, recorded());
  d.during = run_task(d.task, /*learning=*/true, nullptr, recorded());
  d.after = run_task(d.task, /*learning=*/false, &d.during.stats.chunk_texts,
                     recorded());
  return d;
}

/// Runs all three paper tasks.
inline std::vector<TaskData> collect_all() {
  std::vector<TaskData> out;
  for (const auto& name : task_names()) out.push_back(collect(name));
  return out;
}

/// Uniprocessor virtual time of a run, in seconds (Encore-equivalent).
inline double uniproc_seconds(const std::vector<CycleTrace>& traces,
                              const SimOptions& opts) {
  SimOptions uni = opts;
  uni.processors = 1;
  return simulate_run(traces, uni).parallel_us / 1e6;
}

/// Speedup of a run at P processors relative to the 1-processor simulation.
inline double speedup_at(const std::vector<CycleTrace>& traces, uint32_t procs,
                         QueuePolicy policy, const SimOptions& base = {}) {
  SimOptions opts = base;
  opts.policy = policy;
  opts.processors = procs;
  const double uni = uniproc_seconds(traces, opts) * 1e6;
  const double par = simulate_run(traces, opts).parallel_us;
  return par > 0 ? uni / par : 1.0;
}

/// The paper's X axis: match process counts 1..13.
inline std::vector<uint32_t> process_counts() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
}

/// Beyond the paper: virtual-processor counts up to 256, previewing the
/// saturation regimes no 1988 Encore could reach (ROADMAP carryover — the
/// simulator itself has no processor cap; only the paper-faithful benches
/// stop at 13). Used by bench_longchain's VP sweep.
inline std::vector<uint32_t> wide_process_counts() {
  return {1, 2, 4, 8, 13, 16, 32, 64, 128, 256};
}

inline void print_header(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

inline uint64_t total_tasks(const std::vector<CycleTrace>& traces) {
  uint64_t n = 0;
  for (const auto& t : traces) n += t.task_count();
  return n;
}

/// Minimal machine-readable output: streams one JSON value to `out` with
/// comma/indent bookkeeping handled here so bench code reads like data.
/// Benches that emit JSON on stdout print their human tables to stderr.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}

  void begin_object(const char* key = nullptr) {
    if (key != nullptr) emit_key(key);
    open('{');
  }
  void end_object() { close('}'); }
  void begin_array(const char* key = nullptr) {
    if (key != nullptr) emit_key(key);
    open('[');
  }
  void end_array() { close(']'); }

  void field(const char* key, const std::string& v) {
    emit_key(key);
    after_key_ = false;
    std::fputc('"', out_);
    for (const char c : v) {
      if (c == '"' || c == '\\') std::fputc('\\', out_);
      std::fputc(c, out_);
    }
    std::fputc('"', out_);
  }
  void field(const char* key, const char* v) { field(key, std::string(v)); }
  void field(const char* key, uint64_t v) {
    emit_key(key);
    after_key_ = false;
    std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
  }
  void field(const char* key, double v) {
    emit_key(key);
    after_key_ = false;
    std::fprintf(out_, "%.6g", v);
  }

  /// Call once after the root value closes.
  void finish() { std::fputc('\n', out_); }

 private:
  void open(char c) {
    value_prefix();
    std::fputc(c, out_);
    first_ = true;
  }
  void close(char c) {
    std::fputc(c, out_);
    first_ = false;
    after_key_ = false;
  }
  void emit_key(const char* key) {
    comma();
    std::fprintf(out_, "\"%s\":", key);
    after_key_ = true;
  }
  // A value directly after its key needs no separator; a value that is an
  // array/object element does.
  void value_prefix() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    comma();
  }
  void comma() {
    if (!first_) std::fputc(',', out_);
    first_ = false;
  }

  std::FILE* out_;
  bool first_ = true;
  bool after_key_ = false;
};

/// Streams a registry as one JSON object: {"par.tasks": 123, ...}. Dotted
/// metric names are kept verbatim as keys, so bench JSON and the demos'
/// --stats tables agree on naming. Emits the object under `key`.
inline void write_metrics(JsonWriter& j, const char* key,
                          const obs::MetricsRegistry& m) {
  j.begin_object(key);
  for (const obs::Metric& metric : m.metrics()) {
    j.field(metric.name.c_str(), metric.value);
  }
  j.end_object();
}

/// Streams the headline of a measured ProfileReport plus its `top_k` hottest
/// productions (by est_us, record order on ties) as one JSON object under
/// `key` — the "profile" object profiled bench runs emit next to their
/// timing records. Schema:
///   {"sample_shift":N,"activations":N,"sampled":N,"time_us":X,
///    "top":[{"name":"...","acts":N,"emits":N,"est_us":X},...]}
inline void write_profile(JsonWriter& j, const char* key,
                          const analysis::ProfileReport& rep,
                          size_t top_k = 5) {
  j.begin_object(key);
  j.field("sample_shift", static_cast<uint64_t>(rep.sample_shift));
  j.field("activations", rep.total_activations);
  j.field("sampled", rep.total_sampled);
  j.field("time_us", rep.total_us);
  j.begin_array("top");
  std::vector<size_t> order(rep.productions.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rep.productions[a].est_us > rep.productions[b].est_us;
  });
  if (order.size() > top_k) order.resize(top_k);
  for (const size_t i : order) {
    const analysis::ProductionProfile& p = rep.productions[i];
    j.begin_object();
    j.field("name", p.name);
    j.field("acts", p.activations);
    j.field("emits", p.emits);
    j.field("est_us", p.est_us);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

}  // namespace psme::bench
