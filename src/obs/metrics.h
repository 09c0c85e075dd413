// Unified stats registry: every ad-hoc stats struct in the system
// (ParallelStats, MatchStats, SoarRunStats, the tracer's own accounting)
// dumps into one named-counter/gauge namespace with snapshot/delta
// semantics, so end-of-run tables, bench JSON and tests all read the same
// numbers through the same interface instead of copy-pasting field lists.
//
// Semantics:
//   * counter — monotone total. merge() adds; delta() subtracts.
//   * gauge   — point-in-time level. merge() overwrites; delta() keeps the
//               newer value (a gauge has no meaningful difference).
//
// The registry is a REPORTING-TIME structure: it allocates (names, vector
// growth) and is meant for end-of-run / per-phase boundaries, never for the
// per-task hot path. Hot-path accounting stays in the existing POD structs
// (that is what keeps the §10 zero-allocation guarantee); the registry is
// how those PODs become legible.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace psme {
struct ParallelStats;
struct MatchStats;
struct MatchCounters;
struct SoarRunStats;
}  // namespace psme

namespace psme::obs {

class Tracer;
class MatchProfiler;

enum class MetricKind : uint8_t { Counter, Gauge };

struct Metric {
  std::string name;  // dotted: "<group>.<field>", e.g. "par.failed_steals"
  MetricKind kind = MetricKind::Counter;
  uint64_t value = 0;
};

class MetricsRegistry {
 public:
  /// Adds `v` to the named counter (creating it at zero).
  void counter(std::string_view name, uint64_t v);
  /// Sets the named gauge to `v` (creating it).
  void gauge(std::string_view name, uint64_t v);

  [[nodiscard]] bool has(std::string_view name) const;
  /// 0 when absent — deltas and tables treat missing as zero.
  [[nodiscard]] uint64_t value(std::string_view name) const;

  /// Counters add, gauges overwrite (the newer level wins).
  void merge(const MetricsRegistry& other);

  /// A copy taken now; pair with delta() for before/after accounting.
  [[nodiscard]] MetricsRegistry snapshot() const { return *this; }

  /// this − base: counters subtract (saturating at 0 — a counter that went
  /// "backwards" means the base belongs to a different run, and a huge
  /// wrapped value would poison every table built from the delta); gauges
  /// keep this registry's value. Metrics absent from `base` count from 0.
  [[nodiscard]] MetricsRegistry delta(const MetricsRegistry& base) const;

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] size_t size() const { return metrics_.size(); }

 private:
  Metric& slot(std::string_view name, MetricKind kind);

  std::vector<Metric> metrics_;  // insertion order; linear lookup (small N)
};

// ---- collectors: one per existing stats struct ---------------------------
// Each maps its struct's fields into a dotted group. Calling a collector
// twice accumulates counters (snapshot semantics are the caller's job).

/// "par.*" — scheduler traffic of one (or an accumulated) parallel cycle.
/// wall_seconds lands as the counter "par.wall_us".
void collect(MetricsRegistry& m, const ParallelStats& st);

/// "arena.*" — token-arena traffic and chunk-lifecycle gauges.
void collect(MetricsRegistry& m, const MatchStats& st);

/// "rete.*" — jumptable lookups and right-unlinking traffic (relinks, the
/// right entries they inserted, unlinks, the right entries those erased).
void collect(MetricsRegistry& m, const MatchCounters& c);

/// "soar.*" — decisions, elaboration cycles, impasses, chunks, match and
/// §5.2 update task totals of a Soar run.
void collect(MetricsRegistry& m, const SoarRunStats& st);

/// "obs.*" — the tracing layer's own accounting (tracks, events, drops).
void collect(MetricsRegistry& m, const Tracer& t);

/// "prof.*" — the match profiler's merged totals (activations, timed
/// samples, sampled wall ns). Per-node/per-production detail stays in
/// analysis/profile_report.h; these three let a metrics table confirm the
/// profiler saw the run.
void collect(MetricsRegistry& m, const MatchProfiler& p);

}  // namespace psme::obs
