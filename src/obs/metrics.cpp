#include "obs/metrics.h"

#include "base/arena.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "par/parallel_match.h"
#include "soar/kernel.h"

namespace psme::obs {

Metric& MetricsRegistry::slot(std::string_view name, MetricKind kind) {
  for (Metric& m : metrics_) {
    if (m.name == name) return m;
  }
  metrics_.push_back(Metric{std::string(name), kind, 0});
  return metrics_.back();
}

void MetricsRegistry::counter(std::string_view name, uint64_t v) {
  slot(name, MetricKind::Counter).value += v;
}

void MetricsRegistry::gauge(std::string_view name, uint64_t v) {
  Metric& m = slot(name, MetricKind::Gauge);
  m.kind = MetricKind::Gauge;
  m.value = v;
}

bool MetricsRegistry::has(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

uint64_t MetricsRegistry::value(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const Metric& m : other.metrics_) {
    if (m.kind == MetricKind::Counter) {
      counter(m.name, m.value);
    } else {
      gauge(m.name, m.value);
    }
  }
}

MetricsRegistry MetricsRegistry::delta(const MetricsRegistry& base) const {
  MetricsRegistry out;
  for (const Metric& m : metrics_) {
    if (m.kind == MetricKind::Gauge) {
      out.gauge(m.name, m.value);
      continue;
    }
    const uint64_t b = base.value(m.name);
    out.counter(m.name, m.value >= b ? m.value - b : 0);
  }
  return out;
}

void collect(MetricsRegistry& m, const ParallelStats& st) {
  m.counter("par.tasks", st.tasks);
  m.counter("par.steals", st.steals);
  m.counter("par.failed_steals", st.failed_steals);
  m.counter("par.failed_sweeps", st.failed_sweeps);
  m.counter("par.sweep_backoff_ns", st.sweep_backoff_ns);
  m.counter("par.parks", st.parks);
  m.counter("par.chain_inline", st.chain_inline);
  m.counter("par.shares", st.shares);
  // Consecutive-failed-sweep run lengths (see ParallelStats::sweep_hist):
  // the shape tells whether idle workers give up quickly (mass at 1-2, the
  // backoff ladder working) or grind through long runs before parking.
  static constexpr const char* kSweepHistNames[
      ParallelStats::kSweepHistBuckets] = {
      "par.sweep_hist_1",    "par.sweep_hist_2",    "par.sweep_hist_le4",
      "par.sweep_hist_le8",  "par.sweep_hist_le16", "par.sweep_hist_gt16"};
  for (size_t i = 0; i < ParallelStats::kSweepHistBuckets; ++i) {
    m.counter(kSweepHistNames[i], st.sweep_hist[i]);
  }
  m.gauge("par.pool_slabs", st.pool_slabs);
  m.counter("par.wall_us", static_cast<uint64_t>(st.wall_seconds * 1e6));
}

void collect(MetricsRegistry& m, const MatchStats& st) {
  m.counter("arena.spill_allocs", st.spill_allocs);
  m.counter("arena.spill_bytes", st.spill_bytes);
  m.counter("arena.chunks_allocated", st.chunks_allocated);
  m.counter("arena.chunks_freed", st.chunks_freed);
  m.gauge("arena.chunks_live", st.chunks_live);
  m.gauge("arena.sealed_pending", st.sealed_pending);
  m.gauge("arena.epoch", st.epoch);
}

void collect(MetricsRegistry& m, const MatchCounters& c) {
  m.counter("rete.indirections", c.indirections);
  m.counter("rete.relinks", c.relinks);
  m.counter("rete.relinked_wmes", c.relinked_wmes);
  m.counter("rete.unlinks", c.unlinks);
  m.counter("rete.unlinked_entries", c.unlinked_entries);
}

void collect(MetricsRegistry& m, const SoarRunStats& st) {
  m.counter("soar.decisions", st.decisions);
  m.counter("soar.elab_cycles", st.elab_cycles);
  m.counter("soar.impasses", st.impasses);
  m.counter("soar.chunks_built", st.chunks_built);
  m.counter("soar.elaborate_ns", st.elaborate_ns);
  m.counter("soar.decide_ns", st.decide_ns);
  m.counter("soar.gc_ns", st.gc_ns);
  m.gauge("soar.goal_achieved", st.goal_achieved ? 1 : 0);
  m.counter("soar.match_tasks", st.match_tasks);
  m.counter("soar.update_tasks", st.update_tasks);
}

void collect(MetricsRegistry& m, const Tracer& t) {
  m.gauge("obs.tracks", t.tracks());
  m.counter("obs.events", t.total_events());
  m.counter("obs.events_dropped", t.total_dropped());
}

void collect(MetricsRegistry& m, const MatchProfiler& p) {
  // Reporting-time merge across shards (quiescent-only, like every collect).
  const ProfileSnapshot s = p.snapshot();
  m.gauge("prof.sample_shift", s.sample_shift);
  m.counter("prof.activations", s.total_activations);
  m.counter("prof.sampled", s.total_sampled);
  m.counter("prof.time_ns", s.total_time_ns);
}

}  // namespace psme::obs
