#include "engine/agent_group.h"

#include <cstdio>

namespace psme {

AgentGroup::AgentGroup(AgentGroupOptions opts) : opts_(std::move(opts)) {
  if (opts_.workers == 0) opts_.workers = 1;
  cnet_ = std::make_shared<CompiledNetwork>(
      CompiledNetworkOptions{opts_.agent.builder});
  if (opts_.trace.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(opts_.trace);
  }
  if (opts_.profile) {
    profiler_ =
        std::make_unique<obs::MatchProfiler>(opts_.profile_sample_shift);
  }
  // Agent-less matcher: sessions register as they are added. prewarm()
  // ensures worker tracks 1..W on the tracer; agent tracks follow.
  matcher_ = std::make_unique<ParallelMatcher>(
      cnet_->net(), opts_.workers, tracer_.get(), opts_.steal,
      profiler_.get());
}

AgentGroup::~AgentGroup() {
  // Agents detach from cnet_ in their destructors; drop them before the
  // matcher that still holds their MatchState pointers.
  agents_.clear();
}

Engine& AgentGroup::add_agent() {
  EngineOptions eo = opts_.agent;
  // The group owns scheduling, tracing and profiling; per-agent knobs stay.
  eo.match_workers = 0;
  eo.trace.enabled = false;
  eo.profile = false;
  agents_.push_back(std::make_unique<Engine>(cnet_, eo, matcher_.get()));
  Engine& e = *agents_.back();
  if (tracer_ != nullptr) {
    // Track layout: 0 = coordinator, 1..W = workers, W+1..W+N = agents.
    const size_t track = 1 + opts_.workers + e.agent_id();
    tracer_->ensure_tracks(track + 1);
    e.set_trace_sink(tracer_.get(), track);
  }
  if (profiler_ != nullptr) {
    // Quiescent (no cycle in flight during add_agent): grow the agent cells
    // now so the next drain's ensure is a compare, and route the agent's
    // serial drains (private match(), §5.2 updates) into the shared shards.
    profiler_->ensure_agents(agents_.size());
    e.set_profiler(profiler_.get());
  }
  return e;
}

std::vector<const Production*> AgentGroup::load(std::string_view src) {
  if (!agents_.empty()) return agents_.front()->load(src);
  return cnet_->load(src);
}

ParallelStats AgentGroup::step_all() {
  ParallelStats total;
  obs::Span cycle_span(tracer_.get(), 0, obs::EventKind::MatchCycle);
  std::vector<Activation>& seeds = seed_scratch_;
  seeds.clear();
  // All agents' removals first (homogeneous batch; see run_cycle's seed
  // contract), then all agents' additions — the same two-drain split a
  // single agent's match() uses, shared N ways.
  bool any_adds = false;
  for (auto& a : agents_) {
    a->collect_seeds(false, seeds);
    any_adds |= !a->pending_adds_.empty();
  }
  if (!seeds.empty() || !any_adds) {
    obs::Span span(tracer_.get(), 0, obs::EventKind::DrainRemoves);
    total = matcher_->run_cycle(seeds);
    seeds.clear();
  }
  if (any_adds) {
    obs::Span span(tracer_.get(), 0, obs::EventKind::DrainAdds);
    for (auto& a : agents_) a->collect_seeds(true, seeds);
    total.accumulate(matcher_->run_cycle(seeds));
  }
  for (auto& a : agents_) {
    a->end_group_cycle();
    // Shared scheduler numbers, but each agent's own arena snapshot (the
    // matcher's snapshot covers only agent 0's arena).
    ParallelStats st = total;
    st.arena = a->state().arena.stats();
    a->last_parallel_stats_ = st;
  }
  return total;
}

void AgentGroup::collect_metrics(obs::MetricsRegistry& m) const {
  char prefix[32];
  for (size_t i = 0; i < agents_.size(); ++i) {
    obs::MetricsRegistry per_agent;
    agents_[i]->collect_metrics(per_agent);
    std::snprintf(prefix, sizeof prefix, "agent%zu.", i);
    for (const obs::Metric& metric : per_agent.metrics()) {
      const std::string name = prefix + metric.name;
      if (metric.kind == obs::MetricKind::Counter) {
        m.counter(name, metric.value);
      } else {
        m.gauge(name, metric.value);
      }
    }
  }
  m.gauge("group.agents", agents_.size());
  m.gauge("group.cow_publishes", cnet_->cow_publishes());
  if (tracer_ != nullptr) obs::collect(m, *tracer_);
  if (profiler_ != nullptr) obs::collect(m, *profiler_);
}

}  // namespace psme
