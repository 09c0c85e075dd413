#include "engine/agent_group.h"

#include <cstdio>

namespace psme {

AgentGroup::AgentGroup(AgentGroupOptions opts) : opts_(std::move(opts)) {
  if (opts_.workers == 0) opts_.workers = 1;
  cnet_ = std::make_shared<CompiledNetwork>(opts_.agent.builder);
  const EngineOptions& eo = opts_.agent;
  if (eo.trace.enabled) tracer_ = std::make_unique<obs::Tracer>(eo.trace);
  if (eo.profile) {
    profiler_ = std::make_unique<obs::MatchProfiler>(eo.profile_sample_shift);
  }
  // Agent-less matcher: sessions register as they are added. prewarm()
  // ensures worker tracks 1..W on the tracer; agent tracks follow.
  matcher_ = std::make_unique<ParallelMatcher>(
      cnet_->net(), opts_.workers, tracer_.get(), profiler_.get());
}

AgentGroup::~AgentGroup() {
  // Agents detach from cnet_ in their destructors; drop them before the
  // matcher that still holds their MatchState pointers.
  owned_.clear();
}

Engine& AgentGroup::add_agent() {
  // Attach mode: the engine takes the matcher's tracer, track and profiler.
  owned_.push_back(
      std::make_unique<Engine>(cnet_, opts_.agent, matcher_.get()));
  agents_.push_back(owned_.back().get());
  return *agents_.back();
}

std::vector<const Production*> AgentGroup::load(std::string_view src) {
  return cnet_->load(src);
}

ParallelStats AgentGroup::step_all() {
  obs::Span cycle_span(tracer_.get(), 0, obs::EventKind::MatchCycle);
  return Engine::drain_on_matcher(*matcher_, agents_, seeds_, 0);
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
  if (tracer_ != nullptr) obs::collect(m, *tracer_);
  if (profiler_ != nullptr) obs::collect(m, *profiler_);
}

}  // namespace psme
