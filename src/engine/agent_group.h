// Multi-agent serving: N independent Agent sessions (Engines) multiplexed
// over ONE CompiledNetwork and ONE persistent WorkerPool. Each agent keeps
// its own WorkingMemory, MatchState and ConflictSet; every task carries its
// agent tag, so one agent's drain can neither observe nor stall another's.
//
// The group's one scheduling lever is step_all(): it batches every agent's
// pending wme changes into two shared drains (all agents' removals, then
// all agents' additions — the homogeneity rule holds per agent and so
// trivially across agents), amortizing the fork-join dispatch and park
// traffic of the pool across N sessions instead of paying it N times. That
// amortization is where the aggregate-throughput win of bench_multiagent
// comes from; agents remain free to call Engine::match() individually when
// they need a private cycle.
//
// Runtime chunk addition from any agent splices the chunk into the shared
// network in place (CompiledNetwork::compile) and then runs a §5.2 state
// update per attached agent. Like every network edit it is quiescent-only:
// call it between step_all()s, never while a drain is in flight.
//
// Observability: the group owns the one tracer and the one profiler (from
// `agent.trace` / `agent.profile`); the shared matcher's workers and every
// attached engine borrow them. collect_metrics() namespaces every agent's
// counters as "agentN.*"; the tracer lays tracks out as 0 = coordinator,
// 1..W = workers, W+1..W+N = agents (Engine::track()).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "engine/engine.h"

namespace psme {

/// Source-compatibility shim, read by nothing: AgentGroupOptions::policy
/// once chose between locked task queues and work stealing, and the
/// benchmark still assigns `psme::TaskQueueSet::Policy::Steal` to it
/// (perfbench/src/query_churn.cpp:199 and perfbench/src/group_wave.cpp:153).
struct TaskQueueSet {
  enum class Policy { Steal };
};

struct AgentGroupOptions {
  /// Worker threads of the shared matcher (0 reads as 1; the calling thread
  /// is worker 0, exactly as in a standalone Engine, and one worker starts
  /// no thread).
  size_t workers = 4;
  TaskQueueSet::Policy policy = TaskQueueSet::Policy::Steal;  // unused
  /// Engine options for every agent session. builder configures the shared
  /// network's compiler. trace, profile and profile_sample_shift configure
  /// the group's tracer (one ring per worker + one per agent) and profiler
  /// (one shard per worker, agent cells tagged per session). match_workers
  /// and record_traces have no effect: attached engines always drain on the
  /// shared matcher, so Engine::records_traces() is false.
  EngineOptions agent;
};

class AgentGroup {
 public:
  explicit AgentGroup(AgentGroupOptions opts = {});
  ~AgentGroup();
  AgentGroup(const AgentGroup&) = delete;
  AgentGroup& operator=(const AgentGroup&) = delete;

  /// Creates a new agent session over the shared network. Quiescent-only.
  /// The returned Engine is group-owned and valid for the group's lifetime;
  /// its agent_id() is its tag in the shared matcher and its index here.
  Engine& add_agent();

  [[nodiscard]] size_t agent_count() const { return agents_.size(); }
  Engine& agent(size_t i) { return *agents_[i]; }
  [[nodiscard]] const Engine& agent(size_t i) const { return *agents_[i]; }

  CompiledNetwork& network() { return *cnet_; }
  ParallelMatcher& matcher() { return *matcher_; }
  /// Null unless options().agent.trace.enabled.
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_.get(); }
  /// Null unless options().agent.profile. Snapshot/reset only between
  /// step_all calls (quiescence); agent cells are indexed by agent_id().
  [[nodiscard]] obs::MatchProfiler* profiler() const {
    return profiler_.get();
  }
  [[nodiscard]] const AgentGroupOptions& options() const { return opts_; }

  /// Loads productions into the shared network (visible to every agent; any
  /// agent with live wmes gets the §5.2 memory update).
  std::vector<const Production*> load(std::string_view src);

  /// One batched group cycle: drains every agent's pending removals in one
  /// shared cycle, then every agent's pending additions in another, then
  /// runs one unlink sweep (ParallelMatcher::run_match). Each
  /// agent ends exactly as if it had run Engine::match() alone (same final
  /// state; the drains just share workers). Returns the accumulated
  /// scheduler stats of both drains (also stored on every participant as
  /// last_parallel_stats()).
  ParallelStats step_all();

  /// Every agent's metrics under "agentN.*" plus the group's own
  /// ("group.agents", shared-tracer "obs.*", shared-profiler "prof.*").
  void collect_metrics(obs::MetricsRegistry& m) const;

 private:
  AgentGroupOptions opts_;
  std::shared_ptr<CompiledNetwork> cnet_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MatchProfiler> profiler_;
  std::unique_ptr<ParallelMatcher> matcher_;
  std::vector<std::unique_ptr<Engine>> owned_;
  std::vector<Engine*> agents_;           // owned_, as step_all's span
  // Batched seeds (every agent's removals, then additions), capacity reused.
  std::vector<Activation> seeds_;
};

}  // namespace psme
