// The production-system engine, post network/state split: an Engine is ONE
// AGENT SESSION — working memory, match state (hash tables, alpha lists,
// token arena), conflict set, RHS executor and pending wme queues — bound to
// a CompiledNetwork it either owns (classic single-agent embedding) or
// shares with sibling sessions (multi-agent serving; see
// engine/agent_group.h). It provides the match/select/fire loop (OPS5 mode)
// plus the primitives the Soar kernel drives (batched wme changes,
// match-to-quiescence, fire-all, run-time production addition with the §5.2
// state update for EVERY attached agent).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/compiled_network.h"
#include "engine/conflict_set.h"
#include "engine/rhs.h"
#include "engine/trace.h"
#include "engine/working_memory.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "par/parallel_match.h"
#include "rete/add_production.h"
#include "rete/builder.h"
#include "rete/match_state.h"
#include "rete/network.h"
#include "rete/update.h"

namespace psme {

namespace analysis {
struct VerifyReport;
}

struct EngineOptions {
  size_t hash_lines = 4096;
  BuilderOptions builder;  // ignored in attach mode (the network exists)
  bool record_traces = true;

  /// TokenArena spill-chunk size (bytes). Larger chunks amortize the mmap
  /// cost of deep token spills; smaller chunks waste less on quiet workers.
  /// bench_tokens sweeps this knob (see BENCH_tokens.json).
  uint32_t arena_chunk_bytes = TokenArena::kDefaultChunkBytes;

  /// >1 switches match() and the §5.2 runtime-add state update to the
  /// threaded ParallelMatcher with this many workers. The matcher (and its
  /// worker pool) is created once and persists across cycles. Parallel
  /// cycles record no per-task trace (CycleTrace comes back empty), so keep
  /// the serial default for psim trace collection. Ignored in attach mode
  /// (the shared matcher's worker count governs).
  size_t match_workers = 0;

  /// Scheduler tuning: the idle path's sweep-backoff ladder
  /// (steal.backoff_*) and the dependent-chain split depth
  /// (steal.chain_split_depth; 0 = never split, 1 = split every link).
  /// network_lint's cost table reports each production's chain depth
  /// against this split depth as the tuning hint.
  StealTuning steal;

  /// Tracing (src/obs). When enabled the engine owns a Tracer: track 0
  /// carries engine-level spans (match cycles, drain sub-phases, chunk
  /// compiles, the §5.2 update phases, serial task spans) and tracks 1..N
  /// the parallel workers' task/steal/park events. All rings are
  /// preallocated (at Engine construction and ParallelMatcher::prewarm),
  /// so tracing preserves the §10 zero-allocation guarantee. In attach mode
  /// the group's tracer (if any) carries the worker tracks; this one only
  /// carries the agent's own track-0 spans.
  obs::TraceOptions trace;

  /// Match profiling (obs/profiler.h). When enabled the engine owns a
  /// MatchProfiler wired into both executors (serial and parallel): every
  /// executed task is attributed to its (node, agent) cell in the executing
  /// worker's shard. Shards are preallocated/grown only at quiescent drain
  /// boundaries, so profiling preserves the §10 guarantee under both
  /// executors (engine_alloc_test proves it). Read via profiler()/snapshot
  /// at quiescence; production attribution happens at reporting time
  /// (analysis/profile_report.h). In attach mode the group owns the shared
  /// profiler instead (AgentGroupOptions::profile) and this flag is ignored.
  bool profile = false;
  /// Power-of-two activation TIMING sampling: a worker times every
  /// 2^shift-th task it executes (0 = time all). Counts stay exact either
  /// way; reports scale time per cell. Shift 6 holds profiling overhead
  /// under the always-on budget for resident servers (EXPERIMENTS.md).
  uint32_t profile_sample_shift = 0;
};

class Engine {
 public:
  /// Classic single-agent form: creates and owns a private CompiledNetwork.
  explicit Engine(EngineOptions opts = {});

  /// Attach mode (multi-agent serving): joins `cnet` as a new agent session.
  /// When `shared_matcher` is non-null the session registers its MatchState
  /// with it and all parallel drains multiplex over that matcher's workers
  /// (opts.match_workers is ignored); its agent tag is stamped on every
  /// seed. The matcher and network must outlive the engine.
  Engine(std::shared_ptr<CompiledNetwork> cnet, EngineOptions opts,
         ParallelMatcher* shared_matcher = nullptr);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SymbolTable& syms() { return cnet_->syms(); }
  ClassSchemas& schemas() { return cnet_->schemas(); }
  Network& net() { return cnet_->net(); }
  WorkingMemory& wm() { return wm_; }
  ConflictSet& cs() { return cs_; }
  Builder& builder() { return cnet_->builder(); }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

  /// This session's match state (per-agent half of the split).
  MatchState& state() { return state_; }
  [[nodiscard]] const MatchState& state() const { return state_; }
  /// The shared compile-side half. Never null.
  CompiledNetwork& network() { return *cnet_; }
  [[nodiscard]] std::shared_ptr<CompiledNetwork> shared_network() const {
    return cnet_;
  }
  /// This session's tag in the shared matcher (0 for a standalone engine).
  [[nodiscard]] uint32_t agent_id() const { return agent_; }

  /// Parses and compiles a source string (literalize forms + productions)
  /// into the shared network. Every attached agent with a non-empty working
  /// memory gets its memories updated via the §5.2 algorithm. Returns the
  /// adopted productions.
  std::vector<const Production*> load(std::string_view src);

  /// Compilation record of a loaded production.
  [[nodiscard]] const AddRecord& record(const Production* p) const {
    return cnet_->record(p);
  }
  [[nodiscard]] const std::vector<const Production*>& productions() const {
    return cnet_->productions();
  }

  /// Run-time addition (chunking path): compiles `ast` into the live network
  /// copy-on-write on the shared jumptable, then updates EVERY attached
  /// agent's memories from its own WM (§5.2) — this session first, so the
  /// returned traces are the learning agent's. Returns the traces of the
  /// update phases (`ab`: alpha+right fill, which may run concurrently;
  /// `c`: the last-shared-node replay, which must follow).
  struct RuntimeAddResult {
    const Production* prod = nullptr;
    CycleTrace ab, c;
    double compile_seconds = 0;
    size_t code_bytes = 0;
    uint64_t update_tasks = 0;  // summed over all attached agents
  };
  RuntimeAddResult add_production_runtime(Production&& ast);

  /// Run-time removal (the dual of add_production_runtime; the query
  /// subsystem's churn path and SoarKernel::excise both ride it). Sequence:
  /// plan the dead-set, unsplice it under a COW publish (the safe point —
  /// the production can never fire past it), drain EVERY attached agent's
  /// state for the dead nodes (beta entries with their token unpins, alpha
  /// wme lists, conflict-set instantiations), then free the nodes and drop
  /// the record/AST. Token memory itself is reclaimed by the existing epoch
  /// machinery: the unpins make the dead entries' chunks collectable at the
  /// next arena reclaim boundary. Quiescent-only, like addition; pending
  /// wme changes are allowed and stay pending (they never saw the victim).
  /// Throws std::out_of_range for a production this network never compiled.
  struct RuntimeRemoveResult {
    size_t nodes_removed = 0;    // victim-owned nodes freed (incl. P-node)
    size_t refs_unspliced = 0;   // jumptable successor entries erased
    size_t left_entries = 0;     // beta left entries drained, all agents
    size_t right_entries = 0;    // beta right entries drained, all agents
    size_t alpha_wmes = 0;       // alpha-memory wmes drained, all agents
    size_t instantiations = 0;   // CS instantiations dropped, all agents
  };
  RuntimeRemoveResult remove_production_runtime(const Production* p);

  /// Creates a wme now (visible in wm()) and queues its add for the next
  /// match(). The span form copies straight into a recycled wme (no
  /// temporary vector); the vector form delegates.
  const Wme* add_wme(Symbol cls, const Value* fields, size_t n);
  const Wme* add_wme(Symbol cls, const std::vector<Value>& fields) {
    return add_wme(cls, fields.data(), fields.size());
  }

  /// Convenience: parses a wme literal like "(block ^name b1 ^size 3)".
  const Wme* add_wme_text(std::string_view text);

  /// Removes `w` from WM now and queues its retraction for the next match().
  void remove_wme(const Wme* w);

  /// Injects all queued changes and runs the match to quiescence. One call
  /// is one "cycle" in the paper's corrected regime: all wme changes of the
  /// cycle are complete before matching starts.
  CycleTrace match();

  /// AgentGroup batching half of match(): injects this agent's pending
  /// removes (adds=false) or adds (adds=true) as agent-tagged seeds into
  /// `out` without clearing the queues, so N agents' cycles share one
  /// threaded drain. Pair with end_group_cycle() after both drains.
  void collect_seeds(bool adds, std::vector<Activation>& out);
  /// AgentGroup batching: clears the pending queues and closes the wme
  /// cycle (what match() does after its drains).
  void end_group_cycle();

  /// Fires one instantiation: evaluates its RHS, applies the delta (queues
  /// wme changes), marks it fired. With `remove_after_fire` the
  /// instantiation leaves the CS (OPS5). Returns true if a halt executed.
  bool fire(const Instantiation* inst, bool remove_after_fire,
            bool dedup_adds);

  /// Evaluates an instantiation's RHS without applying anything (the Soar
  /// kernel applies the delta itself to record provenance and levels).
  WmeDelta evaluate(const Instantiation* inst);

  /// See RhsExecutor::set_gensym_hook.
  void set_gensym_hook(std::function<void(Symbol)> fn) {
    rhs_.set_gensym_hook(std::move(fn));
  }

  /// OPS5 top level: match, select (LEX), fire, repeat.
  struct RunResult {
    uint64_t cycles = 0;
    bool halted = false;
  };
  RunResult run(uint64_t max_cycles);

  /// Everything `write` actions printed, in firing order.
  [[nodiscard]] const std::vector<std::string>& output() const {
    return output_;
  }

  [[nodiscard]] bool has_pending_changes() const {
    return !pending_adds_.empty() || !pending_removes_.empty();
  }

  /// True when match() drains on a threaded matcher (own or shared).
  [[nodiscard]] bool parallel() const {
    return external_matcher_ != nullptr || opts_.match_workers > 1;
  }

  /// The persistent parallel matcher: the shared one in attach mode, else
  /// the privately owned one (created on first parallel match()); nullptr
  /// while serial or before the first cycle.
  [[nodiscard]] ParallelMatcher* parallel_matcher() const {
    return external_matcher_ != nullptr ? external_matcher_ : matcher_.get();
  }
  /// Scheduler statistics of the most recent parallel cycle this session
  /// ran (in a group, step_all's aggregate lands on every participant).
  [[nodiscard]] const ParallelStats& last_parallel_stats() const {
    return last_parallel_stats_;
  }

  /// Null unless options().trace.enabled. Read rings only at quiescence.
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_.get(); }

  /// The active match profiler: the engine's own when options().profile,
  /// else whatever set_profiler attached (AgentGroup's shared one); null
  /// when profiling is off. Snapshot/reset only at quiescence.
  [[nodiscard]] obs::MatchProfiler* profiler() const {
    return external_profiler_ != nullptr ? external_profiler_
                                         : profiler_.get();
  }

  /// Routes this session's serial task profiling into `p` instead of an
  /// owned profiler (AgentGroup shares one across agents and workers).
  /// Quiescent-only; the profiler must outlive the engine. Null restores
  /// the own-profiler default.
  void set_profiler(obs::MatchProfiler* p) {
    external_profiler_ = p;
    serial_exec_.set_profiler(profiler());
  }

  /// Routes this session's engine-level spans (match cycles, §5.2 update
  /// phases, chunk compiles, serial task spans) into `t`'s ring `track`
  /// instead of the engine's own tracer — AgentGroup gives every agent its
  /// own track on the shared tracer (tracks W+1..W+A, after the workers').
  /// Quiescent-only. Null restores the own-tracer default.
  void set_trace_sink(obs::Tracer* t, size_t track);

  /// Dumps the engine's current stats — last parallel cycle ("par.*"),
  /// token arena ("arena.*"), tracer accounting ("obs.*") — into `m`.
  /// Reporting-time only: allocates, never call from the match hot path.
  void collect_metrics(obs::MetricsRegistry& m) const;

  /// Runs the static network verifier (src/analysis/verify.h) over the live
  /// network, this agent's match state, and all production records.
  /// Quiescent-only, like the §5.2 update. Builds with PSME_NET_VERIFY call
  /// it automatically after every add_production (and after every COW
  /// jumptable publish) and abort on violation; callers (tests,
  /// network_lint) may call it in any build type.
  [[nodiscard]] analysis::VerifyReport verify_network() const;

  /// The records of all loaded productions, in load order (the shape
  /// verify_network and the cost linter consume).
  [[nodiscard]] std::vector<const AddRecord*> all_records() const {
    return cnet_->all_records();
  }

 private:
  friend class AgentGroup;

  void apply_delta(const WmeDelta& delta, bool dedup_adds);
  ParallelMatcher& matcher();
  /// One agent's §5.2 state update after a runtime add. Returns executed
  /// task count; fills `res` (traces) when non-null (the learning agent).
  uint64_t apply_runtime_update(const CompiledProduction& cp,
                                RuntimeAddResult* res);
  /// PSME_NET_VERIFY hooks: abort with the full report on violation.
  void debug_verify_after_add(const Production* p) const;
  void debug_verify_after_remove(const std::string& name) const;

  EngineOptions opts_;
  std::shared_ptr<CompiledNetwork> cnet_;  // owned or shared; never null
  MatchState state_;  // the per-agent half: tables, alpha lists, arena, sink
  WorkingMemory wm_;
  ConflictSet cs_;
  RhsExecutor rhs_;
  std::vector<const Wme*> pending_adds_;
  std::vector<const Wme*> pending_removes_;
  std::vector<std::string> output_;
  ParallelMatcher* external_matcher_ = nullptr;  // attach mode (group-owned)
  std::unique_ptr<ParallelMatcher> matcher_;     // standalone, persistent
  ParallelStats last_parallel_stats_;
  std::unique_ptr<obs::Tracer> tracer_;  // created at ctor when trace.enabled
  obs::Tracer* trace_sink_ = nullptr;  // own tracer, or the group's
  uint32_t trace_track_ = 0;           // this agent's track in trace_sink_
  std::unique_ptr<obs::MatchProfiler> profiler_;  // created when opts.profile
  obs::MatchProfiler* external_profiler_ = nullptr;  // group-owned (attach)
  // Steady-state scratch, alive for the Engine's lifetime so repeated
  // cycles reuse high-water capacity (DESIGN.md §10): the serial executor
  // (ring + trace state), the per-cycle seed vector, and the fire delta.
  TraceExecutor serial_exec_;
  std::vector<Activation> seed_scratch_;
  WmeDelta fire_delta_;
  UpdateScratch update_scratch_;  // load()'s §5.2 drains, capacity reused
  uint32_t agent_ = 0;  // tag in the shared matcher (attach mode)
};

}  // namespace psme
