// The production-system engine, post network/state split: an Engine is ONE
// AGENT SESSION — working memory, match state (hash tables, alpha lists,
// token arena), conflict set, RHS executor and pending wme queues — bound to
// a CompiledNetwork it either owns (classic single-agent embedding) or
// shares with sibling sessions (multi-agent serving; see
// engine/agent_group.h). It provides the match/select/fire loop (OPS5 mode)
// plus the primitives the Soar kernel drives (batched wme changes,
// match-to-quiescence, fire-all, run-time production addition with the §5.2
// state update for EVERY attached agent, and run-time removal). Additions and
// removals edit the shared network in place; like PSM-E's chunk integration
// (§5.1) they are quiescent-only — no agent of the network may have a match
// cycle in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
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
  BuilderOptions builder;  // ignored in attach mode (the network exists)
  /// Records every cycle's task DAG (CycleTrace) for the virtual
  /// multiprocessor on the FIFO trace recorder, which then runs match() and
  /// the §5.2 update (records_traces()). Off by default: a recorded DAG
  /// allocates per task and a Soar run keeps one per elaboration cycle. It
  /// also turns right unlinking off on either executor (DESIGN.md §16):
  /// every join stays linked, so a recorded DAG counts every activation
  /// PSM-E would run, and such an engine is the linked reference of the
  /// differential tests.
  bool record_traces = false;

  /// Workers of the ParallelMatcher that runs match() and the §5.2 update
  /// of every engine that records no traces (0 reads as 1; one worker runs
  /// on the calling thread and starts no thread). The matcher is created at
  /// the first drain and persists. Ignored in attach mode (the shared
  /// matcher's worker count governs).
  size_t match_workers = 1;

  /// Tracing (src/obs). When enabled a standalone engine owns a Tracer:
  /// track 0 carries engine-level spans (match cycles, drain sub-phases,
  /// chunk compiles, the §5.2 update phases, the recorder's task spans) and
  /// tracks 1..N the matcher workers' task/steal/park events. All rings are
  /// preallocated (at Engine construction and ParallelMatcher::prewarm),
  /// so tracing preserves the §10 zero-allocation guarantee. In attach mode
  /// this flag is ignored: the engine records into the shared matcher's
  /// tracer, if it has one, on track 1 + workers + agent id.
  obs::TraceOptions trace;

  /// Match profiling (obs/profiler.h). When enabled the engine owns a
  /// MatchProfiler wired into both executors (matcher and recorder): every
  /// executed task is attributed to its (node, agent) cell in the executing
  /// worker's shard. Shards are preallocated/grown only at quiescent drain
  /// boundaries, so profiling preserves the matcher's §10 guarantee
  /// (engine_alloc_test proves it). Read via profiler()/snapshot
  /// at quiescence; production attribution happens at reporting time
  /// (analysis/profile_report.h). In attach mode this flag is ignored: the
  /// engine borrows the shared matcher's profiler, if it has one.
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
  /// with it and all its drains multiplex over that matcher's workers
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
  /// into the shared network (CompiledNetwork::load). Every attached agent
  /// with a non-empty working memory gets its memories updated via the §5.2
  /// algorithm after each production. Returns the adopted productions.
  std::vector<const Production*> load(std::string_view src);

  /// Compilation record of a loaded production.
  [[nodiscard]] const AddRecord& record(const Production* p) const {
    return cnet_->record(p);
  }
  [[nodiscard]] const std::vector<const Production*>& productions() const {
    return cnet_->productions();
  }

  /// Run-time addition (chunking path): compiles `ast` into the live shared
  /// network in place (CompiledNetwork::compile), then updates EVERY
  /// attached agent's memories from its own WM (§5.2) — this session first,
  /// so the returned traces are the learning agent's. A production the
  /// builder rejects throws and leaves the network, every agent and the
  /// AST store as they were. Returns the recorded DAGs of
  /// the update phases (`ab`: alpha+right fill, which may run concurrently;
  /// `c`: the last-shared-node replay, which must follow) — empty unless
  /// records_traces().
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
  /// plan the dead-set, unsplice it from the live jumptable (the production
  /// can never fire past this point), drain EVERY attached agent's
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

  /// Convenience: parses one wme literal like "(block ^name b1 ^size 3)"
  /// with the production lexer, straight from `text` into a kept field
  /// buffer. Only comments may follow the closing paren: any other token
  /// throws ParseError and working memory is left unchanged.
  const Wme* add_wme_text(std::string_view text);

  /// Removes `w` from WM now and queues its retraction for the next match().
  void remove_wme(const Wme* w);

  /// Injects all queued changes and runs the match to quiescence. One call
  /// is one "cycle" in the paper's corrected regime: all wme changes of the
  /// cycle are complete before matching starts. Returns the cycle's task
  /// DAG when records_traces(), else an empty trace.
  CycleTrace match();

  /// Tasks the most recent match() executed, whichever executor ran it.
  [[nodiscard]] uint64_t last_match_tasks() const { return last_match_tasks_; }

  /// Fires one instantiation: evaluates its RHS, applies the delta (queues
  /// wme changes), marks it fired. With `remove_after_fire` the
  /// instantiation leaves the CS (OPS5). Returns true if a halt executed.
  bool fire(const Instantiation* inst, bool remove_after_fire,
            bool dedup_adds);

  /// Evaluates an instantiation's RHS into `delta` without applying
  /// anything (the Soar kernel applies the delta itself to record provenance
  /// and levels). `delta` is reset first, so a kept delta reuses its slot
  /// capacity.
  void evaluate(const Instantiation* inst, WmeDelta& delta);

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
  /// The wme changes queued for the next match(): the working memory the
  /// conflict set reflects is wm().live() without these adds, plus these
  /// removes (still allocated until that match).
  [[nodiscard]] const std::vector<const Wme*>& pending_adds() const {
    return pending_adds_;
  }
  [[nodiscard]] const std::vector<const Wme*>& pending_removes() const {
    return pending_removes_;
  }

  /// True when match() and the §5.2 update drain on the trace recorder and
  /// hand back a recorded task DAG: options().record_traces on a standalone
  /// one-worker engine. Every other engine drains on its ParallelMatcher
  /// (a wider one still linked when record_traces is set).
  [[nodiscard]] bool records_traces() const {
    return opts_.record_traces && external_matcher_ == nullptr &&
           opts_.match_workers <= 1;
  }

  /// The persistent matcher: the shared one in attach mode, else the
  /// privately owned one (created at the first drain); nullptr for a
  /// recording engine and before the first drain.
  [[nodiscard]] ParallelMatcher* parallel_matcher() const {
    return external_matcher_ != nullptr ? external_matcher_ : matcher_.get();
  }
  /// Scheduler statistics of the most recent matcher cycle this session
  /// ran (in a group, step_all's aggregate lands on every participant).
  [[nodiscard]] const ParallelStats& last_parallel_stats() const {
    return last_parallel_stats_;
  }

  /// The tracer this session's spans go to: its own when standalone and
  /// options().trace.enabled, the shared matcher's in attach mode; null when
  /// tracing is off. Read rings only at quiescence.
  [[nodiscard]] obs::Tracer* tracer() const {
    return external_matcher_ != nullptr ? external_matcher_->tracer()
                                        : tracer_.get();
  }
  /// This session's track on tracer(): 0 standalone; after the shared
  /// matcher's workers in attach mode (AgentGroup's layout: 0 = group,
  /// 1..W = workers, W+1+id = agent id).
  [[nodiscard]] size_t track() const {
    return external_matcher_ != nullptr
               ? 1 + external_matcher_->workers() + agent_
               : 0;
  }

  /// The match profiler either executor records into: own when standalone and
  /// options().profile, the shared matcher's in attach mode; null when
  /// profiling is off. Snapshot/reset only at quiescence.
  [[nodiscard]] obs::MatchProfiler* profiler() const {
    return external_matcher_ != nullptr ? external_matcher_->profiler()
                                        : profiler_.get();
  }

  /// Match work counted since construction (obs::collect's "rete.*"):
  /// jumptable lookups, relinks, unlinks. The threaded drains' counts are
  /// the matcher's whole cycles, so in a group every agent carries the
  /// group's totals over the cycles it took part in, as with "par.*".
  [[nodiscard]] MatchCounters match_counters() const;

  /// Dumps the engine's current stats — last matcher cycle ("par.*", unless
  /// records_traces()), token arena ("arena.*"), match counters ("rete.*"),
  /// tracer accounting ("obs.*") — into `m`.
  /// Reporting-time only: allocates, never call from the match hot path.
  void collect_metrics(obs::MetricsRegistry& m) const;

  /// Runs the static network verifier (src/analysis/verify.h) over the live
  /// network, this agent's match state, and all production records.
  /// Quiescent-only, like the §5.2 update. Builds with PSME_NET_VERIFY call
  /// it for every attached agent after each add and each removal
  /// (CompiledNetwork::verify_or_abort) and abort on violation; callers
  /// (tests, network_lint) may call it in any build type.
  [[nodiscard]] analysis::VerifyReport verify_network() const;

  /// The records of all loaded productions, in load order (the shape
  /// verify_network and the cost linter consume).
  [[nodiscard]] std::vector<const AddRecord*> all_records() const {
    return cnet_->all_records();
  }

 private:
  friend class AgentGroup;
  friend class CompiledNetwork;  // load() runs apply_runtime_update

  void apply_delta(const WmeDelta& delta, bool dedup_adds);
  ParallelMatcher& matcher();
  /// The matcher cycle of match() and AgentGroup::step_all, for every
  /// engine in `agents` (all registered with `m`): one
  /// ParallelMatcher::run_match over their pending removals and additions,
  /// then closes each one's wme cycle and stores the accumulated stats on
  /// each. `seeds` is caller-owned scratch (every agent's removals, then
  /// every agent's additions); the drain spans go to `m.tracer()` on
  /// `track`.
  static ParallelStats drain_on_matcher(ParallelMatcher& m,
                                        std::span<Engine* const> agents,
                                        std::vector<Activation>& seeds,
                                        size_t track);
  /// Injects this session's pending removes (adds=false) or adds
  /// (adds=true) as agent-tagged seeds into `out`.
  void collect_seeds(bool adds, std::vector<Activation>& out);
  /// Clears the pending queues and closes the wme cycle.
  void end_cycle();
  /// One agent's §5.2 state update after an add, through this session's
  /// executor. Returns the executed task count; fills `res` (traces) when
  /// non-null (the learning agent).
  uint64_t apply_runtime_update(const CompiledProduction& cp,
                                RuntimeAddResult* res);

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
  // Seed injection and matcher drains; the recorder keeps its own.
  MatchCounters counters_;
  uint64_t last_match_tasks_ = 0;
  uint32_t agent_ = 0;  // tag in the shared matcher (attach mode)
  // Owned only standalone; attach mode borrows the shared matcher's.
  std::unique_ptr<obs::Tracer> tracer_;           // when opts.trace.enabled
  std::unique_ptr<obs::MatchProfiler> profiler_;  // when opts.profile
  // Steady-state scratch, alive for the Engine's lifetime so repeated
  // cycles and §5.2 updates reuse high-water capacity (DESIGN.md §10): the
  // trace recorder (ring + trace state; drained only when records_traces()),
  // the per-cycle seed vector, the update's seed buffers, the fire delta,
  // and add_wme_text's fields.
  TraceExecutor recorder_;
  std::vector<Activation> seed_scratch_;
  UpdateScratch update_scratch_;
  WmeDelta fire_delta_;
  std::vector<Value> text_fields_;
};

}  // namespace psme
