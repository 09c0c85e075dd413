// Soar kernel: the Decide module (universal subgoaling), the synchronous
// elaboration phase, chunking, and working-memory garbage collection by
// context reachability (§3 of the paper).
//
// Representation (Soar-style triples, cf. "Soar systems use collections of
// smaller wmes"):
//   (wme  ^id <i> ^attr <a> ^value <v>)                      task state
//   (pref ^gid <g> ^sid <s> ^role <slot> ^value <v> ^kind <k> ^ref <v2>)
//     preferences for the context slots; kind is acceptable, best, reject,
//     better (with ^ref), or indifferent; ^sid scopes operator/state
//     preferences to the state they were proposed for.
//
// Context slots per goal: problem-space, state, operator — "each goal entry
// in the context stack is represented using three wmes". Decide fills them
// from preferences after each elaboration phase reaches quiescence; an
// unresolvable slot raises a tie or no-change impasse and pushes a subgoal.
//
// Chunking: every wme created by a production firing records its creating
// instantiation. When a firing in a subgoal creates a wme attached to a
// less-deep goal (a *result*), the chunker backtraces through subgoal-level
// wmes to the supergoal wmes that produced it, variablizes identifiers, and
// emits a new production, which is compiled into the live Rete at the end of
// the elaboration cycle (§5).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"

namespace psme {

struct SoarOptions {
  bool learning = true;
  uint64_t max_decisions = 200;
  uint64_t max_elab_cycles = 100000;
  /// The whole Soar run (every elaboration cycle plus every chunk's §5.2
  /// state update) drains on one persistent ParallelMatcher with
  /// engine.match_workers workers — one by default, on the calling thread.
  /// With engine.record_traces (and one worker) the trace recorder runs it
  /// instead and SoarRunStats::traces fills (Engine::records_traces()).
  EngineOptions engine;

  /// Flight recorder (obs/profiler.h): when non-zero, run() captures a
  /// (metrics + profile) snapshot into a preallocated ring every
  /// `flight_every` decisions — a post-hoc window over a long-lived session
  /// without tracing overhead. PSME_FLIGHT=<path> arms it too (defaulting
  /// flight_every to 1) and dumps the retained window there at the end of
  /// run(). Capture is a reporting-time operation at the quiescent decision
  /// boundary, never inside a match cycle.
  uint64_t flight_every = 0;
  size_t flight_capacity = 32;
};

/// Provenance of one wme: the instantiation whose firing created it.
struct Provenance {
  const Production* prod = nullptr;
  Token token;
  int level = 0;  // goal level of the creating instantiation
};

struct SoarRunStats {
  uint64_t decisions = 0;
  uint64_t elab_cycles = 0;
  uint64_t impasses = 0;
  uint64_t chunks_built = 0;
  bool goal_achieved = false;
  bool halted_on_limit = false;

  /// Per-phase wall time of the run loop (always-on: two clock reads per
  /// phase per decision). Elaborate covers the parallel-drain-friendly match
  /// work; Decide and GC run serially between drains — these three settle
  /// the ROADMAP question of whether that serial gap matters as sessions
  /// scale (bench_multiagent reports their shares).
  uint64_t elaborate_ns = 0;
  uint64_t decide_ns = 0;
  uint64_t gc_ns = 0;

  /// Tasks executed by the elaboration cycles' matches and by the chunks'
  /// §5.2 updates (summed over the attached agents), under either executor.
  uint64_t match_tasks = 0;
  uint64_t update_tasks = 0;

  /// Recorded task DAGs (empty unless Engine::records_traces()): one per
  /// elaboration cycle (the match workload of the run), and the §5.2 update
  /// phases of every chunk added at run time.
  std::vector<CycleTrace> traces;
  std::vector<CycleTrace> update_ab, update_c;
  /// Compile cost per chunk (Table 5-1/5-2 raw data).
  struct ChunkCost {
    double compile_seconds = 0;
    size_t code_bytes = 0;
    int total_ces = 0;
    uint32_t new_two_input_nodes = 0;
  };
  std::vector<ChunkCost> chunk_costs;
  /// Source text of the chunks built, parseable by a fresh kernel (used to
  /// seed after-chunking runs).
  std::vector<std::string> chunk_texts;
};

class SoarKernel {
 public:
  explicit SoarKernel(SoarOptions opts = {});

  /// Per-agent session over a shared network (multi-agent serving): the
  /// kernel's engine joins `cnet` — and `shared_matcher`'s worker pool, when
  /// given — as a new agent session (see engine/agent_group.h for the
  /// group-managed form). Chunks this kernel learns are spliced into the
  /// shared network in place and every sibling agent's memories are brought
  /// up to date (§5.2); chunk dedup is network-wide. Sibling sessions take
  /// turns: none may match while another adds or removes a production.
  SoarKernel(SoarOptions opts, std::shared_ptr<CompiledNetwork> cnet,
             ParallelMatcher* shared_matcher = nullptr);

  Engine& engine() { return engine_; }
  [[nodiscard]] const SoarOptions& options() const { return opts_; }

  /// Loads task productions (initial production memory).
  void load_productions(std::string_view src);

  // ---- identifiers -------------------------------------------------------
  /// Creates and registers a fresh identifier at `level` (≥ 1).
  Symbol make_id(std::string_view prefix, int level);
  /// The first registration of `s` wins; later ones keep its level.
  void register_id(Symbol s, int level);
  /// Goal level of an identifier; 0 if `s` is not a registered identifier.
  [[nodiscard]] int id_level(Symbol s) const {
    return s.raw() < id_level_.size() ? id_level_[s.raw()] : 0;
  }

  // ---- task setup --------------------------------------------------------
  /// Adds a task triple (wme ^id ^attr ^value); architectural (no creator).
  const Wme* add_triple(Symbol id, std::string_view attr, Value v);
  const Wme* add_triple(Symbol id, Symbol attr, Value v);

  /// Removes the live triple (id ^attr value) if present.
  void remove_triple(Symbol id, Symbol attr, Value v);

  /// Creates the top goal with the given problem space and initial state
  /// identifiers installed in its context. Must be called exactly once.
  Symbol create_top_goal(Symbol problem_space, Symbol initial_state);

  /// The run halts with goal_achieved when this returns true (checked after
  /// each decision). Typical tasks test for a wme like (<s> ^task-done yes).
  void set_goal_test(std::function<bool(SoarKernel&)> fn) {
    goal_test_ = std::move(fn);
  }

  /// Observer called after every decision (tracing, examples, debugging).
  void set_decision_listener(std::function<void(SoarKernel&)> fn) {
    on_decision_ = std::move(fn);
  }

  /// Convenience goal test helper: does any live triple (id ^attr value)
  /// exist?
  [[nodiscard]] bool has_triple_attr(std::string_view attr,
                                     std::string_view value);

  // ---- main loop ---------------------------------------------------------
  SoarRunStats run();

  /// The flight recorder, non-null once run() armed it (SoarOptions::
  /// flight_every or PSME_FLIGHT). Retained across runs, so a caller can
  /// inspect the last window after run() returns or dump() it elsewhere.
  [[nodiscard]] obs::FlightRecorder* flight() const { return flight_.get(); }

  // ---- production removal ------------------------------------------------
  /// Excises a production at run time: scrubs the provenance of every wme it
  /// created (the chunker must never backtrace into a torn-down
  /// instantiation), removes it from the live Rete through
  /// Engine::remove_production_runtime, and — if it was a chunk this network
  /// learned — forgets its dedup signature so an identical chunk can be
  /// re-learned later. The wmes themselves stay in working memory: Soar
  /// results outlive their creators (they are retracted by goal GC, not by
  /// production removal).
  Engine::RuntimeRemoveResult excise(const Production* p);

  // ---- introspection (tests/benches) --------------------------------------
  struct GoalEntry {
    Symbol id;
    int level = 1;
    Symbol problem_space, state, op;
    Symbol impasse_role;  // role of the impasse this goal was created for
    Symbol impasse_type;
  };
  [[nodiscard]] const std::vector<GoalEntry>& goal_stack() const {
    return stack_;
  }
  [[nodiscard]] int wme_level(const Wme* w) const;

  struct Candidate {
    Symbol value;
    bool best = false;
    bool indifferent = false;
  };

 private:
  friend class Chunker;

  /// Shared ctor tail: symbol interning, gensym hook, wme retention.
  void init();

  // Elaboration phase: fire all unfired instantiations, match, repeat until
  // quiescence. Appends traces to `stats`.
  void elaborate(SoarRunStats& stats);

  // One decision: fills a slot, replaces a state, or raises an impasse.
  // Returns false when nothing at all can change (system quiescent).
  bool decide(SoarRunStats& stats);

  // The slot's candidates, in slot_scratch_.out (valid until the next
  // call).
  std::vector<Candidate>& slot_candidates(const GoalEntry& g, Symbol role);

  void install(GoalEntry& g, Symbol role, Symbol value);
  void push_subgoal(GoalEntry& g, Symbol role, Symbol type,
                    const std::vector<Candidate>& items, SoarRunStats& stats);
  void pop_goals_below(int level);
  void gc_wmes_above(int level);

  // Context-reachability garbage collection (§3: "The decision module keeps
  // track of which wmes are accessible from the context stack, and
  // automatically garbage collects inaccessible wmes"). Runs after every
  // decision; superseded states, their substructure and their stale
  // preferences are retracted from the match.
  void gc_unreachable();

  // Fire bookkeeping: applies a delta with provenance recording.
  void apply_fire_delta(const Instantiation* inst, SoarRunStats& stats);
  int instantiation_level(const Token& token) const;

  // Per-wme kernel state, one entry per working-memory record
  // (WorkingMemory::record_index).
  struct WmeEntry {
    int level = 0;    // goal level; 0: none recorded (wme_level reads 1)
    Provenance prov;  // prov.prod == nullptr: architectural, no creator
  };
  // entry() grows the table to the records WM has carved; find_entry()
  // returns nullptr past its end.
  WmeEntry& entry(const Wme* w);
  [[nodiscard]] const WmeEntry* find_entry(const Wme* w) const;
  // The creating instantiation of `w`, or nullptr for an architectural wme.
  [[nodiscard]] const Provenance* provenance(const Wme* w) const;

  // A Provenance token is held across elaboration cycles, so the table owns
  // a pinned copy (the chunker backtraces through it long after the
  // creating drain ended): set_provenance pins it, and retract and excise
  // unpin it.
  void set_provenance(const Wme* w, const Production* prod, const Token& tok,
                      int level);
  // Retracts `w` and forgets its level and provenance.
  void retract(const Wme* w);
  // Passes that collect wmes with WorkingMemory::for_each_live (storage
  // order) sort them back into timetag order wherever order is observable:
  // a removal sequence orders the next match's seeds, and through them the
  // recorded task DAGs; a slot's preferences feed the better/worse filter.
  static void sort_by_timetag(std::vector<const Wme*>& wmes);

  // Builds and installs chunks for the pending results (end of elaboration
  // cycle; WM is consistent with the network at this point).
  void flush_chunks(SoarRunStats& stats);

  [[nodiscard]] bool subgoal_exists_for(size_t gi, Symbol role) const;

  SoarOptions opts_;
  Engine engine_;
  std::function<bool(SoarKernel&)> goal_test_;
  std::function<void(SoarKernel&)> on_decision_;
  std::unique_ptr<obs::FlightRecorder> flight_;  // armed on first run()

  Symbol cls_wme_, cls_pref_;
  Symbol attr_id_, attr_attr_, attr_value_;
  Symbol attr_gid_, attr_sid_, attr_role_, attr_kind_, attr_ref_;
  Symbol sym_ps_, sym_state_, sym_op_;
  Symbol sym_acceptable_, sym_best_, sym_reject_, sym_better_, sym_indiff_;
  Symbol sym_tie_, sym_nochange_;
  Symbol sym_done_, sym_yes_, sym_prev_;

  // Goal level by Symbol::raw(), 0 for a symbol that is not an identifier;
  // grown by register_id.
  std::vector<int> id_level_;
  // WmeEntry by WorkingMemory::record_index. The kernel retains removed
  // wmes, so a record is never reused; retract() resets the entry anyway.
  std::vector<WmeEntry> wme_entries_;
  // GC reachability marks by Symbol::raw(): an identifier is reachable in
  // the running gc_unreachable call when its mark equals gc_epoch_.
  std::vector<uint32_t> gc_marks_;
  uint32_t gc_epoch_ = 0;
  // Wmes a GC pass or a slot scan collected from WM (capacity kept).
  std::vector<const Wme*> wm_scratch_;
  // slot_candidates' preference lists and result (capacity kept).
  struct SlotScratch {
    std::vector<Symbol> acceptable, rejects, bests, indiffs;
    std::vector<std::pair<Symbol, Symbol>> betters;  // (better, worse)
    std::vector<Candidate> out;
  } slot_scratch_;
  // The firing instantiation's RHS result (slot capacity kept).
  WmeDelta fire_delta_;
  std::vector<GoalEntry> stack_;

  // Results awaiting chunking at the end of the current elaboration cycle.
  struct PendingResult {
    const Wme* wme;
    int result_level;
  };
  std::vector<PendingResult> pending_results_;
  // Chunk signature dedup lives on the shared CompiledNetwork (network-wide
  // across agent sessions), not here. This map only remembers which signature
  // each locally-built chunk carries, so excise() can release it.
  std::unordered_map<const Production*, std::string> chunk_sigs_;
  std::vector<const Instantiation*> unfired_scratch_;  // per-elab harvest
  int current_fire_level_ = 1;

  friend struct SoarAccess;
};

}  // namespace psme
