// The compiled Rete network: node storage, the jumptable, and the
// node-activation interpreter.
//
// The unit of work is the *activation* — "the address of the code for a node
// in the RETE network and an input token for that node" (§2.3). Executors
// (serial trace recorder, threaded worker pool) pop activations, call
// Network::execute, and push whatever child activations execute() emits into
// their ExecContext. The network itself never schedules anything.
//
// The network holds only *compiled, read-mostly structure* — nodes, the
// jumptable, the class roots. Everything the match mutates (beta hash
// tables, token arena, alpha wme lists, the P-node sink) is per-agent state
// (rete/match_state.h) reached through ExecContext::state, so N agent
// sessions multiplex over one compiled network (DESIGN.md §13).
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "base/symbol.h"
#include "lang/ast.h"
#include "rete/hash_tables.h"
#include "rete/match_state.h"
#include "rete/nodes.h"

namespace psme {

struct Activation {
  uint32_t node = 0;
  Side side = Side::Left;
  bool add = true;
  Token token;  // right-side activations carry a single wme
  // Which agent's MatchState this task runs against. Trails the aggregate so
  // a single-agent call site may leave it out; every emit path names the
  // emitting context's agent in the initializer.
  uint32_t agent = 0;
};

static_assert(std::is_trivially_copyable_v<Activation>,
              "the scheduler moves Activations as raw handles");

/// Per-task work counters, filled by execute(). These are the raw material
/// for the psim cost model and for the paper's contention figures.
struct TaskStats {
  uint32_t tests = 0;        // consistency/constant tests evaluated
  uint32_t probes = 0;       // memory entries scanned
  uint32_t inserts = 0;      // memory insertions/removals
  uint32_t emits = 0;        // successor activations emitted
  uint32_t lock_spins = 0;   // spins on the line lock
  uint32_t line = UINT32_MAX;     // hash line touched (if any)
  bool touched_line = false;
  Side line_side = Side::Left;

  void reset() { *this = TaskStats{}; }
};

/// Match work counted per context, not per task: plain integers, since one
/// thread owns a context, folded by the executors at quiescence.
struct MatchCounters {
  uint64_t indirections = 0;      // jumptable successor-list lookups (§5.1)
  uint64_t relinks = 0;           // joins relinked by a first left token
  uint64_t relinked_wmes = 0;     // right entries those relinks inserted
  uint64_t unlinks = 0;           // joins unlinked by a quiescent sweep
  uint64_t unlinked_entries = 0;  // right entries those sweeps erased

  void accumulate(const MatchCounters& o) {
    indirections += o.indirections;
    relinks += o.relinks;
    relinked_wmes += o.relinked_wmes;
    unlinks += o.unlinks;
    unlinked_entries += o.unlinked_entries;
  }
};

/// A join of one agent whose left memory emptied during a drain: a
/// candidate for the quiescent unlink sweep (Network::unlink_if_empty).
struct EmptiedJoin {
  uint32_t agent = 0;
  uint32_t join = 0;
};

class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void on_insert(const ProdNode& p, const Token& t) = 0;
  virtual void on_retract(const ProdNode& p, const Token& t) = 0;
};

/// The §5.2 task filter for run-time production addition ("the task queues
/// are changed to ignore tasks with IDs less than the first new node"):
/// activations of stateful nodes whose creation stamp is below `min_stamp`
/// are ignored, and with `suppress_alpha_left` (phase A) alpha memories do
/// not emit to their Left successors — left seeding happens in the explicit
/// replay phase. The paper's "ID" is our stamp, not our id: ids are recycled
/// after removal, so only the stamp orders nodes by creation. The default
/// (stamp 0; real stamps start at 1) filters nothing: an ordinary match. See
/// rete/update.h for the phase contract.
struct UpdateFilter {
  uint64_t min_stamp = 0;
  bool suppress_alpha_left = false;
};

/// Execution context handed to execute(). Concrete executors implement emit()
/// to enqueue child activations.
class ExecContext {
 public:
  virtual ~ExecContext() = default;
  virtual void emit(Activation&& a) = 0;

  TaskStats stats;

  /// The agent state every execute() call reads and writes: beta tables,
  /// token arena, alpha wme lists, sink. Executors bind it before the first
  /// execute (single-agent executors once at construction; the multi-agent
  /// scheduler re-binds per task from Activation::agent).
  MatchState* state = nullptr;
  /// Agent tag stamped onto every emitted child (matches `state`).
  uint32_t agent = 0;

  /// Which arena pool this context allocates child tokens from. Executors
  /// that run one context per thread set it to the worker index; the trace
  /// recorder keeps the default 0.
  size_t worker = 0;

  /// The §5.2 task filter of the drain in progress (default: none).
  UpdateFilter filter;

  /// This context's work counters; its executor folds them at quiescence.
  MatchCounters counters;

  /// Joins whose left memory this context's tasks emptied (DESIGN.md §16).
  /// The executor sweeps them at quiescence; capacity is retained.
  std::vector<EmptiedJoin> emptied;

  // Reusable per-context scratch for execute(): child tokens built under a
  // line lock, emitted after it is released. Living here (capacity retained
  // across tasks) instead of as locals keeps the steady-state execute path
  // free of heap traffic. execute() is not reentrant per context.
  std::vector<Token> scratch_children;
  std::vector<std::pair<Token, bool>> scratch_emissions;  // (token, add)
};

/// An executor as the §5.2 update (rete/update.h) sees it: the trace
/// recorder (TraceExecutor) and the ParallelMatcher both drain seeds under a
/// task filter through this one entry point.
class Drain {
 public:
  /// Drains `seeds` and everything they spawn under `filter`; returns when
  /// the match is quiescent, with the number of tasks executed. Seeds are
  /// consumed but the vector's capacity stays with the caller.
  virtual uint64_t drain(std::vector<Activation>& seeds,
                         const UpdateFilter& filter) = 0;

 protected:
  ~Drain() = default;
};

class Network {
 public:
  Network(SymbolTable& syms, ClassSchemas& schemas);

  SymbolTable& syms() { return syms_; }
  [[nodiscard]] const SymbolTable& syms() const { return syms_; }
  ClassSchemas& schemas() { return schemas_; }
  Jumptable& jumptable() { return jt_; }
  [[nodiscard]] const Jumptable& jumptable() const { return jt_; }

  /// Creates a node of type T with the next creation stamp, a node id, a
  /// jumptable slot and, for an alpha memory, a dense mem_index: the slot
  /// its per-agent state occupies in every MatchState. Ids, slots and
  /// mem_indexes are all recycled LIFO from removal's free lists, so under
  /// add/remove churn `nodes_`, the dispatch table, every MatchState's alpha
  /// array and every profiler shard stay sized to the largest live network,
  /// not to its history. Each is drained before it is freed (free_node).
  /// Only the stamp is never reused: it says which of two nodes is older.
  template <typename T>
  T* make_node() {
    auto owned = std::make_unique<T>();
    T* n = owned.get();
    n->stamp = next_stamp_++;
    n->id = recycle(free_ids_, [&] {
      nodes_.emplace_back();
      return static_cast<uint32_t>(nodes_.size() - 1);
    });
    nodes_[n->id] = std::move(owned);
    n->jt_slot = recycle(free_slots_, [&] { return jt_.new_slot(); });
    if constexpr (std::is_same_v<T, AlphaMemNode>) {
      n->mem_index =
          recycle(free_mem_indexes_, [&] { return alpha_mem_count_++; });
    }
    return n;
  }

  /// Frees a removed node and returns its id, its jumptable slot (which must
  /// be empty — the unsplice erased every entry, and a dead node's
  /// successors are dead too) and, for alpha memories, its mem_index to the
  /// free lists. node(id) returns nullptr until make_node reuses the id.
  /// Caller contract (Engine::remove_production_runtime): the node is
  /// unspliced from the published jumptable, and every agent's state and
  /// profiler cells for it have been drained — whatever reuses the id must
  /// find nothing of the old node.
  void free_node(uint32_t id) {
    Node* n = nodes_[id].get();
    assert(n != nullptr && "free_node: node already freed");
    assert(jt_.peek(n->jt_slot).empty() && "free_node: slot not unspliced");
    free_slots_.push_back(n->jt_slot);
    if (n->type == NodeType::AlphaMem) {
      free_mem_indexes_.push_back(static_cast<AlphaMemNode*>(n)->mem_index);
    }
    nodes_[id].reset();
    free_ids_.push_back(id);
  }

  /// The stamp the next make_node will hand out: every node created from
  /// now on has a stamp >= this, every existing node a smaller one.
  [[nodiscard]] uint64_t next_stamp() const { return next_stamp_; }

  /// How many alpha memories exist (every MatchState sizes its alpha-state
  /// array to this via ensure_alpha at drain boundaries). Counts recycled
  /// indexes once: removal returns a mem_index to the free list instead of
  /// shrinking this.
  [[nodiscard]] uint32_t alpha_mem_count() const { return alpha_mem_count_; }

  /// Null for freed ids not yet reused; loops over the id space must skip.
  [[nodiscard]] Node* node(uint32_t id) { return nodes_[id].get(); }
  [[nodiscard]] const Node* node(uint32_t id) const { return nodes_[id].get(); }
  /// Size of the id space: the most nodes ever live at once.
  [[nodiscard]] uint32_t node_count() const {
    return static_cast<uint32_t>(nodes_.size());
  }
  /// Nodes minus freed ids (diagnostics; the churn tests assert flatness).
  [[nodiscard]] uint32_t live_node_count() const {
    return static_cast<uint32_t>(nodes_.size() - free_ids_.size());
  }
  /// Recycled-resource watermarks (diagnostics).
  [[nodiscard]] size_t free_slot_count() const { return free_slots_.size(); }
  [[nodiscard]] size_t free_mem_index_count() const {
    return free_mem_indexes_.size();
  }

  /// Jumptable slot holding the entry nodes for wmes of class `cls`.
  uint32_t root_slot(Symbol cls);
  [[nodiscard]] bool has_root(Symbol cls) const;

  /// All class-root slots (the network verifier's entry points).
  [[nodiscard]] const std::map<Symbol, uint32_t>& roots() const {
    return roots_;
  }

  /// Entry point for a wme change: queues the class-root activations.
  void inject(const Wme* w, bool add, ExecContext& ctx);

  /// Executes one node activation; emits child activations through ctx.
  void execute(const Activation& act, ExecContext& ctx);

  /// The §5.2 task filter, applied by executors (or by emit paths).
  [[nodiscard]] bool should_execute(const Activation& a,
                                    const ExecContext& ctx) const {
    if (ctx.filter.min_stamp == 0) return true;
    const Node* n = nodes_[a.node].get();
    return is_stateless(n->type) || n->stamp >= ctx.filter.min_stamp;
  }

  /// The quiescent half of right unlinking (DESIGN.md §16): if `join` is
  /// still a Join that is linked with no live left entry in `ms`, erases its
  /// right entries (one per wme of its alpha memory) and unlinks it.
  /// Anything else — a relinked join, a freed or reused id — is left as it
  /// is, so a candidate list may hold duplicates and stale entries. Counts
  /// into `c`. Quiescent-only: reads lock-guarded memories without locks.
  void unlink_if_empty(uint32_t join, MatchState& ms, MatchCounters& c) const
      PSME_NO_THREAD_SAFETY_ANALYSIS;

  /// Appends to `out` all output tokens a node would pass downstream,
  /// regenerated from the given agent's stored state: the §5.2 replay ("the
  /// last shared node must be specially executed in order to pass down all
  /// of the PIs that it has stored as state"). `out` is a caller-owned
  /// buffer whose capacity survives across replays (the phase-C scratch;
  /// see UpdateScratch in rete/update.h); it is not cleared.
  /// Quiescent-only: reads lock-guarded memories without their locks.
  void node_outputs_into(uint32_t node_id, const MatchState& ms,
                         std::vector<Token>& out) const
      PSME_NO_THREAD_SAFETY_ANALYSIS;

  /// Node census for diagnostics and the code-size model.
  struct Census {
    uint32_t consts = 0, disjs = 0, intras = 0, alpha_mems = 0, joins = 0,
             nots = 0, nccs = 0, partners = 0, bjoins = 0, prods = 0;
    [[nodiscard]] uint32_t two_input() const { return joins + nots + bjoins; }
    [[nodiscard]] uint32_t total() const {
      return consts + disjs + intras + alpha_mems + joins + nots + nccs +
             partners + bjoins + prods;
    }
  };
  [[nodiscard]] Census census() const;

 private:
  void emit_succs(uint32_t jt_slot, const Token& token, bool add,
                  ExecContext& ctx);

  /// Pops the most recently freed value of `pool`, or makes a fresh one.
  template <typename Fresh>
  static uint32_t recycle(std::vector<uint32_t>& pool, Fresh&& fresh) {
    if (pool.empty()) return fresh();
    const uint32_t v = pool.back();
    pool.pop_back();
    return v;
  }

  /// The bound agent state of a context, asserted in debug builds: every
  /// execute() path goes through this accessor, so a task ever dispatched
  /// without its agent's state trips immediately.
  static MatchState& state_of(ExecContext& ctx) {
    assert(ctx.state != nullptr && "ExecContext has no MatchState bound");
    return *ctx.state;
  }

  /// Relinks an unlinked join before its first left token is stored:
  /// under the alpha-memory lock, inserts one right entry per wme the
  /// memory holds and sets the link flag (release). Returns false when a
  /// peer relinked it first.
  bool relink(const JoinNode& n, MatchState& ms, ExecContext& ctx);
  /// Records that `join`'s left memory may now be empty, for the sweep.
  static void note_emptied(uint32_t join, const MatchState& ms,
                           ExecContext& ctx) {
    if (ms.unlinking) ctx.emptied.push_back(EmptiedJoin{ctx.agent, join});
  }

  void exec_const(const ConstNode& n, const Activation& a, ExecContext& ctx);
  void exec_disj(const DisjNode& n, const Activation& a, ExecContext& ctx);
  void exec_intra(const IntraNode& n, const Activation& a, ExecContext& ctx);
  void exec_bjoin(const BJoinNode& n, const Activation& a, ExecContext& ctx);
  void exec_alpha(const AlphaMemNode& n, const Activation& a,
                  ExecContext& ctx);
  void exec_join(const JoinNode& n, const Activation& a, ExecContext& ctx);
  void exec_not(const NotNode& n, const Activation& a, ExecContext& ctx);
  void exec_ncc(const NccNode& n, const Activation& a, ExecContext& ctx);
  void exec_partner(const NccPartnerNode& n, const Activation& a,
                    ExecContext& ctx);
  void exec_prod(const ProdNode& n, const Activation& a, ExecContext& ctx);

  SymbolTable& syms_;
  ClassSchemas& schemas_;
  Jumptable jt_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<Symbol, uint32_t> roots_;  // class -> jumptable slot
  uint32_t alpha_mem_count_ = 0;
  uint64_t next_stamp_ = 1;  // 0 is UpdateFilter's "no filter"
  // Removal's recycling pools, consumed LIFO by make_node.
  std::vector<uint32_t> free_ids_;
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> free_mem_indexes_;
};

}  // namespace psme
