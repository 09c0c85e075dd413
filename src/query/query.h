// Transient-query workload: epmem-style cue matching over the live Rete.
//
// A cue is a partial working-memory graph written as positive condition
// elements — "(goal ^state <s>) (block ^on <s> ^color red)". Instead of a
// bespoke graph matcher, the cue is compiled into a TEMPORARY production
// through the run-time addition path: the §5.2 three-phase state update that
// brings the new production's memories up to date IS the query evaluation —
// by the time add_production_runtime returns, every partial instantiation of
// the cue sits in the agent's beta memories and every full instantiation in
// its conflict set. The session then reads two things out of that state:
//
//   * matches: the full instantiations (each one a graph match — the wmes
//     bound to the cue's CEs, in CE order), harvested from the conflict set;
//   * score: the best partial-instantiation depth — how many leading
//     positive CEs some combination of wmes satisfies. Full match scores
//     positive_ce_count; otherwise the deepest join whose left memory holds
//     a live token gives its arity; otherwise 1 if the first CE's alpha
//     memory is non-empty; else 0. (This is the graded retrieval signal an
//     epmem-style "best partial match" needs.)
//
// end() tears the transient production back out through the removal path
// (Engine::remove_production_runtime) — unsplice in place, drain, reclaim —
// leaving network and agent state exactly as before begin(). A cue the
// builder rejects (a predicate on a never-bound variable) throws from
// begin() before anything is spliced, and no cue is active afterwards. The
// add/match/remove cycle is the churn workload bench_query measures and
// query_churn_test soaks; it is the hot-path stress test for removal.
//
// Cue restrictions: positive CEs only (no `-(...)`, no `-{...}` groups) —
// a cue describes what should be PRESENT in the graph; negation has no
// retrieval-depth semantics. Violations throw std::invalid_argument.
//
// Quiescent-only, like the add/remove machinery it rides: never run a query
// while a match cycle is in flight. begin() flushes the engine's own pending
// wme changes first so the query sees a settled working memory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"

namespace psme {

/// One full instantiation of a cue: the matched wmes, in cue-CE order.
struct QueryMatch {
  std::vector<const Wme*> wmes;
};

struct QueryResult {
  uint32_t score = 0;         // best partial-instantiation depth, in CEs
  uint32_t positive_ces = 0;  // cue size; score == positive_ces on full match
  std::vector<QueryMatch> matches;  // full graph matches (empty if partial)

  /// Cost of installing / tearing down the cue (the churn numbers
  /// bench_query aggregates).
  Engine::RuntimeAddResult add;
  Engine::RuntimeRemoveResult remove;

  [[nodiscard]] bool full() const {
    return positive_ces > 0 && score == positive_ces;
  }
};

/// A query session against one agent's engine. Reusable: each ask() runs a
/// complete add/score/remove cycle; begin()/score()/matches()/end() expose
/// the phases separately so the bench can time them individually.
class QuerySession {
 public:
  explicit QuerySession(Engine& e);
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;
  ~QuerySession();

  /// Compiles `cue_ces` (one or more positive CEs, production-LHS syntax)
  /// into a transient production and runs the §5.2 update — the evaluation.
  /// One cue may be active per session at a time (end() the previous first).
  Engine::RuntimeAddResult begin(std::string_view cue_ces);

  /// Best partial-instantiation depth of the active cue (see file comment).
  [[nodiscard]] uint32_t score() const;

  /// Full instantiations of the active cue, deterministic order (the
  /// conflict set's content key).
  [[nodiscard]] std::vector<QueryMatch> matches() const;

  /// Number of positive CEs in the active cue.
  [[nodiscard]] uint32_t positive_ces() const;

  /// Per-CE measured-cost anchors for the active cue: entry i names the
  /// network node that prices CE i against the match profiler — the join
  /// whose left arity is i for i >= 1 (its activations/time are the cost of
  /// extending an i-CE prefix by CE i), and the first CE's alpha memory for
  /// i == 0. Entries are UINT32_MAX when unresolvable. A cue prefix shared
  /// with a resident production resolves to the SHARED node, whose profiler
  /// cell aggregates both tenants — snapshot-diff around the query isolates
  /// the cue's own contribution (bench_query does). Empty without an active
  /// cue.
  [[nodiscard]] std::vector<uint32_t> ce_join_nodes() const;

  /// Removes the transient production, restoring the pre-begin network.
  Engine::RuntimeRemoveResult end();

  [[nodiscard]] bool active() const { return prod_ != nullptr; }

  /// The whole cycle: begin + score/matches + end.
  QueryResult ask(std::string_view cue_ces);

 private:
  /// The node splicing into the active cue's {P-node, Left}: the bottom of
  /// its Join chain, or CE 0's alpha memory for a one-CE cue.
  [[nodiscard]] const Node* pnode_feeder() const;

  Engine& engine_;
  const Production* prod_ = nullptr;  // the active transient production
  std::string head_;                  // "(p query-a<agent> ", see begin()
  // Kept across asks, so a cue's source text and the parser's scratch
  // reuse their capacity: a cue parse allocates only the AST.
  std::string src_;
  Parser parser_;
};

}  // namespace psme
