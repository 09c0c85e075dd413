// Per-agent match state, split out of the Network (DESIGN.md §13).
//
// The compiled network — nodes, jumptable, alpha-net structure — is a
// read-mostly shared artifact: N agent sessions multiplex over one copy of
// it. Everything the match *mutates* lives here instead, one MatchState per
// agent: the paired beta hash tables, the token arena (with its epoch
// reclamation), the alpha-memory wme lists, and the sink the P-nodes report
// to (the agent's conflict set). Executors carry a MatchState pointer in
// their ExecContext; Network::execute reads structure from the shared
// network and state through the context, so the same compiled node serves
// every agent without their tokens ever meeting.
//
// Invariant (task tagging): an activation tagged with agent A is only ever
// executed against A's MatchState, and every child it emits inherits the
// tag — so one agent's drain can share worker threads with another's
// without observing its state. The ParallelMatcher enforces the tag at
// dispatch; this file just owns the state being protected.
#pragma once

#include <cstdint>
#include <deque>

#include "base/arena.h"
#include "base/thread_annotations.h"
#include "par/spinlock.h"
#include "rete/hash_tables.h"
#include "rete/nodes.h"

namespace psme {

class MatchSink;

/// The mutable half of one alpha memory for one agent. The node itself
/// (AlphaMemNode, shared structure) carries only the dense `mem_index` that
/// names this slot. Ranked Bucket like the table lines: a worker holds at
/// most one match-state Bucket lock at a time.
struct AlphaMemState {
  mutable Spinlock lock{LockRank::Bucket, "alpha-mem"};
  AlphaWmeList wmes PSME_GUARDED_BY(lock);
};

/// One agent's complete mutable match state.
class MatchState {
 public:
  MatchState() = default;
  MatchState(const MatchState&) = delete;
  MatchState& operator=(const MatchState&) = delete;

  PairedHashTables tables;
  /// mutable use: the quiescent node_outputs_into() replay builds
  /// transient tokens through a const MatchState.
  mutable TokenArena arena;
  AlphaWmePool alpha_pool;
  MatchSink* sink = nullptr;

  /// Grows the alpha-state array to cover `count` alpha memories (the
  /// network's alpha_mem_count()). Quiescent-only, like the arena's
  /// ensure_workers: executors call it at drain boundaries so state created
  /// for a freshly compiled production exists before any task touches it.
  /// A deque keeps existing entries' addresses (and their spinlocks) stable
  /// across growth.
  void ensure_alpha(size_t count) {
    while (alpha_.size() < count) alpha_.emplace_back();
  }

  AlphaMemState& alpha(uint32_t mem_index) { return alpha_[mem_index]; }
  [[nodiscard]] const AlphaMemState& alpha(uint32_t mem_index) const {
    return alpha_[mem_index];
  }
  [[nodiscard]] size_t alpha_count() const { return alpha_.size(); }

 private:
  std::deque<AlphaMemState> alpha_;
};

}  // namespace psme
