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
// Each agent also keeps a link state per Join node (JoinLink): a join whose
// left memory is empty for this agent is *unlinked* — its alpha memory sends
// it no right activations and it stores no right entries — and its first
// left token relinks it (right unlinking, DESIGN.md §16).
//
// Invariant (task tagging): an activation tagged with agent A is only ever
// executed against A's MatchState, and every child it emits inherits the
// tag — so one agent's drain can share worker threads with another's
// without observing its state. The ParallelMatcher enforces the tag at
// dispatch; this file just owns the state being protected.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "base/arena.h"
#include "base/thread_annotations.h"
#include "par/spinlock.h"
#include "rete/hash_tables.h"
#include "rete/nodes.h"

namespace psme {

class MatchSink;

/// The mutable half of one alpha memory for one agent. The node itself
/// (AlphaMemNode, shared structure) carries only the dense `mem_index` that
/// names this slot. Ranked AlphaMem, below the table lines: a worker holds
/// at most one alpha-memory lock, and a relink takes line locks under it.
struct AlphaMemState {
  mutable Spinlock lock{LockRank::AlphaMem, "alpha-mem"};
  AlphaWmeList wmes PSME_GUARDED_BY(lock);
};

/// One join's link state for one agent (DESIGN.md §16). `left` counts the
/// join's live (non-anti) left entries; it is bumped relaxed under whichever
/// line lock guards the entry, so two lines of one join never race on it.
/// `linked` says whether the join's right entries are stored and its alpha
/// memory emits to it: a relink sets it with release under the alpha-memory
/// lock, a left add reads it with acquire before taking that lock, and only
/// the quiescent sweep clears it. The copy constructor exists only so the
/// table can grow at quiescence.
struct JoinLink {
  std::atomic<uint32_t> left{0};
  std::atomic<bool> linked{false};

  explicit JoinLink(bool is_linked) : linked(is_linked) {}
  JoinLink(const JoinLink& o) noexcept
      : left(o.left.load(std::memory_order_relaxed)),
        linked(o.linked.load(std::memory_order_relaxed)) {}
};

/// One agent's complete mutable match state.
class MatchState {
 public:
  explicit MatchState(bool unlink_joins = true) : unlinking(unlink_joins) {}
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

  /// Right unlinking is on unless the owning engine records traces: a
  /// recorded drain keeps every join linked, so its DAG counts every node
  /// activation as PSM-E does.
  const bool unlinking;

  /// Grows the link table to cover node ids [0, `count`), the network's
  /// node_count(). Quiescent-only, like ensure_alpha; a new join starts
  /// unlinked with an empty left memory (linked when not unlinking).
  void ensure_links(size_t count) {
    while (links_.size() < count) links_.emplace_back(!unlinking);
  }
  /// Removal: the freed id's next node starts from the default state.
  void reset_link(uint32_t node) {
    if (node >= links_.size()) return;
    links_[node].left.store(0, std::memory_order_relaxed);
    links_[node].linked.store(!unlinking, std::memory_order_relaxed);
  }

  JoinLink& link(uint32_t node) { return links_[node]; }
  /// Whether join `node` is linked, also for an id the table has not grown
  /// to yet (default state). Quiescent readers only.
  [[nodiscard]] bool linked(uint32_t node) const {
    return node < links_.size()
               ? links_[node].linked.load(std::memory_order_relaxed)
               : !unlinking;
  }
  /// Live left entries of join `node` (0 past the table). Quiescent readers.
  [[nodiscard]] uint32_t left_count(uint32_t node) const {
    return node < links_.size()
               ? links_[node].left.load(std::memory_order_relaxed)
               : 0;
  }

 private:
  std::deque<AlphaMemState> alpha_;
  std::vector<JoinLink> links_;  // indexed by node id; joins only are read
};

}  // namespace psme
