// The conflict set (CS).
//
// P-node activations insert/retract instantiations here; the executor may be
// running them from several threads, so mutation is lock-protected. OPS5
// mode selects one instantiation per cycle with the LEX strategy; Soar mode
// fires every unfired instantiation in parallel (§3: "all of the
// instantiations in the CS are then fired in parallel").
//
// Storage is slab-pooled: instantiations live in intrusive nodes carved from
// slabs the CS owns, kept on a free list when retracted. The arrival-ordered
// doubly-linked list replaces std::list (no per-insert heap node), and a
// growth-only power-of-two chained index replaces the unordered_multimap (no
// per-insert map node). At steady state — CS population oscillating below
// its high-water mark — an insert/retract pair touches no heap at all, which
// is what tests/engine_alloc_test.cpp asserts across full engine cycles.
//
// The list keeps the fired instantiations apart from the unfired ones:
// mark_fired moves a node to the head, inserts append at the tail, and
// nothing goes from fired back to unfired, so the unfired ones are always a
// tail starting at `unfired_`. A harvest (unfired_into, select_lex) walks
// only that tail.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/thread_annotations.h"
#include "par/spinlock.h"
#include "rete/network.h"
#include "rete/token.h"

namespace psme {

struct Instantiation {
  const ProdNode* pnode = nullptr;
  Token token;
  /// CS insertion order. Diagnostics only: under the threaded match this is
  /// schedule-dependent (racing parents emit the join child in lock-arrival
  /// order), so nothing that affects firing may read it — ordering uses the
  /// deterministic content key instead (see det_less in conflict_set.cpp).
  uint64_t arrival = 0;
  bool fired = false;
};

class ConflictSet final : public MatchSink {
 public:
  ConflictSet();

  void on_insert(const ProdNode& p, const Token& t) override;
  void on_retract(const ProdNode& p, const Token& t) override;

  [[nodiscard]] size_t size() const;

  /// Unfired instantiations, in the deterministic content-key order
  /// (production age, token timetags) — identical for every worker count and
  /// schedule. Soar fires all of these in one elaboration cycle; call
  /// mark_fired for each afterwards.
  [[nodiscard]] std::vector<const Instantiation*> unfired() const;

  /// Same, into a caller-owned buffer (cleared first, capacity retained) so
  /// the per-cycle harvest stops allocating once the buffer has grown. Visits
  /// only the unfired instantiations, and sorts keys copied out once.
  void unfired_into(std::vector<const Instantiation*>& out) const;

  void mark_fired(const Instantiation* inst);

  /// Removes a fired instantiation (OPS5 fires then discards).
  void remove(const Instantiation* inst);

  /// OPS5 LEX selection among unfired instantiations: recency of timetags
  /// (lexicographic over descending-sorted tags), then specificity (test
  /// count of the production), then the deterministic content key. Returns
  /// nullptr if no unfired instantiation exists.
  [[nodiscard]] const Instantiation* select_lex() const;

  /// All current instantiations (tests/diagnostics): the fired ones, then
  /// the unfired ones; callers that need an order sort.
  [[nodiscard]] std::vector<const Instantiation*> all() const;

  [[nodiscard]] uint64_t total_inserts() const {
    SpinGuard g(lock_);
    return inserts_;
  }
  [[nodiscard]] uint64_t total_retracts() const {
    SpinGuard g(lock_);
    return retracts_;
  }

  /// Retracts still waiting for their conjugate insert (see on_retract).
  /// Nonzero only while a parallel cycle is in flight; at quiescence every
  /// conjugate pair has cancelled.
  [[nodiscard]] size_t pending_retracts() const {
    SpinGuard g(lock_);
    return pending_count_;
  }

  /// Slabs allocated since construction (diagnostics: flat at steady state).
  [[nodiscard]] uint64_t slab_allocs() const {
    SpinGuard g(lock_);
    return slabs_.size();
  }

  void clear();

  /// Production removal's drain: discards every instantiation (fired or
  /// not, including pending conjugate retracts) whose P-node is the removed
  /// production's. Unpinning here is what releases the removed production's
  /// instantiation tokens to the next epoch boundary. Does not count as
  /// retracts — the production is gone, not refuted. Returns how many
  /// instantiations were dropped.
  size_t purge_production(const ProdNode* pnode);

 private:
  // Instantiation is the first member: the Instantiation* handles handed to
  // callers cast back to their Node.
  struct Node {
    Instantiation inst;
    size_t key = 0;
    Node* prev = nullptr;   // arrival list links (or free/pending list via next)
    Node* next = nullptr;
    Node* hnext = nullptr;  // index bucket chain
  };
  static_assert(std::is_standard_layout_v<Node>,
                "Instantiation* <-> Node* relies on first-member layout");

  static constexpr size_t kSlabNodes = 64;
  static constexpr size_t kInitialBuckets = 64;

  static size_t key_of(const ProdNode& p, const Token& t) {
    return token_identity_hash(t) ^ (static_cast<size_t>(p.id) * 0x9e3779b9u);
  }

  [[nodiscard]] size_t bucket_of(size_t key) const PSME_REQUIRES(lock_) {
    return (key ^ (key >> 17)) & bucket_mask_;
  }

  Node* alloc_node() PSME_REQUIRES(lock_);
  void free_node(Node* n) PSME_REQUIRES(lock_);
  /// Unlinks from both the arrival list and the index chain.
  void unlink(Node* n) PSME_REQUIRES(lock_);
  /// Unlinks from the arrival list only.
  void unlink_list(Node* n) PSME_REQUIRES(lock_);
  void grow_buckets() PSME_REQUIRES(lock_);
  [[nodiscard]] bool lex_less(const Instantiation* a,
                              const Instantiation* b) const PSME_REQUIRES(lock_);

  mutable Spinlock lock_{LockRank::ConflictSet, "conflict-set"};
  std::vector<std::unique_ptr<Node[]>> slabs_ PSME_GUARDED_BY(lock_);
  Node* free_ PSME_GUARDED_BY(lock_) = nullptr;
  // Fired instantiations (most recently fired first), then the unfired ones
  // in arrival order from unfired_ (nullptr: none) to tail_.
  Node* head_ PSME_GUARDED_BY(lock_) = nullptr;
  Node* tail_ PSME_GUARDED_BY(lock_) = nullptr;
  Node* unfired_ PSME_GUARDED_BY(lock_) = nullptr;
  std::vector<Node*> buckets_ PSME_GUARDED_BY(lock_);
  size_t bucket_mask_ PSME_GUARDED_BY(lock_) = 0;
  size_t count_ PSME_GUARDED_BY(lock_) = 0;
  // Conjugate retracts that overtook their insert (threaded match only):
  // held here (singly linked via Node::next, always tiny and transient) so
  // the late insert cancels instead of installing a stale instantiation.
  Node* pending_head_ PSME_GUARDED_BY(lock_) = nullptr;
  size_t pending_count_ PSME_GUARDED_BY(lock_) = 0;
  uint64_t arrival_ PSME_GUARDED_BY(lock_) = 0;
  uint64_t inserts_ PSME_GUARDED_BY(lock_) = 0;
  uint64_t retracts_ PSME_GUARDED_BY(lock_) = 0;
  // LEX comparison scratch (timetag sort buffers), reused across calls.
  mutable std::vector<uint64_t> lex_a_ PSME_GUARDED_BY(lock_);
  mutable std::vector<uint64_t> lex_b_ PSME_GUARDED_BY(lock_);
  // Harvest scratch, reused across calls: one sort key per unfired
  // instantiation, copied out of its node once per harvest.
  struct HarvestKey {
    uint64_t stamp;          // the P-node's creation stamp
    uint32_t size;           // token arity
    const Wme* const* wmes;  // the token's wmes
    const Instantiation* inst;
  };
  mutable std::vector<HarvestKey> harvest_keys_ PSME_GUARDED_BY(lock_);
};

}  // namespace psme
