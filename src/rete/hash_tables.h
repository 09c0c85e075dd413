// The two global hash tables that hold all two-input-node memory state.
//
// Following PSM-E (§6.1 of the paper):
//   * one table holds every *left* memory entry (partial-instantiation tokens
//     waiting at a two-input node's left input, plus the not/NCC counters),
//   * the second table holds every *right* memory entry (wmes specialized to
//     a two-input node's right input),
//   * the hash function covers (1) the variable bindings tested for equality
//     at the destination two-input node and (2) that node's unique id,
//   * a *line* is the pair of corresponding left/right buckets; one lock
//     guards a line.
//
// Because a left token and a right wme that can pass the node's equality
// tests hash identically, insert-then-probe under the single line lock is
// atomic: concurrent left/right arrivals serialize on the line and cannot
// miss each other. This is the property the paper's locking design exists to
// provide, and it is why the parallel matcher needs no other match-state
// locks.
//
// Conjugate token pairs: a not/NCC node can emit an insertion and the
// matching deletion of the same token within one cycle (the pair is created
// in order under that node's line lock, but the two downstream tasks race).
// When the deletion overtakes its insertion at a downstream memory, the
// deletion finds nothing to erase; dropping it would let the late insertion
// install a token that should no longer exist. Instead the deletion leaves
// an *anti-entry* (`anti > 0`) and emits nothing; the conjugate insertion
// cancels against it and also emits nothing (net effect zero, equal to the
// in-order execution). Anti-entries are invisible to probes and exist only
// while a cycle is in flight — at quiescence every conjugate has met its
// partner and no anti-entry remains. Line::insert_left and Line::delete_left
// are the one home of these rules for every one-token entry (Join, Not,
// BJoin); an NCC entry keeps its pending anti count on the composite entry.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/chunk_list.h"
#include "base/thread_annotations.h"
#include "par/spinlock.h"
#include "rete/token.h"

namespace psme {

struct LeftEntry {
  uint64_t full_hash = 0;   // binding hash incl. node id (pre-modulo)
  uint32_t node_id = 0;     // destination two-input node
  int32_t neg_count = 0;    // Not: matching right wmes; Ncc: subnetwork matches
  bool ncc_present = false; // Ncc: left token has arrived and not been deleted
  bool ncc_emitted = false; // Ncc: an add has been sent downstream
  uint8_t tag = 0;          // BJoin: 1 = left-side token, 2 = right-side token
  Token token;
  int32_t anti = 0;  // pending conjugate deletions that overtook their insert
};

struct RightEntry {
  uint64_t full_hash = 0;
  uint32_t node_id = 0;
  const Wme* wme = nullptr;
};

/// Right entries live in recycled chunks (base/chunk_list.h) instead of one
/// heap vector per line: the right-probe scan walks contiguous chunk
/// payloads, and a line whose population shrinks hands its chunks to lines
/// that grow — zero steady-state heap traffic on the paper's dominant path.
constexpr size_t kRightEntriesPerChunk = 8;
using RightEntryList = ChunkedList<RightEntry, kRightEntriesPerChunk>;
using RightEntryPool = ChunkPool<RightEntry, kRightEntriesPerChunk>;

class PairedHashTables {
 public:
  struct Line {
    Spinlock lock{LockRank::Bucket, "rete-line"};
    std::vector<LeftEntry> left PSME_GUARDED_BY(lock);
    RightEntryList right PSME_GUARDED_BY(lock);

    // All left-entry insertion/erasure goes through these two so the
    // pin/unpin bookkeeping cannot be forgotten at a call site: a left entry
    // outlives the drain that created it, so its token must keep the
    // backing arena chunk alive (Token copies don't re-pin, so vector
    // reallocation and erase-shifting stay balanced).
    void store_left(LeftEntry&& e) PSME_REQUIRES(lock) {
      e.token.pin();
      left.push_back(std::move(e));
    }
    void erase_left(std::vector<LeftEntry>::iterator it) PSME_REQUIRES(lock) {
      it->token.unpin();
      left.erase(it);
    }

    // The conjugate-pair rules for an entry holding one token (tag 0 for
    // Join and Not, 1/2 for a BJoin's left/right side). Neither search
    // counts as a probe.

    /// Insert half: cancels against a matching anti-entry, erasing it and
    /// returning nullptr, or else stores a live entry and returns it (valid
    /// until the line's next store).
    LeftEntry* insert_left(uint64_t hash, uint32_t node, uint8_t tag,
                           const Token& token) PSME_REQUIRES(lock) {
      const auto it = find_left(hash, node, tag, token, /*anti=*/true);
      if (it != left.end()) {
        erase_left(it);
        return nullptr;
      }
      store_left(LeftEntry{hash, node, 0, false, false, tag, token});
      return &left.back();
    }

    /// Delete half: erases the matching live entry and returns its
    /// neg_count, or else leaves an anti-entry for the overtaken insert to
    /// cancel against and returns nullopt.
    std::optional<int32_t> delete_left(uint64_t hash, uint32_t node,
                                       uint8_t tag, const Token& token)
        PSME_REQUIRES(lock) {
      const auto it = find_left(hash, node, tag, token, /*anti=*/false);
      if (it == left.end()) {
        store_left(LeftEntry{hash, node, 0, false, false, tag, token,
                             /*anti=*/1});
        return std::nullopt;
      }
      const int32_t neg_count = it->neg_count;
      erase_left(it);
      return neg_count;
    }

    // Right entries: one per (node, wme), stored by a right add or a relink
    // and erased by a right delete or an unlink.
    void store_right(const RightEntry& e, RightEntryPool& pool)
        PSME_REQUIRES(lock) {
      right.push_back(e, pool);
    }
    /// Returns whether (node, wme) had an entry to erase.
    bool erase_right(uint32_t node, const Wme* w, RightEntryPool& pool)
        PSME_REQUIRES(lock) {
      for (auto it = right.begin(); it != right.end(); ++it) {
        if (it->node_id == node && it->wme == w) {
          right.erase(it, pool);
          return true;
        }
      }
      return false;
    }

   private:
    // A plain loop: lines are short, and std::find_if's unrolled form kept
    // the two callers from being inlined into the exec_* paths.
    std::vector<LeftEntry>::iterator find_left(uint64_t hash, uint32_t node,
                                               uint8_t tag, const Token& token,
                                               bool anti) PSME_REQUIRES(lock) {
      auto it = left.begin();
      for (; it != left.end(); ++it) {
        if (it->node_id == node && it->tag == tag && (it->anti > 0) == anti &&
            it->full_hash == hash && it->token == token) {
          break;
        }
      }
      return it;
    }
  };

  /// `line_count` is rounded up to a power of two.
  explicit PairedHashTables(size_t line_count = 4096);

  [[nodiscard]] size_t line_count() const { return lines_.size(); }

  [[nodiscard]] size_t line_index(uint64_t hash) const {
    return (hash ^ (hash >> 21)) & mask_;
  }

  Line& line_at(size_t index) { return lines_[index]; }
  [[nodiscard]] const Line& line_at(size_t index) const {
    return lines_[index];
  }
  Line& line_for(uint64_t hash) { return lines_[line_index(hash)]; }

  /// Shared chunk recycler for every line's right-entry list. Callers pass
  /// it to RightEntryList mutators while holding the line's Bucket lock;
  /// the pool's own lock ranks SlabPool, strictly above Bucket.
  [[nodiscard]] RightEntryPool& right_pool() { return right_pool_; }
  [[nodiscard]] const RightEntryPool& right_pool() const {
    return right_pool_;
  }

  /// Total entries (diagnostics / tests). Quiescent-only.
  [[nodiscard]] size_t total_left_entries() const
      PSME_NO_THREAD_SAFETY_ANALYSIS;
  [[nodiscard]] size_t total_right_entries() const
      PSME_NO_THREAD_SAFETY_ANALYSIS;

  /// Enumerates left entries belonging to `node_id`. Not synchronized with
  /// concurrent match; callers use it only between cycles (the §5.2 update
  /// runs when match is quiescent).
  template <typename Fn>
  void for_each_left_of(uint32_t node_id,
                        Fn&& fn) const PSME_NO_THREAD_SAFETY_ANALYSIS {
    for (const auto& ln : lines_)
      for (const auto& e : ln.left)
        if (e.node_id == node_id) fn(e);
  }

  /// Enumerates the right entries of `node_id` stored under `full_hash`: the
  /// only ones a left entry with that hash can join, all in the one line
  /// the hash selects (the §5.2 share-point replay). Quiescent-only, like
  /// for_each_left_of.
  template <typename Fn>
  void for_each_right_at(uint32_t node_id, uint64_t full_hash,
                         Fn&& fn) const PSME_NO_THREAD_SAFETY_ANALYSIS {
    for (const auto& e : lines_[line_index(full_hash)].right)
      if (e.node_id == node_id && e.full_hash == full_hash) fn(e);
  }

  /// Enumerates every left entry (the verifier's link-state check counts
  /// each join's live entries in one pass). Quiescent-only.
  template <typename Fn>
  void for_each_left(Fn&& fn) const PSME_NO_THREAD_SAFETY_ANALYSIS {
    for (const auto& ln : lines_)
      for (const auto& e : ln.left) fn(e);
  }

  /// Enumerates every entry's destination node id (the network verifier's
  /// stale-entry sweep); `left` says which table the entry lives in.
  /// Quiescent-only, like the per-node enumerators.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const PSME_NO_THREAD_SAFETY_ANALYSIS {
    for (const auto& ln : lines_) {
      for (const auto& e : ln.left) fn(e.node_id, /*left=*/true);
      for (const auto& e : ln.right) fn(e.node_id, /*left=*/false);
    }
  }

  /// Production removal's memory drain: erases every entry, left and right,
  /// whose destination node is marked in `dead` (indexed by node id).
  /// Left erasure goes through erase_left so the token unpins — that unpin
  /// is what lets the next epoch boundary reclaim the removed production's
  /// partial instantiations. Quiescent-only, like the enumerators (the
  /// engine calls it between the unsplice publish and free_node).
  struct PurgeCounts {
    size_t left = 0;
    size_t right = 0;
  };
  PurgeCounts purge_nodes(const std::vector<uint8_t>& dead)
      PSME_NO_THREAD_SAFETY_ANALYSIS;

 private:
  std::vector<Line> lines_;
  RightEntryPool right_pool_;
  size_t mask_ = 0;
};

}  // namespace psme
