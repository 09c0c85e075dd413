// Recycled chunked storage for match-memory entry lists.
//
// The paper's dominant cost is the probe path: scanning the right-memory
// entries of a line and the wme list of an alpha memory (§6). Per-line
// `std::vector`s pay a heap round-trip every time a line's population crosses
// a capacity boundary, and thousands of mostly-small vectors scatter the
// probe path across the heap. A ChunkedList instead stores entries in
// fixed-size chunks drawn from a shared ChunkPool: entries within a chunk
// are contiguous (the probe scans cache lines, not pointer chains per
// entry), and a chunk released by one line is reused by the next — after
// warm-up the steady-state engine cycle performs no entry-storage heap
// allocation at all (enforced by tests/engine_alloc_test.cpp; see
// DESIGN.md §10).
//
// Concurrency: a ChunkedList is guarded by whatever lock guards the
// structure that owns it (a table line's Bucket lock, an alpha memory's
// AlphaMem lock). The ChunkPool's internal free-list lock carries
// LockRank::SlabPool — strictly above both — so acquiring/releasing a
// chunk while holding either lock respects the global hierarchy
// (par/lock_order.h). The pool lock protects only the free list; nothing
// that can emit or block is ever done under it.
//
// Erase order: erase() fills the hole with the list's *last* element
// (swap-with-last), so a ChunkedList is unordered storage. Every consumer
// (line right memories, alpha wme lists) either probes by predicate or
// feeds order-insensitive fingerprints, so this is safe — and it is what
// makes erase O(1) without per-entry links.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "par/spinlock.h"

namespace psme {

/// Shared recycler of fixed-capacity entry chunks. Owns every chunk it ever
/// allocated (the registry), so list teardown never frees — lists are plain
/// views into pool-owned storage and have trivial destruction order.
template <typename T, size_t N>
class ChunkPool {
 public:
  struct Chunk {
    T items[N];
    uint32_t count = 0;
    Chunk* next = nullptr;  // list linkage while in use; free-list when idle
  };

  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  Chunk* acquire() {
    {
      SpinGuard g(lock_);
      if (free_ != nullptr) {
        Chunk* c = free_;
        free_ = c->next;
        c->next = nullptr;
        c->count = 0;
        return c;
      }
    }
    // Cold path: allocate outside the lock, register under it.
    auto owned = std::make_unique<Chunk>();
    Chunk* c = owned.get();
    SpinGuard g(lock_);
    registry_.push_back(std::move(owned));
    ++chunk_allocs_;
    return c;
  }

  void release(Chunk* c) {
    SpinGuard g(lock_);
    c->count = 0;
    c->next = free_;
    free_ = c;
  }

  /// Lifetime chunk mallocs (diagnostics; flat once warm).
  [[nodiscard]] uint64_t chunk_allocs() const {
    SpinGuard g(lock_);
    return chunk_allocs_;
  }

  /// Rank of the free-list lock (the network verifier checks it against the
  /// lockdep table; Unranked when PSME_LOCKDEP is off).
  [[nodiscard]] LockRank lock_rank() const noexcept { return lock_.rank(); }

 private:
  mutable Spinlock lock_{LockRank::SlabPool, "chunk-pool"};
  Chunk* free_ PSME_GUARDED_BY(lock_) = nullptr;
  std::vector<std::unique_ptr<Chunk>> registry_ PSME_GUARDED_BY(lock_);
  uint64_t chunk_allocs_ PSME_GUARDED_BY(lock_) = 0;
};

/// Unordered entry list over pool chunks. Invariant: every chunk except the
/// tail is full; the tail holds the partial remainder. Mutators take the
/// pool explicitly so lists stay default-constructible (they live inside
/// per-line structs built by the thousands).
template <typename T, size_t N>
class ChunkedList {
 public:
  using Pool = ChunkPool<T, N>;
  using Chunk = typename Pool::Chunk;

  class const_iterator {
   public:
    const_iterator() = default;
    const_iterator(const Chunk* c, uint32_t i) : c_(c), i_(i) { settle(); }

    const T& operator*() const { return c_->items[i_]; }
    const T* operator->() const { return &c_->items[i_]; }
    const_iterator& operator++() {
      ++i_;
      settle();
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.c_ == b.c_ && a.i_ == b.i_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    friend class ChunkedList;
    void settle() {
      while (c_ != nullptr && i_ >= c_->count) {
        c_ = c_->next;
        i_ = 0;
      }
    }
    const Chunk* c_ = nullptr;
    uint32_t i_ = 0;
  };

  class iterator {
   public:
    iterator() = default;
    iterator(Chunk* c, uint32_t i) : c_(c), i_(i) { settle(); }

    T& operator*() const { return c_->items[i_]; }
    T* operator->() const { return &c_->items[i_]; }
    iterator& operator++() {
      ++i_;
      settle();
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.c_ == b.c_ && a.i_ == b.i_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return !(a == b);
    }

   private:
    friend class ChunkedList;
    void settle() {
      while (c_ != nullptr && i_ >= c_->count) {
        c_ = c_->next;
        i_ = 0;
      }
    }
    Chunk* c_ = nullptr;
    uint32_t i_ = 0;
  };

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] iterator begin() { return iterator(head_, 0); }
  [[nodiscard]] iterator end() { return iterator(nullptr, 0); }
  [[nodiscard]] const_iterator begin() const { return const_iterator(head_, 0); }
  [[nodiscard]] const_iterator end() const { return const_iterator(nullptr, 0); }

  void push_back(const T& v, Pool& pool) {
    if (tail_ == nullptr) {
      head_ = tail_ = pool.acquire();
    } else if (tail_->count == N) {
      Chunk* c = pool.acquire();
      tail_->next = c;
      tail_ = c;
    }
    tail_->items[tail_->count++] = v;
    ++size_;
  }

  /// Swap-with-last erase: `it` stays valid and now refers to the element
  /// that filled the hole (callers that continue iterating must re-examine
  /// it; all current callers stop after the erase).
  void erase(iterator it, Pool& pool) {
    Chunk* last = tail_;
    T& hole = it.c_->items[it.i_];
    T& back = last->items[last->count - 1];
    if (&hole != &back) hole = back;
    --last->count;
    --size_;
    if (last->count == 0 && last != head_) {
      // Find the predecessor of the (now empty) tail. Chains are short —
      // lists hold one chunk per N entries — and this runs only when a
      // chunk boundary is crossed downward.
      Chunk* prev = head_;
      while (prev->next != last) prev = prev->next;
      prev->next = nullptr;
      tail_ = prev;
      pool.release(last);
    }
    // Hysteresis: an emptied single-chunk list keeps its chunk, so a line
    // that toggles between 0 and a few entries every cycle never touches
    // the pool lock in steady state.
  }

  /// Returns every chunk to the pool (structure teardown / clear()).
  void clear(Pool& pool) {
    Chunk* c = head_;
    while (c != nullptr) {
      Chunk* next = c->next;
      pool.release(c);
      c = next;
    }
    head_ = tail_ = nullptr;
    size_ = 0;
  }

 private:
  Chunk* head_ = nullptr;
  Chunk* tail_ = nullptr;
  size_t size_ = 0;
};

}  // namespace psme
