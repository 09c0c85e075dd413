// Chase–Lev lock-free work-stealing deque (Chase & Lev, SPAA 2005; memory
// orderings after Lê/Pop/Cocchi/Zappa Nardelli, PPoPP 2013).
//
// This is the scheduler core that replaces the paper's lock-and-look task
// queues (§2.3, modeled in src/psim): the owning worker pushes and pops at
// the bottom with plain loads/stores, thieves take from the top with a
// single CAS, and an idle worker never acquires a lock to discover that a
// queue is empty — the §6 "failed pop" traffic that bends the paper's
// 13-process curve simply does not exist here.
//
// Properties relied on by the matcher:
//   * single owner: push()/pop() are called only by the owning worker (or
//     before the workers are dispatched, when there is no concurrency);
//   * steal() is safe from any thread, lock-free, and either returns a task
//     or nullptr (empty, or lost the CAS race to another thief/the owner);
//   * top_ is a monotone 64-bit counter, so the top CAS is ABA-free;
//   * the ring grows by doubling; retired rings are kept alive until the
//     deque is destroyed because a slow thief may still read a stale ring
//     pointer — its CAS on top_ then fails and the stale read is discarded,
//     which is what makes the stale ring access benign;
//   * slots are std::atomic<T*> so the owner's recycling store and a racing
//     thief's stale read are a data race in the hardware sense but not in
//     the C++ sense (the CAS validates which of the two values was taken).
//
// The deque deliberately carries no LockRank: there is no lock to rank.
// All orderings on top_/bottom_ are seq_cst rather than the minimal
// fence-based set from the literature — one uncontended seq_cst RMW per
// task is noise next to a node activation, and ThreadSanitizer reasons
// about seq_cst atomics precisely while it does not model standalone
// fences.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace psme {

template <typename T>
class WsDeque {
 public:
  /// `initial_capacity` is rounded up to a power of two. Tiny capacities are
  /// legal (the growth path is exercised by tests at capacity 2).
  explicit WsDeque(size_t initial_capacity = 64) {
    size_t cap = 2;
    while (cap < initial_capacity) cap <<= 1;
    rings_.push_back(std::make_unique<Ring>(cap));
    active_.store(rings_.back().get(), std::memory_order_relaxed);
  }
  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;

  /// Owner only. The deque stores the pointer and never owns `item`; the
  /// scheduler keeps what it pushes alive until the deque is drained.
  void push(T* item) {
    const int64_t b = bottom_.load(std::memory_order_relaxed);
    const int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = active_.load(std::memory_order_relaxed);
    if (b - t > static_cast<int64_t>(ring->mask)) {
      ring = grow(ring, t, b);
    }
    ring->put(b, item);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only; LIFO. Returns nullptr when the deque is empty.
  T* pop() {
    const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = active_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Already empty; restore bottom.
      bottom_.store(b + 1, std::memory_order_seq_cst);
      return nullptr;
    }
    T* item = ring->get(b);
    if (t == b) {
      // Last element: race the thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst)) {
        item = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
    return item;
  }

  /// Any thread; FIFO. Returns nullptr when empty or when the CAS race was
  /// lost (the caller treats both as "try elsewhere").
  T* steal() {
    int64_t t = top_.load(std::memory_order_seq_cst);
    const int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Ring* ring = active_.load(std::memory_order_acquire);
    T* item = ring->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return item;
  }

  /// Approximate (racy) — exact only at quiescence or from the owner.
  [[nodiscard]] bool empty() const {
    return top_.load(std::memory_order_seq_cst) >=
           bottom_.load(std::memory_order_seq_cst);
  }

  /// Approximate size; exact at quiescence.
  [[nodiscard]] size_t size() const {
    const int64_t d = bottom_.load(std::memory_order_seq_cst) -
                      top_.load(std::memory_order_seq_cst);
    return d > 0 ? static_cast<size_t>(d) : 0;
  }

  /// Current ring capacity (owner/tests).
  [[nodiscard]] size_t capacity() const {
    return active_.load(std::memory_order_relaxed)->mask + 1;
  }

  /// Number of rings ever allocated (tests: growth happened).
  [[nodiscard]] size_t ring_count() const { return rings_.size(); }

 private:
  struct Ring {
    explicit Ring(size_t cap) : mask(cap - 1), slots(cap) {}
    size_t mask;
    std::vector<std::atomic<T*>> slots;

    [[nodiscard]] T* get(int64_t i) const {
      return slots[static_cast<size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(int64_t i, T* v) {
      slots[static_cast<size_t>(i) & mask].store(v,
                                                 std::memory_order_relaxed);
    }
  };

  /// Owner only: doubles the ring, copying the live window [t, b). The old
  /// ring stays allocated (rings_) until destruction — see header comment.
  Ring* grow(Ring* old, int64_t t, int64_t b) {
    rings_.push_back(std::make_unique<Ring>((old->mask + 1) * 2));
    Ring* next = rings_.back().get();
    for (int64_t i = t; i < b; ++i) next->put(i, old->get(i));
    active_.store(next, std::memory_order_release);
    return next;
  }

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Ring*> active_{nullptr};
  std::vector<std::unique_ptr<Ring>> rings_;  // owner-only; active + retired
};

}  // namespace psme
