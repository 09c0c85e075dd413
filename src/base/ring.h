// Growable power-of-two ring buffer with retained capacity.
//
// The FIFO work queues of this system (the serial executor, the §5.2 update
// drain) used `std::deque`, which allocates and frees a block roughly every
// 64 activations of churn (~0.12 heap allocs/activation measured in
// bench_scheduler). A RingBuffer grows by doubling and never shrinks, so
// after warm-up every push/pop is a store and an index bump — the property
// the zero-allocation engine-cycle gate (tests/engine_alloc_test.cpp,
// DESIGN.md §10) requires of every queue on the steady-state path.
//
// T must be trivially copyable (elements are relocated with plain copies on
// growth); the queues hold Activation and small pairs of it, which are.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace psme {

template <typename T>
class RingBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "RingBuffer relocates elements with plain copies");

 public:
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] size_t size() const { return static_cast<size_t>(tail_ - head_); }
  [[nodiscard]] size_t capacity() const { return buf_.size(); }

  void push_back(const T& v) {
    if (size() == buf_.size()) grow();
    buf_[tail_++ & mask_] = v;
  }

  /// Precondition: !empty().
  T pop_front() {
    return buf_[head_++ & mask_];
  }

  [[nodiscard]] const T& front() const { return buf_[head_ & mask_]; }

  void clear() { head_ = tail_ = 0; }

  /// Pre-sizes the ring so pushes stay allocation-free until `n` elements
  /// are queued at once. Rounds up to the power-of-two growth schedule;
  /// never shrinks. Existing contents are preserved.
  void reserve(size_t n) {
    while (buf_.size() < n) grow();
  }

 private:
  void grow() {
    const size_t n = size();
    const size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (size_t i = 0; i < n; ++i) next[i] = buf_[(head_ + i) & mask_];
    buf_.swap(next);
    mask_ = cap - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<T> buf_;  // power-of-two length
  uint64_t mask_ = 0;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
};

}  // namespace psme
