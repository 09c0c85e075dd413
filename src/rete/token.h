// Tokens: partial instantiations (PIs).
//
// Following the paper, a token is simply "a list of wmes, matching CEs".
// We keep tokens *flat* (an array of wme pointers) rather than parent-linked:
// flat PIs can be compared for equality structurally, which is what delete-
// flag tokens need when they re-traverse the network and remove state from
// memory nodes. Flat tokens also cross thread boundaries without shared
// ownership headaches; wmes themselves are owned by working memory and are
// never freed in the middle of a match cycle.
//
// Representation: `Token` is a trivially copyable value. Up to kInlineCap
// wme pointers live inside the token itself — most productions have ≤4 CEs,
// so the common case touches no allocator at all. Longer tokens *spill*: the
// pointer array is written once into a TokenArena chunk (per-worker bump
// allocation, see base/arena.h) and the token carries {payload, chunk}.
// Spilled payloads are immutable; extending a token always builds a new one.
//
// Ownership: tokens queued through the scheduler, used as seeds, or held in
// scratch are *transient* — they need no bookkeeping because arena chunks
// survive at least one full drain past the one that sealed them (epoch
// deferral). Structures that keep a token *across* drains (memory-node
// entries, the conflict set, Soar provenance) pin()/unpin() it, which
// ref-counts the underlying chunk. See DESIGN.md §9.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "base/arena.h"
#include "rete/wme.h"

namespace psme {

class Token {
 public:
  static constexpr uint32_t kInlineCap = 4;

  Token() noexcept : size_(0) { u_.spill = {nullptr, nullptr}; }
  explicit Token(const Wme* w) noexcept : size_(1) { u_.inl[0] = w; }

  [[nodiscard]] uint32_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool spilled() const noexcept { return size_ > kInlineCap; }

  [[nodiscard]] const Wme* const* begin() const noexcept { return data(); }
  [[nodiscard]] const Wme* const* end() const noexcept {
    return data() + size_;
  }
  [[nodiscard]] const Wme* operator[](size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] const Wme* front() const noexcept { return data()[0]; }
  [[nodiscard]] const Wme* back() const noexcept { return data()[size_ - 1]; }

  /// Marks this copy as stored across drains: the owning arena chunk cannot
  /// be reclaimed while pinned. Inline tokens pin nothing. const because it
  /// mutates shared chunk state, not the token value.
  void pin() const noexcept {
    if (spilled()) {
      u_.spill.chunk->pins.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// Releases a pin(). Release order: the unpinner's last reads of the
  /// payload must be visible before the reclaimer (acquire) frees the chunk.
  void unpin() const noexcept {
    if (spilled()) {
      u_.spill.chunk->pins.fetch_sub(1, std::memory_order_release);
    }
  }

  friend bool operator==(const Token& a, const Token& b) noexcept {
    if (a.size_ != b.size_) return false;
    const Wme* const* pa = a.data();
    const Wme* const* pb = b.data();
    for (uint32_t i = 0; i < a.size_; ++i) {
      if (pa[i] != pb[i]) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] const Wme* const* data() const noexcept {
    return size_ <= kInlineCap ? u_.inl : u_.spill.data;
  }

  struct Spill {
    const Wme* const* data;
    TokenArena::Chunk* chunk;
  };
  union U {
    const Wme* inl[kInlineCap];
    Spill spill;
  } u_;
  uint32_t size_;

  friend Token token_make(const Wme* const*, uint32_t, const Wme* const*,
                          uint32_t, TokenArena&, size_t);
};

static_assert(std::is_trivially_copyable_v<Token>,
              "Activations must stay trivially movable handles");

/// Builds a token from the concatenation of two wme-pointer spans, spilling
/// to `arena` (worker `w`'s pool) when the result exceeds kInlineCap.
[[nodiscard]] inline Token token_make(const Wme* const* a, uint32_t na,
                                      const Wme* const* b, uint32_t nb,
                                      TokenArena& arena, size_t w) {
  Token t;
  t.size_ = na + nb;
  if (t.size_ <= Token::kInlineCap) {
    for (uint32_t i = 0; i < na; ++i) t.u_.inl[i] = a[i];
    for (uint32_t i = 0; i < nb; ++i) t.u_.inl[na + i] = b[i];
    return t;
  }
  TokenArena::Chunk* chunk = nullptr;
  auto** p = static_cast<const Wme**>(
      arena.alloc(w, t.size_ * static_cast<uint32_t>(sizeof(const Wme*)),
                  &chunk));
  if (na != 0) std::memcpy(p, a, na * sizeof(const Wme*));
  if (nb != 0) std::memcpy(p + na, b, nb * sizeof(const Wme*));
  t.u_.spill = {p, chunk};
  return t;
}

[[nodiscard]] inline Token token_extend(const Token& t, const Wme* w,
                                        TokenArena& arena, size_t worker) {
  return token_make(t.begin(), t.size(), &w, 1, arena, worker);
}

/// Child of a BJoin: left ++ right[prefix_len:].
[[nodiscard]] inline Token token_concat(const Token& l, const Token& r,
                                        uint32_t prefix_len, TokenArena& arena,
                                        size_t worker) {
  return token_make(l.begin(), l.size(), r.begin() + prefix_len,
                    r.size() - prefix_len, arena, worker);
}

[[nodiscard]] inline Token token_prefix(const Token& t, uint32_t len,
                                        TokenArena& arena, size_t worker) {
  return token_make(t.begin(), len, nullptr, 0, arena, worker);
}

/// Identity hash of a PI (combines the wme timetags). Used for NCC prefix
/// keying and conflict-set indexing — NOT for join-memory placement, which
/// hashes the *bindings* tested at the destination node instead (see
/// JoinNode::hash_left/hash_right).
[[nodiscard]] inline size_t token_identity_hash(const Token& t) {
  size_t h = 0x9e3779b97f4a7c15ull;
  for (const Wme* w : t) {
    h ^= static_cast<size_t>(w->timetag) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

[[nodiscard]] std::string token_to_string(const Token& t,
                                          const SymbolTable& syms,
                                          const ClassSchemas& schemas);

}  // namespace psme
