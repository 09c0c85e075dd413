#include "base/arena.h"

#include <cassert>
#include <cstdlib>
#include <new>

namespace psme {

TokenArena::TokenArena(size_t n_workers, uint32_t chunk_bytes)
    : chunk_bytes_(chunk_bytes < 256 ? 256 : chunk_bytes) {
  ensure_workers(n_workers == 0 ? 1 : n_workers);
}

TokenArena::~TokenArena() {
  // Quiescent by contract: no worker can be allocating or holding live
  // tokens once the Network that owns us is being destroyed.
  for (auto& p : pools_) {
    std::free(p->current);
    p->current = nullptr;
  }
  Chunk* c = sealed_head_.exchange(nullptr, std::memory_order_acquire);
  while (c != nullptr) {
    Chunk* next = c->next;
    std::free(c);
    c = next;
  }
}

void TokenArena::ensure_workers(size_t n) {
  while (pools_.size() < n) {
    pools_.push_back(std::make_unique<Pool>());
  }
}

TokenArena::Chunk* TokenArena::new_chunk(size_t worker,
                                         uint32_t payload_bytes) {
  void* mem = std::malloc(sizeof(Chunk) + payload_bytes);
  if (mem == nullptr) throw std::bad_alloc();
  Chunk* c = new (mem) Chunk();
  c->capacity = payload_bytes;
  ++pools_[worker]->chunks_allocated;
  return c;
}

void TokenArena::seal(Pool& p) {
  Chunk* c = p.current;
  p.current = nullptr;
  if (c == nullptr) return;
  // Stamp with the *current* epoch, then Treiber-push onto the sealed list.
  // Reclamation frees the chunk only after a later drain has run in a
  // strictly greater epoch, so unpinned transient copies made during this
  // drain (and seed copies carried into the next one) stay valid through at
  // least one full drain after sealing.
  c->sealed_epoch = epoch_.load(std::memory_order_relaxed);
  Chunk* head = sealed_head_.load(std::memory_order_relaxed);
  do {
    c->next = head;
  } while (!sealed_head_.compare_exchange_weak(
      head, c, std::memory_order_release, std::memory_order_relaxed));
}

void* TokenArena::alloc(size_t worker, uint32_t bytes, Chunk** chunk_out) {
  assert(worker < pools_.size());
  Pool& p = *pools_[worker];
  const uint32_t need = (bytes + 7u) & ~7u;
  Chunk* c = p.current;
  if (c == nullptr || c->capacity - c->used < need) {
    seal(p);
    const uint32_t cap = need > chunk_bytes_ ? need : chunk_bytes_;
    c = new_chunk(worker, cap);
    p.current = c;
  }
  void* out = c->payload() + c->used;
  c->used += need;
  ++p.spill_allocs;
  p.spill_bytes += bytes;
  *chunk_out = c;
  return out;
}

void TokenArena::begin_drain() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void TokenArena::reclaim_at_quiescence() {
  const uint64_t drain_epoch = epoch_.load(std::memory_order_relaxed);

  // Single-threaded sweep (all workers parked): detach the whole sealed
  // list, free what is reclaimable, push back the rest. Pins are re-checked
  // here, at quiescence — a chunk that was pin-free mid-drain but got
  // pinned by a late conflict-set insert is simply kept.
  Chunk* c = sealed_head_.exchange(nullptr, std::memory_order_acquire);
  Chunk* keep = nullptr;
  uint64_t freed = 0;
  while (c != nullptr) {
    Chunk* next = c->next;
    if (c->sealed_epoch < drain_epoch &&
        c->pins.load(std::memory_order_acquire) == 0) {
      std::free(c);
      ++freed;
    } else {
      c->next = keep;
      keep = c;
    }
    c = next;
  }
  if (freed != 0) chunks_freed_.fetch_add(freed, std::memory_order_relaxed);
  // Reattach survivors (other threads are parked, but stay CAS-correct).
  while (keep != nullptr) {
    Chunk* next = keep->next;
    Chunk* head = sealed_head_.load(std::memory_order_relaxed);
    do {
      keep->next = head;
    } while (!sealed_head_.compare_exchange_weak(
        head, keep, std::memory_order_release, std::memory_order_relaxed));
    keep = next;
  }
}

MatchStats TokenArena::stats() const {
  MatchStats s;
  for (const auto& p : pools_) {
    s.spill_allocs += p->spill_allocs;
    s.spill_bytes += p->spill_bytes;
    s.chunks_allocated += p->chunks_allocated;
  }
  s.chunks_freed = chunks_freed_.load(std::memory_order_relaxed);
  s.chunks_live = s.chunks_allocated - s.chunks_freed;
  s.sealed_pending = sealed_pending();
  s.epoch = epoch_.load(std::memory_order_relaxed);
  return s;
}

size_t TokenArena::sealed_pending() const {
  size_t n = 0;
  for (Chunk* c = sealed_head_.load(std::memory_order_acquire); c != nullptr;
       c = c->next) {
    ++n;
  }
  return n;
}

}  // namespace psme
