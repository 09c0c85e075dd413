// Arena-backed token storage: chunked bump allocation with per-worker pools
// and epoch-based reclamation.
//
// The match hot path creates one partial instantiation per successful join;
// the paper attributes most of match cost to creating, hashing and storing
// these PIs (§2, §6). Tokens of ≤ Token::kInlineCap wmes live entirely
// inside the Token value (no heap traffic at all); longer tokens spill their
// wme-pointer array into this arena. Allocation is a per-worker pointer
// bump — no locks, no atomics on the fast path — so the Steal scheduler's
// lock-free property is preserved.
//
// Lifecycle:
//   * Each worker owns a Pool (cache-line padded). alloc() bumps the pool's
//     current chunk; when a chunk fills, the worker *seals* it onto a global
//     lock-free list (one Treiber push per ~64 KiB of token traffic).
//   * Structures that outlive a match drain (memory-node lines, the conflict
//     set, Soar provenance) hold *pinned* copies: Token::pin() bumps the
//     owning chunk's pin count, unpin() drops it. Transient copies (queued
//     activations, seeds, scratch) do not pin — they are guaranteed dead by
//     the next quiescence point.
//   * Reclamation is epoch-based, pinned to match quiescence: begin_drain()
//     opens a new epoch, which every worker of the drain runs in;
//     reclaim_at_quiescence() (called after the drain's join/exit cascade —
//     the same lifecycle hook the ParkingLot exit cascade provides) frees
//     every sealed chunk whose pin count is zero and whose sealing epoch
//     precedes the current one. A chunk sealed *during* drain E is therefore
//     never freed before the end of drain E+1, which is what makes unpinned
//     transient copies safe without any per-copy bookkeeping.
//
// Invariants (see DESIGN.md §9):
//   I1  a spilled payload is immutable after construction;
//   I2  every stored (cross-drain) Token copy is pinned exactly once and
//       unpinned exactly once, by the structure that stores it;
//   I3  a chunk is freed only when sealed ∧ pins == 0 ∧ sealed_epoch <
//       the epoch of the last drain;
//   I4  begin_drain/reclaim_at_quiescence/ensure_workers are quiescent-only
//       (no worker is inside a drain when they run).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace psme {

/// Allocation/footprint counters for token memory, summed over the arena's
/// worker pools (plus chunk-lifecycle gauges) by TokenArena::stats().
/// ParallelStats carries a snapshot of them at the end of each cycle.
struct MatchStats {
  uint64_t spill_allocs = 0;     // payloads spilled to the arena
  uint64_t spill_bytes = 0;      // bytes of spilled payloads
  uint64_t chunks_allocated = 0; // chunk mallocs (lifetime)
  uint64_t chunks_freed = 0;     // chunks reclaimed by the epoch sweep
  uint64_t chunks_live = 0;      // allocated - freed (point in time)
  uint64_t sealed_pending = 0;   // sealed, awaiting pins/epoch (gauge)
  uint64_t epoch = 0;            // current reclamation epoch (gauge)

  /// this − base, counter fields only; gauges keep this snapshot's value
  /// (same semantics as obs::MetricsRegistry::delta). Benches use this for
  /// measured-window accounting instead of hand-subtracting field lists.
  [[nodiscard]] MatchStats delta(const MatchStats& base) const {
    MatchStats d = *this;
    d.spill_allocs -= base.spill_allocs;
    d.spill_bytes -= base.spill_bytes;
    d.chunks_allocated -= base.chunks_allocated;
    d.chunks_freed -= base.chunks_freed;
    return d;
  }
};

class TokenArena {
 public:
  /// Chunk header; payload bytes follow in the same allocation. `pins`
  /// counts stored (cross-drain) token copies referencing this chunk.
  struct Chunk {
    std::atomic<uint32_t> pins{0};
    uint64_t sealed_epoch = 0;
    Chunk* next = nullptr;  // sealed-list linkage (arena-owned)
    uint32_t capacity = 0;  // payload bytes
    uint32_t used = 0;      // payload bytes bumped (owner-only until sealed)

    [[nodiscard]] std::byte* payload() {
      return reinterpret_cast<std::byte*>(this + 1);
    }
  };

  static constexpr uint32_t kDefaultChunkBytes = 64 * 1024;

  explicit TokenArena(size_t n_workers = 1,
                      uint32_t chunk_bytes = kDefaultChunkBytes);
  ~TokenArena();
  TokenArena(const TokenArena&) = delete;
  TokenArena& operator=(const TokenArena&) = delete;

  /// Grows the pool set to at least `n` workers. Quiescent-only (I4);
  /// called by ParallelMatcher construction.
  void ensure_workers(size_t n);

  [[nodiscard]] size_t worker_count() const { return pools_.size(); }

  /// Bump-allocates `bytes` (8-byte aligned) from `worker`'s pool. Returns
  /// the payload pointer and the owning chunk through `chunk_out`. Only the
  /// owning worker may call this for a given pool, and only inside a drain
  /// (or while globally quiescent, e.g. the node_outputs_into replay).
  void* alloc(size_t worker, uint32_t bytes, Chunk** chunk_out);

  /// Opens a new epoch. Quiescent-only; the matcher calls it immediately
  /// before dispatching a drain's workers.
  void begin_drain();

  /// Frees every sealed chunk with pins == 0 sealed before the last drain's
  /// epoch. Quiescent-only: runs after the drain's join (ParkingLot exit
  /// cascade → WorkerPool::run return).
  void reclaim_at_quiescence();

  [[nodiscard]] MatchStats stats() const;
  [[nodiscard]] uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// Sealed chunks currently awaiting reclamation (tests/diagnostics).
  [[nodiscard]] size_t sealed_pending() const;

 private:
  /// Cache-line padded so one worker's bump pointer and counters never share
  /// a line with another's.
  struct alignas(64) Pool {
    Chunk* current = nullptr;
    uint64_t spill_allocs = 0;
    uint64_t spill_bytes = 0;
    uint64_t chunks_allocated = 0;
  };

  Chunk* new_chunk(size_t worker, uint32_t payload_bytes);
  void seal(Pool& p);

  uint32_t chunk_bytes_;
  std::vector<std::unique_ptr<Pool>> pools_;
  std::atomic<Chunk*> sealed_head_{nullptr};
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> chunks_freed_{0};
};

}  // namespace psme
