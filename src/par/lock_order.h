// Lockdep-style runtime lock-order checker for the parallel matcher.
//
// Every Spinlock in the system carries a rank from the global lock hierarchy
// (DESIGN.md §"Concurrency invariants"):
//
//   Bucket (1)       paired-table line locks and alpha-memory locks. A
//                    thread never holds two of them, which is what makes
//                    insert-then-probe under one line lock atomic.
//   SlabPool (2)     chunk-pool free-list locks (base/chunk_list.h). A line
//                    or alpha-memory mutation holding its Bucket lock may
//                    acquire/release a storage chunk; the pool lock nests
//                    strictly inside and protects nothing that emits.
//   ConflictSet (3)  the CS lock. P-node activations take it with nothing
//                    else held; ranking it after the match locks keeps that
//                    one-way.
//
// The rule is strict: a thread may only acquire a lock whose rank is
// GREATER than the rank of every ranked lock it already holds. Equal ranks
// are a violation too — that is how "at most one bucket lock at a time" is
// enforced. Acquiring a lock already held by the same thread is reported as
// a self-deadlock. Unranked locks are exempt from the rank comparison but
// still participate in self-deadlock detection.
//
// Cost model: the checker core below is always compiled (so tests can drive
// it in any configuration), but the hooks inside Spinlock::lock()/unlock()
// exist only when PSME_LOCKDEP is 1 — by default that is debug builds
// (!NDEBUG); release builds compile the hooks away entirely. Configure with
// -DPSME_LOCKDEP=ON (the tsan preset does) to force the hooks on in any
// build type.
//
// On a violation the checker writes the acquiring thread's full held-lock
// chain plus the offending acquisition to stderr and aborts; tests install a
// failure handler instead (set_failure_handler) to capture the Violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef PSME_LOCKDEP
#ifdef NDEBUG
#define PSME_LOCKDEP 0
#else
#define PSME_LOCKDEP 1
#endif
#endif

namespace psme {

enum class LockRank : uint8_t {
  Unranked = 0,     // no ordering constraint; self-deadlock checked only
  Bucket = 1,       // hash-table line locks + alpha-memory locks
  SlabPool = 2,     // chunk-pool free-list locks (base/chunk_list.h); above
                    // Bucket because a line/alpha mutation under its Bucket
                    // lock may acquire/release a storage chunk
  ConflictSet = 3,  // the conflict-set lock
  Park = 4,         // the ParkingLot mutex (worker_pool.h); last among the
                    // match-cycle locks, so a worker may park or unpark
                    // others no matter what match-state lock it still holds
  Dispatch = 5,     // the WorkerPool dispatch mutex (worker_pool.h); taken
                    // only at cycle boundaries with no match lock held, so
                    // it sits above the entire match hierarchy
};

namespace lockdep {

[[nodiscard]] const char* rank_name(LockRank r) noexcept;

struct LockInfo {
  const void* addr = nullptr;
  LockRank rank = LockRank::Unranked;
  const char* name = nullptr;  // may be null; rank_name(rank) then
};

struct Violation {
  enum class Kind { SelfDeadlock, RankInversion, UnheldRelease, Overflow };
  Kind kind;
  LockInfo attempted;
  std::vector<LockInfo> held;  // acquisition order, oldest first
};

[[nodiscard]] const char* kind_name(Violation::Kind k) noexcept;

/// Called immediately before a lock is acquired. Reports (and by default
/// aborts) on self-deadlock, rank inversion, or held-stack overflow; then
/// records the lock in the calling thread's held set.
void on_acquire(const void* lock, LockRank rank, const char* name);

/// Called when a lock is released. Out-of-order release is legal; releasing
/// a lock the thread does not hold is reported.
void on_release(const void* lock);

/// Number of locks the calling thread currently holds (tests/diagnostics).
[[nodiscard]] size_t held_count() noexcept;

/// Installed handler is called instead of the print-and-abort default.
/// Returns the previous handler (nullptr = default). Handlers are global;
/// intended for single-threaded unit tests.
using FailureHandler = void (*)(const Violation&);
FailureHandler set_failure_handler(FailureHandler h) noexcept;

/// Formats a violation report (same text the abort path prints).
[[nodiscard]] std::string format_report(const Violation& v);

}  // namespace lockdep
}  // namespace psme
