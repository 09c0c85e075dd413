// Worker scheduling primitives for the parallel matcher.
//
//   run_workers  — the original fork-join helper: spawns `n` std::threads,
//                  joins them, rethrows the first worker exception. Still
//                  used by tests and one-shot drains; costs a thread spawn
//                  per worker per call.
//   WorkerPool   — persistent pool: threads are spawned once and parked on a
//                  condition variable between jobs, so a ParallelMatcher can
//                  run thousands of match cycles without touching
//                  pthread_create. The calling thread participates as
//                  worker 0, so a pool of size n holds n-1 threads.
//   ParkingLot   — epoch-based park/unpark used *inside* a match cycle: a
//                  worker that has run out of work (and out of spin budget)
//                  parks here; a worker that publishes new tasks bumps the
//                  epoch and wakes the sleepers. The ticket protocol makes
//                  the lost-wakeup race impossible: take a ticket, re-check
//                  for work, then park — a publish after the ticket always
//                  either is seen by the re-check or invalidates the ticket.
//
// Both sleeping locks here are psme::Mutex (par/mutex.h), so they carry
// clang thread-safety capabilities and lockdep ranks like every Spinlock.
// The ParkingLot mutex carries LockRank::Park (the top of the match-lock
// hierarchy, see par/lock_order.h): parking and unparking are legal no
// matter which match locks the thread still holds, and lockdep verifies no
// match lock is ever acquired the other way around while it is held. The
// WorkerPool dispatch mutex carries LockRank::Dispatch: it is touched only
// at cycle boundaries, with no match lock held.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "base/thread_annotations.h"
#include "par/lock_order.h"
#include "par/mutex.h"

namespace psme {

/// fn(worker_index) is called once per worker, concurrently. One-shot:
/// spawns and joins threads every call.
void run_workers(size_t n, const std::function<void(size_t)>& fn);

/// One spin-wait hint: tells the core a sibling hyperthread may run (x86
/// `pause`); elsewhere a compiler barrier so the loop is not optimized away.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Exponential backoff between failed whole-pool steal sweeps (the
/// scheduler's pre-park ladder, StealTuning): round i spins
/// `base_spins << i` pauses; once the doubled budget reaches `max_spins`
/// the worker yields its core instead of spinning harder. It never sleeps —
/// sleeping is the ParkingLot's job, which the caller reaches after its
/// park threshold.
inline void sweep_backoff(uint32_t round, uint32_t base_spins,
                          uint32_t max_spins) {
  const uint32_t shift = round < 16 ? round : 16;
  const uint64_t spins = static_cast<uint64_t>(base_spins == 0 ? 1 : base_spins)
                         << shift;
  if (spins >= max_spins) {
    std::this_thread::yield();
    return;
  }
  for (uint64_t i = 0; i < spins; ++i) cpu_pause();
}

/// Epoch-based parking. See file comment for the ticket protocol.
class ParkingLot {
 public:
  /// Step 1 of parking: take a ticket *before* the final look for work.
  [[nodiscard]] uint64_t ticket() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Step 2: blocks until the epoch moves past `ticket`. Returns
  /// immediately if it already has.
  void park(uint64_t ticket) {
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      MutexGuard lk(mu_);
      mu_.wait(cv_, [&] {
        return epoch_.load(std::memory_order_seq_cst) != ticket;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Publisher side: invalidates all outstanding tickets and wakes every
  /// sleeper. Cheap when nobody sleeps (one RMW + one load).
  void unpark_all() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      MutexGuard lk(mu_);
      cv_.notify_all();
    }
  }

  /// Publisher side for a single new task: invalidates all outstanding
  /// tickets but wakes only one sleeper. A woken worker that finds more
  /// than one task behind the publish wakes the next sleeper itself when
  /// it republishes, so the wake-up chain tracks the actual work supply
  /// instead of stampeding every sleeper on every publish.
  void unpark_one() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      MutexGuard lk(mu_);
      cv_.notify_one();
    }
  }

  [[nodiscard]] uint32_t sleeper_count() const {
    return sleepers_.load(std::memory_order_seq_cst);
  }

 private:
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> sleepers_{0};
  Mutex mu_{LockRank::Park, "park-mutex"};
  std::condition_variable_any cv_;
};

/// Persistent fork-join pool. run() dispatches fn(0..n-1) across the pool
/// (caller runs worker 0), blocks until all workers finish, and rethrows
/// the first worker exception. Not itself reentrant: one run() at a time.
class WorkerPool {
 public:
  explicit WorkerPool(size_t n_workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Primary dispatch: a raw function pointer plus context. Capturing
  /// lambdas over a couple of pointers overflow libstdc++'s 16-byte
  /// std::function SBO and heap-allocate per call; per-cycle callers
  /// (ParallelMatcher) pass a captureless trampoline over a stack-held job
  /// struct instead, keeping dispatch allocation-free.
  void run(void (*fn)(void* arg, size_t worker), void* arg);

  /// Convenience overload for setup/test call sites.
  void run(const std::function<void(size_t)>& fn);

  [[nodiscard]] size_t size() const { return n_; }

 private:
  void thread_main(size_t index);

  size_t n_;
  std::vector<std::thread> threads_;
  Mutex mu_{LockRank::Dispatch, "pool-dispatch"};
  std::condition_variable_any job_cv_;
  std::condition_variable_any done_cv_;
  // The job slot: written by run(), read by every worker, cleared when the
  // last worker reports done. All of it lives under the dispatch mutex.
  uint64_t epoch_ PSME_GUARDED_BY(mu_) = 0;
  void (*job_fn_)(void*, size_t) PSME_GUARDED_BY(mu_) = nullptr;
  void* job_arg_ PSME_GUARDED_BY(mu_) = nullptr;
  size_t active_ PSME_GUARDED_BY(mu_) = 0;
  bool stop_ PSME_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ PSME_GUARDED_BY(mu_);
};

}  // namespace psme
