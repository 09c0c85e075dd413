// Worker scheduling primitives for the parallel matcher.
//
//   WorkerPool   — persistent pool: threads are spawned once and sleep on
//                  an atomic cycle word between jobs, so a ParallelMatcher
//                  can run thousands of match cycles without touching
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
// Every sleep here is a C++20 atomic wait on its own std::atomic<uint32_t>
// word, with no lock. The width matters: libstdc++ sleeps natively (a
// futex) only on 4-byte words and routes wider ones through a shared proxy
// whose notify_one wakes every waiter. Since no sleep takes a lock, parking
// and unparking are legal whatever match locks the thread holds, and the
// lock hierarchy (par/lock_order.h) covers the match locks only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace psme {

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
/// scheduler's pre-park ladder): round i spins `kBackoffBaseSpins << i`
/// pauses, and after `kBackoffParkRounds` rounds the worker parks. It never
/// sleeps — sleeping is the ParkingLot's job.
inline constexpr uint32_t kBackoffBaseSpins = 4;
inline constexpr uint32_t kBackoffParkRounds = 2;
inline void sweep_backoff(uint32_t round) {
  const uint32_t spins = kBackoffBaseSpins << round;
  for (uint32_t i = 0; i < spins; ++i) cpu_pause();
}

/// Epoch-based parking. See file comment for the ticket protocol. The
/// epoch wraps after 2^32 publishes; a park would only miss its wake if
/// exactly that many landed between its ticket and its sleep.
class ParkingLot {
 public:
  /// Step 1 of parking: take a ticket *before* the final look for work.
  [[nodiscard]] uint32_t ticket() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Step 2: blocks until the epoch moves past `ticket`. Returns
  /// immediately if it already has.
  void park(uint32_t ticket) { epoch_.wait(ticket, std::memory_order_seq_cst); }

  /// Publisher side: invalidates all outstanding tickets and wakes every
  /// sleeper. Cheap when nobody sleeps: the notify is one seq_cst load.
  void unpark_all() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
  }

  /// Publisher side for a single new task: invalidates all outstanding
  /// tickets but wakes only one sleeper. A woken worker that finds more
  /// than one task behind the publish wakes the next sleeper itself when
  /// it republishes, so the wake-up chain tracks the actual work supply
  /// instead of stampeding every sleeper on every publish.
  void unpark_one() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_one();
  }

 private:
  std::atomic<uint32_t> epoch_{0};
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

  /// The dispatch: a raw function pointer plus context. Capturing lambdas
  /// over a couple of pointers overflow libstdc++'s 16-byte std::function
  /// SBO and heap-allocate per call; per-cycle callers (ParallelMatcher)
  /// pass a captureless trampoline over a stack-held job struct instead,
  /// keeping dispatch allocation-free.
  void run(void (*fn)(void* arg, size_t worker), void* arg);

  [[nodiscard]] size_t size() const { return n_; }

 private:
  void thread_main(size_t index);

  size_t n_;
  std::vector<std::thread> threads_;
  // The job slot. run() (and the destructor, for stop_) writes it before
  // the release bump of cycle_; a helper reads it after its acquire wait on
  // cycle_ returns, and run() writes it again only after every helper's
  // release decrement of active_ has brought the count to zero.
  void (*job_fn_)(void*, size_t) = nullptr;
  void* job_arg_ = nullptr;
  bool stop_ = false;
  std::exception_ptr error_;  // written only by the helper that set failed_
  std::atomic<uint32_t> cycle_{0};   // helpers sleep on it between jobs
  std::atomic<uint32_t> active_{0};  // helpers still in the job; run() waits
  std::atomic<bool> failed_{false};  // a helper claimed error_ this job
};

}  // namespace psme
