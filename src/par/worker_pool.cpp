#include "par/worker_pool.h"

namespace psme {

WorkerPool::WorkerPool(size_t n_workers) : n_(n_workers == 0 ? 1 : n_workers) {
  threads_.reserve(n_ - 1);
  for (size_t i = 1; i < n_; ++i) {
    threads_.emplace_back([this, i] { thread_main(i); });
  }
}

WorkerPool::~WorkerPool() {
  stop_ = true;
  cycle_.fetch_add(1, std::memory_order_release);
  cycle_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::thread_main(size_t index) {
  uint32_t seen = 0;
  for (;;) {
    cycle_.wait(seen, std::memory_order_acquire);
    // One bump per job: run() cannot publish the next one until this
    // helper has left the current one, so the word is stable here.
    seen = cycle_.load(std::memory_order_acquire);
    if (stop_) return;
    try {
      job_fn_(job_arg_, index);
    } catch (...) {
      if (!failed_.exchange(true)) {
        error_ = std::current_exception();
      }
    }
    if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      active_.notify_one();
    }
  }
}

void WorkerPool::run(void (*fn)(void* arg, size_t worker), void* arg) {
  if (n_ == 1) {
    fn(arg, 0);
    return;
  }
  job_fn_ = fn;
  job_arg_ = arg;
  active_.store(static_cast<uint32_t>(n_ - 1), std::memory_order_relaxed);
  cycle_.fetch_add(1, std::memory_order_release);
  cycle_.notify_all();
  // The caller is worker 0; its exception still waits for the others so the
  // pool is reusable afterwards.
  std::exception_ptr own_error;
  try {
    fn(arg, 0);
  } catch (...) {
    own_error = std::current_exception();
  }
  for (uint32_t left; (left = active_.load(std::memory_order_acquire)) != 0;) {
    active_.wait(left, std::memory_order_acquire);
  }
  std::exception_ptr err = own_error ? own_error : error_;
  error_ = nullptr;
  failed_.store(false);
  if (err) std::rethrow_exception(err);
}

}  // namespace psme
