#include "par/worker_pool.h"

namespace psme {

WorkerPool::WorkerPool(size_t n_workers) : n_(n_workers == 0 ? 1 : n_workers) {
  threads_.reserve(n_ - 1);
  for (size_t i = 1; i < n_; ++i) {
    threads_.emplace_back([this, i] { thread_main(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexGuard lk(mu_);
    stop_ = true;
    job_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

void WorkerPool::thread_main(size_t index) {
  uint64_t seen = 0;
  for (;;) {
    void (*fn)(void*, size_t) = nullptr;
    void* arg = nullptr;
    {
      MutexGuard lk(mu_);
      mu_.wait(job_cv_, [&]() PSME_NO_THREAD_SAFETY_ANALYSIS {
        return stop_ || epoch_ != seen;
      });
      if (stop_) return;
      seen = epoch_;
      fn = job_fn_;
      arg = job_arg_;
    }
    try {
      fn(arg, index);
    } catch (...) {
      MutexGuard lk(mu_);
      if (!error_) error_ = std::current_exception();
    }
    {
      MutexGuard lk(mu_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkerPool::run(void (*fn)(void* arg, size_t worker), void* arg) {
  if (n_ == 1) {
    fn(arg, 0);
    return;
  }
  {
    MutexGuard lk(mu_);
    job_fn_ = fn;
    job_arg_ = arg;
    active_ = n_ - 1;
    ++epoch_;
    job_cv_.notify_all();
  }
  // The caller is worker 0; its exception still waits for the others so the
  // pool is reusable afterwards.
  std::exception_ptr own_error;
  try {
    fn(arg, 0);
  } catch (...) {
    own_error = std::current_exception();
  }
  std::exception_ptr err;
  {
    MutexGuard lk(mu_);
    mu_.wait(done_cv_,
             [&]() PSME_NO_THREAD_SAFETY_ANALYSIS { return active_ == 0; });
    err = own_error ? own_error : error_;
    error_ = nullptr;
    job_fn_ = nullptr;
    job_arg_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::run(const std::function<void(size_t)>& fn) {
  run(
      [](void* arg, size_t worker) {
        (*static_cast<const std::function<void(size_t)>*>(arg))(worker);
      },
      const_cast<std::function<void(size_t)>*>(&fn));
}

}  // namespace psme
