#include "util/threading.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace manirank {
namespace {

/// Set while a thread is executing a pool job; nested ParallelFor calls on
/// such a thread run inline instead of submitting to the (possibly
/// saturated) pool.
thread_local bool t_is_pool_worker = false;

class Completion;

/// Process-wide lazily-grown worker pool. Workers park on a condition
/// variable between parallel regions, so repeated small regions pay a
/// wakeup instead of a thread construction. The pool is torn down (stop +
/// join) during static destruction.
class WorkerPool {
 public:
  static WorkerPool& Instance() {
    static WorkerPool pool;
    return pool;
  }

  /// Grows the pool so at least `n` workers exist (capped at kMaxThreads).
  void EnsureWorkers(size_t n) {
    n = std::min(n, kMaxThreads);
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_.size() < n) {
      workers_.emplace_back([this] { WorkerLoop(); });
      ++threads_created_;
    }
  }

  void Submit(std::function<void()> fn, const Completion* owner) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back({std::move(fn), owner});
    }
    cv_.notify_one();
  }

  /// Runs one queued job belonging to `owner` on the calling thread, if
  /// any is still queued. Lets a blocked ParallelFor caller help drain its
  /// OWN fan-out, which prevents starvation when every pooled worker is
  /// blocked on a lock the caller holds (e.g. a cache mutex whose fill
  /// spawns a parallel region). Restricting the steal to the caller's own
  /// partitions is what makes it safe: those are exactly the jobs the
  /// caller could have run inline, so they can never need a lock the
  /// caller is holding above them — an arbitrary sibling job could, and
  /// would self-deadlock the non-recursive mutex.
  bool TryRunOneOwnedBy(const Completion* owner) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
        if (it->owner == owner) {
          fn = std::move(it->fn);
          jobs_.erase(it);
          break;
        }
      }
      if (!fn) return false;
    }
    fn();
    return true;
  }

  size_t worker_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
  }

  uint64_t threads_created() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_created_;
  }

 private:
  struct Job {
    std::function<void()> fn;
    const Completion* owner;
  };

  WorkerPool() = default;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void WorkerLoop() {
    t_is_pool_worker = true;
    for (;;) {
      std::function<void()> fn;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (stop_ && jobs_.empty()) return;
        fn = std::move(jobs_.front().fn);
        jobs_.pop_front();
      }
      fn();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  std::vector<std::thread> workers_;
  uint64_t threads_created_ = 0;
  bool stop_ = false;
};

/// Countdown latch completing a fan-out: the caller blocks until every
/// submitted partition has run, helping to execute its own still-queued
/// partitions while it waits. Captures the first exception any partition
/// throws so the caller can rethrow it after the fan-out has fully
/// quiesced (unwinding earlier would free the shared body/latch while
/// workers still reference them).
class Completion {
 public:
  explicit Completion(size_t pending) : pending_(pending) {}

  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }

  void RecordException(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!exception_) exception_ = std::move(e);
  }

  std::exception_ptr TakeException() {
    std::lock_guard<std::mutex> lock(mu_);
    return exception_;
  }

  void WaitHelping(WorkerPool& pool) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (pending_ == 0) return;
      }
      if (!pool.TryRunOneOwnedBy(this)) {
        // None of this fan-out's partitions are queued any more: each is
        // either running on some thread or done (jobs never return to
        // the queue), so a plain wait cannot starve.
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return pending_ == 0; });
        return;
      }
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_;
  std::exception_ptr exception_;
};

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("MANIRANK_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    bool valid = end != env;
    // Allow trailing whitespace only; anything else is malformed.
    for (const char* p = end; valid && p != nullptr && *p != '\0'; ++p) {
      if (!std::isspace(static_cast<unsigned char>(*p))) valid = false;
    }
    if (valid && errno != ERANGE && v >= 0) {
      return std::min(static_cast<size_t>(v), kMaxThreads);
    }
    // Negative, non-numeric, or overflowing values fall back to hardware.
  }
  return HardwareThreads();
}

void ParallelFor(size_t count,
                 const std::function<void(size_t, size_t, size_t)>& body,
                 size_t threads) {
  if (threads == 0) threads = DefaultThreadCount();
  threads = std::max<size_t>(1, std::min(threads, count));
  // Nested regions run serially: the caller already occupies a pool
  // worker, and waiting on sub-jobs from inside the pool can deadlock
  // when every worker does the same.
  if (threads <= 1 || count < 2 || t_is_pool_worker) {
    if (count > 0) body(0, count, 0);
    return;
  }
  const size_t chunk = (count + threads - 1) / threads;
  // Partition 0 runs inline on the caller; the rest go to the pool.
  size_t submitted = 0;
  for (size_t w = 1; w < threads; ++w) {
    if (w * chunk < count) ++submitted;
  }
  if (submitted == 0) {
    body(0, count, 0);
    return;
  }
  WorkerPool& pool = WorkerPool::Instance();
  pool.EnsureWorkers(submitted);
  Completion completion(submitted);
  // A throwing partition must not unwind past the fan-out while other
  // partitions still reference the shared body and latch; capture the
  // first exception and rethrow once everything has quiesced.
  const auto invoke = [&body, &completion](size_t begin, size_t end,
                                           size_t worker) {
    try {
      body(begin, end, worker);
    } catch (...) {
      completion.RecordException(std::current_exception());
    }
  };
  for (size_t w = 1; w < threads; ++w) {
    const size_t begin = w * chunk;
    const size_t end = std::min(count, begin + chunk);
    if (begin >= end) break;
    pool.Submit(
        [&invoke, &completion, begin, end, w] {
          invoke(begin, end, w);
          completion.Done();
        },
        &completion);
  }
  invoke(0, std::min(count, chunk), 0);
  completion.WaitHelping(pool);
  if (std::exception_ptr e = completion.TakeException()) {
    std::rethrow_exception(e);
  }
}

size_t PooledWorkerCount() { return WorkerPool::Instance().worker_count(); }

uint64_t PooledThreadsCreated() {
  return WorkerPool::Instance().threads_created();
}

}  // namespace manirank
