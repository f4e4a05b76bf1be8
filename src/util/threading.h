#ifndef MANIRANK_UTIL_THREADING_H_
#define MANIRANK_UTIL_THREADING_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace manirank {

/// Number of worker threads used by ParallelFor. Defaults to
/// std::thread::hardware_concurrency(), overridable via the
/// MANIRANK_THREADS environment variable (0 or 1 disables parallelism).
/// Malformed values (non-numeric, trailing garbage, negative, overflow)
/// fall back to the hardware default; huge values are clamped to
/// kMaxThreads.
size_t DefaultThreadCount();

/// Upper bound enforced on MANIRANK_THREADS.
inline constexpr size_t kMaxThreads = 256;

/// Runs `body(begin, end, worker_index)` over a static partition of
/// [0, count) across `threads` workers. Blocks until all workers finish.
/// With threads <= 1 (or count small) the body runs inline on the caller.
///
/// Work is dispatched to a lazily-initialized persistent worker pool that
/// is shared process-wide and grows to the largest thread count requested;
/// after warmup no call constructs a std::thread. One partition always
/// runs inline on the calling thread. Nested ParallelFor calls (a body
/// that itself calls ParallelFor) run serially on the worker to avoid
/// pool starvation. Only the pool's own workers are flagged as nested:
/// a thread the caller created itself (such as a serving executor
/// worker, which may block for seconds on a table gate) still fans out.
///
/// The body must be safe to run concurrently on disjoint ranges. If any
/// partition throws, the fan-out first quiesces and the first captured
/// exception is rethrown on the calling thread.
void ParallelFor(size_t count,
                 const std::function<void(size_t begin, size_t end,
                                          size_t worker)>& body,
                 size_t threads = 0);

/// Number of persistent pool workers currently alive (diagnostics).
size_t PooledWorkerCount();

/// Total worker threads the pool has ever constructed. Tests use this to
/// prove that repeated parallel regions reuse workers instead of spawning
/// fresh threads per call.
uint64_t PooledThreadsCreated();

}  // namespace manirank

#endif  // MANIRANK_UTIL_THREADING_H_
