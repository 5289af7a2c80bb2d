#ifndef TARA_COMMON_THREAD_POOL_H_
#define TARA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace tara {

/// A fixed-size pool of worker threads with a shared FIFO task queue — no
/// work stealing, no priorities. Used by the offline build pipeline and
/// batched queries: tasks are coarse (a whole window's mining, a segment
/// parse, a query), so a plain mutex-protected queue is never the
/// bottleneck.
///
/// Thread-safety: Submit and ParallelFor may be called from any thread,
/// including from inside a pool task (ParallelFor then degrades to the
/// caller's thread to avoid queue-wait deadlocks; see below).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(uint32_t num_threads);

  /// Drains nothing: outstanding tasks finish, queued tasks still run, then
  /// workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t size() const { return static_cast<uint32_t>(workers_.size()); }

  /// Enqueues `fn` and returns a future for its result.
  template <typename Fn>
  auto Submit(Fn fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::move(fn));
    std::future<Result> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Splits [0, n) into at most `size() + 1` contiguous chunks and runs
  /// `body(chunk_index, begin, end)` for each, blocking until all chunks
  /// finish. The chunking is deterministic (depends only on n and the pool
  /// size), chunk 0 runs on the calling thread, and chunk indexes are
  /// dense — so callers can write per-chunk output slots and concatenate
  /// them in order to get a result identical to a sequential [0, n) sweep.
  ///
  /// When called from inside a pool worker the whole range runs inline as
  /// one chunk: a worker blocking on sub-chunks queued behind other
  /// workers' sub-chunks could otherwise deadlock the pool.
  void ParallelFor(size_t n,
                   const std::function<void(size_t chunk, size_t begin,
                                            size_t end)>& body);

  /// Number of chunks ParallelFor(n, ...) will use from a non-worker
  /// thread, so callers can pre-size per-chunk output slots.
  size_t ChunkCountFor(size_t n) const;

  /// True when the calling thread is one of this process's pool workers.
  static bool InWorkerThread();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace tara

#endif  // TARA_COMMON_THREAD_POOL_H_
