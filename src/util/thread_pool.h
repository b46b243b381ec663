#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cq::util {

/// Fixed-size worker pool executing submitted jobs in FIFO order.
///
/// This is the shared concurrency primitive of the repository: the
/// serving subsystem runs its batch workers on it, and
/// serve::EngineSession splits one forward's batch over it via
/// parallel_for(), without either reinventing thread lifecycle
/// management.
///
/// A pool of size 0 is a valid degenerate pool: submit() runs the job
/// inline on the calling thread, which keeps single-threaded baselines
/// and tests free of special cases.
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 0; 0 means inline execution).
  explicit ThreadPool(int threads);
  /// Waits for all queued and running jobs, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `job` for execution. Jobs must not throw out of their
  /// call operator (wrap and capture instead); an escaping exception
  /// terminates, as with std::thread.
  void submit(std::function<void()> job);

  /// Blocks until every job submitted so far has finished. Must not be
  /// called from inside a pool job (it would wait on itself).
  void wait_idle();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;  ///< queued + currently running jobs
  bool stopping_ = false;
};

/// Runs body(lo, hi) over half-open chunks covering [begin, end),
/// splitting the work between the calling thread and the pool.
///
/// `grain` is the chunk length (<= 0 picks ~4 chunks per worker). The
/// caller participates in the work, so a 0-thread pool degrades to a
/// plain serial loop. The first exception thrown by `body` is captured
/// and rethrown on the calling thread after all chunks finish. Do not
/// call from inside a job of the same pool: the helper jobs it submits
/// could then starve behind the caller itself.
void parallel_for(ThreadPool& pool, std::int64_t begin, std::int64_t end,
                  std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace cq::util
