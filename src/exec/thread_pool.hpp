#pragma once

// Fixed-size thread pool with a deterministic parallel_for.
//
// The contract every caller relies on: parallel_for partitions [0, n) into
// contiguous index chunks decided only by (n, num_threads), and each index's
// work must depend only on the index — never on which thread runs it or in
// what order chunks complete. Under that discipline results are bit-identical
// at any thread count, which is how the pipeline/campaign/forest outputs keep
// the same guarantee the fault layer makes at intensity 0 and the obs layer
// makes for the null sink.
//
// num_threads == 1 is the serial fallback: parallel_for runs inline on the
// caller with no locks, no queue and no worker threads. Nested parallel_for
// calls (from inside a worker) also run inline, so composed layers — a
// durable-campaign shard that itself calls run_campaign — never deadlock.

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "check/thread_annotations.hpp"

namespace starlab::exec {

struct Config {
  /// Worker count the pool schedules across (the caller counts as one of
  /// them). <= 0 resolves to std::thread::hardware_concurrency().
  int num_threads = 0;
};

/// Resolve a Config to a concrete thread count (>= 1).
[[nodiscard]] int resolve_num_threads(const Config& config);

class ThreadPool {
 public:
  explicit ThreadPool(Config config = {});
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // starlint:allow(reachability): test seam; tests check the pool's size
  [[nodiscard]] int num_threads() const { return num_threads_; }

  /// Run body(begin, end) over `num_threads()` contiguous chunks of [0, n).
  /// Chunk boundaries depend only on (n, num_threads); the caller executes
  /// one chunk itself and helps drain the queue while waiting. The first
  /// exception thrown by any chunk is rethrown on the caller after every
  /// chunk finished.
  void parallel_for_chunks(
      std::size_t n, const std::function<void(std::size_t, std::size_t)>& body)
      EXCLUDES(mu_) {
    parallel_for_chunks(n, 1, body);
  }

  /// Like the two-argument overload, but never splits finer than
  /// `min_per_chunk` indices per chunk: chunk count is
  /// min(num_threads, max(1, n / min_per_chunk)). Callers whose per-chunk
  /// body has a fixed setup cost (campaign slots each rebuilding scratch
  /// state, for example) pass the grain so a small n runs in a few big
  /// chunks instead of num_threads() tiny ones. Chunk boundaries still
  /// depend only on (n, min_per_chunk, num_threads), so results stay
  /// bit-identical at any thread count.
  void parallel_for_chunks(
      std::size_t n, std::size_t min_per_chunk,
      const std::function<void(std::size_t, std::size_t)>& body) EXCLUDES(mu_);

  /// Per-index convenience over parallel_for_chunks: f(i) for i in [0, n).
  template <typename F>
  void parallel_for(std::size_t n, F&& f) {
    parallel_for_chunks(n, [&f](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) f(i);
    });
  }

 private:
  void worker_loop();
  /// Pop-and-run one queued task; false when the queue is empty.
  bool run_one_task() EXCLUDES(mu_);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  check::Mutex mu_;
  check::CondVar cv_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

/// The process-wide pool that run_campaign, RandomForest::fit and
/// run_campaign_durable schedule on (and Catalog::propagate_all, which only
/// perfbench's replay still calls).
/// First use builds it from Config{} — honoring the STARLAB_THREADS
/// environment variable when set — so untouched programs parallelize across
/// the hardware by default.
[[nodiscard]] ThreadPool& default_pool();

/// Replace the default pool (joins the old workers first). Not safe to call
/// while another thread is inside default_pool().parallel_for.
void configure(const Config& config);

}  // namespace starlab::exec
