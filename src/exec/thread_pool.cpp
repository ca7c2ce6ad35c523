#include "exec/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace starlab::exec {

namespace {

thread_local bool t_on_worker = false;

/// Pre-registered pool metrics: queue depth, tasks executed, parallel_for
/// invocations. One-time registration, relaxed-atomic recording.
struct PoolMetrics {
  obs::Counter tasks, parallel_fors, inline_runs;
  obs::Gauge queue_depth;

  static const PoolMetrics& get() {
    static const PoolMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      PoolMetrics x;
      x.tasks = reg.counter("starlab_exec_tasks_total",
                            "Chunk tasks executed by the exec pool");
      x.parallel_fors =
          reg.counter("starlab_exec_parallel_for_total",
                      "parallel_for invocations dispatched to workers");
      x.inline_runs =
          reg.counter("starlab_exec_inline_runs_total",
                      "parallel_for invocations run inline (serial fallback, "
                      "nested call, or single chunk)");
      x.queue_depth = reg.gauge("starlab_exec_queue_depth",
                                "Queued chunk tasks awaiting a worker");
      return x;
    }();
    return m;
  }
};

}  // namespace

int resolve_num_threads(const Config& config) {
  if (config.num_threads > 0) return config.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(Config config)
    : num_threads_(resolve_num_threads(config)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const check::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      const check::MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) cv_.wait(mu_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
      PoolMetrics::get().queue_depth.set(static_cast<double>(tasks_.size()));
    }
    task();
  }
}

bool ThreadPool::run_one_task() {
  std::function<void()> task;
  {
    const check::MutexLock lock(mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
    PoolMetrics::get().queue_depth.set(static_cast<double>(tasks_.size()));
  }
  task();
  return true;
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t min_per_chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const PoolMetrics& metrics = PoolMetrics::get();

  if (min_per_chunk == 0) min_per_chunk = 1;
  const auto threads = static_cast<std::size_t>(num_threads_);
  const std::size_t max_chunks = n / min_per_chunk > 0 ? n / min_per_chunk : 1;
  const std::size_t chunks = max_chunks < threads ? max_chunks : threads;
  // Serial fallback (num_threads == 1), nested call from a worker, or a
  // problem too small to split: run inline on the caller, lock-free.
  if (chunks <= 1 || t_on_worker) {
    metrics.inline_runs.add();
    body(0, n);
    return;
  }
  metrics.parallel_fors.add();

  // Completion state shared with the queued chunk closures. Heap-allocated
  // shared_ptr so a task popped by a concurrent caller's assist loop stays
  // valid even in edge cases; `pending` gates the caller's return.
  struct Sync {
    check::Mutex mu;
    check::CondVar cv;
    std::size_t pending GUARDED_BY(mu) = 0;
    std::exception_ptr error GUARDED_BY(mu);
  };
  auto sync = std::make_shared<Sync>();
  {
    const check::MutexLock lock(sync->mu);
    sync->pending = chunks - 1;
  }

  const auto run_chunk = [&metrics, &body, n,
                          chunks](std::size_t chunk_index) {
    const obs::ObsSpan span("exec.chunk");
    metrics.tasks.add();
    const std::size_t begin = n * chunk_index / chunks;
    const std::size_t end = n * (chunk_index + 1) / chunks;
    body(begin, end);
  };

  {
    const check::MutexLock lock(mu_);
    for (std::size_t c = 1; c < chunks; ++c) {
      tasks_.emplace_back([sync, run_chunk, c] {
        try {
          run_chunk(c);
        } catch (...) {
          const check::MutexLock slock(sync->mu);
          if (!sync->error) sync->error = std::current_exception();
        }
        {
          const check::MutexLock slock(sync->mu);
          --sync->pending;
        }
        sync->cv.notify_all();
      });
    }
    metrics.queue_depth.set(static_cast<double>(tasks_.size()));
  }
  cv_.notify_all();

  // The caller owns chunk 0, then helps drain the queue (its own remaining
  // chunks, or a concurrent caller's) instead of blocking early.
  try {
    run_chunk(0);
  } catch (...) {
    const check::MutexLock slock(sync->mu);
    if (!sync->error) sync->error = std::current_exception();
  }
  while (run_one_task()) {
  }
  {
    const check::MutexLock lock(sync->mu);
    while (sync->pending != 0) sync->cv.wait(sync->mu);
    if (sync->error) std::rethrow_exception(sync->error);
  }
}

namespace {

check::Mutex g_default_mu;
std::unique_ptr<ThreadPool> g_default_pool GUARDED_BY(g_default_mu);

Config config_from_env() {
  Config config;
  if (const char* env = std::getenv("STARLAB_THREADS")) {
    config.num_threads = std::atoi(env);
  }
  return config;
}

}  // namespace

ThreadPool& default_pool() {
  const check::MutexLock lock(g_default_mu);
  if (!g_default_pool) {
    g_default_pool = std::make_unique<ThreadPool>(config_from_env());
  }
  return *g_default_pool;
}

void configure(const Config& config) {
  const check::MutexLock lock(g_default_mu);
  g_default_pool = std::make_unique<ThreadPool>(config);
}

}  // namespace starlab::exec
