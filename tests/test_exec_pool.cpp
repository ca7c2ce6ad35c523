#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/config.hpp"
#include "obs/metrics.hpp"

namespace starlab::exec {
namespace {

TEST(ExecConfig, ResolveNumThreads) {
  EXPECT_EQ(resolve_num_threads({1}), 1);
  EXPECT_EQ(resolve_num_threads({4}), 4);
  EXPECT_GE(resolve_num_threads({0}), 1);   // hardware default
  EXPECT_GE(resolve_num_threads({-3}), 1);  // negatives mean "hardware" too
}

TEST(ExecPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool({4});
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ExecPool, ChunksPartitionTheRangeContiguously) {
  ThreadPool pool({4});
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(1001, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(chunks.size(), 4u);
  EXPECT_EQ(chunks.front().first, 0u);
  EXPECT_EQ(chunks.back().second, 1001u);
  for (std::size_t c = 1; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].first, chunks[c - 1].second);  // no gap, no overlap
  }
}

TEST(ExecPool, ChunkBoundariesDependOnlyOnNAndThreadCount) {
  // The determinism contract: same (n, num_threads) -> same chunks, run to
  // run, regardless of scheduling.
  const auto collect = [](std::size_t n) {
    ThreadPool pool({3});
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
      const std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  EXPECT_EQ(collect(100), collect(100));
  EXPECT_EQ(collect(7), collect(7));
}

TEST(ExecPool, SerialPoolRunsInlineOnTheCaller) {
  ThreadPool pool({1});
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  pool.parallel_for_chunks(64, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 64u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);  // one chunk, no queue
}

TEST(ExecPool, EmptyAndSingleElementRanges) {
  ThreadPool pool({4});
  std::size_t calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  std::atomic<std::size_t> seen{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    seen.fetch_add(1);
  });
  EXPECT_EQ(seen.load(), 1u);
}

TEST(ExecPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool({4});
  std::vector<std::atomic<long>> sums(8);
  pool.parallel_for(8, [&](std::size_t i) {
    // A worker re-entering parallel_for must not wait on its own queue.
    pool.parallel_for(100, [&](std::size_t j) {
      sums[i].fetch_add(static_cast<long>(j), std::memory_order_relaxed);
    });
  });
  for (auto& s : sums) EXPECT_EQ(s.load(), 4950);
}

TEST(ExecPool, ExceptionInAChunkPropagatesToTheCaller) {
  ThreadPool pool({4});
  EXPECT_THROW(pool.parallel_for(1000,
                                 [&](std::size_t i) {
                                   if (i == 617) {
                                     throw std::runtime_error("chunk failure");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives the throw and stays usable.
  std::atomic<std::size_t> done{0};
  pool.parallel_for(100, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 100u);
}

TEST(ExecPool, ConfigureReplacesTheDefaultPool) {
  configure({3});
  EXPECT_EQ(default_pool().num_threads(), 3);
  configure({1});
  EXPECT_EQ(default_pool().num_threads(), 1);
  configure({});  // back to the hardware default
  EXPECT_GE(default_pool().num_threads(), 1);
}

TEST(ExecPool, PoolMetricsCountTasksAndParallelForCalls) {
  const obs::Config saved = obs::config();
  obs::set_config(obs::Config::all());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::Counter tasks = reg.counter("starlab_exec_tasks_total");
  obs::Counter calls = reg.counter("starlab_exec_parallel_for_total");
  obs::Counter inlined = reg.counter("starlab_exec_inline_runs_total");
  const std::uint64_t tasks0 = tasks.value();
  const std::uint64_t calls0 = calls.value();
  const std::uint64_t inlined0 = inlined.value();

  ThreadPool pool({4});
  pool.parallel_for(1000, [](std::size_t) {});
  EXPECT_GT(tasks.value(), tasks0);  // every chunk counts, caller's included
  EXPECT_EQ(calls.value(), calls0 + 1);

  ThreadPool serial({1});
  serial.parallel_for(10, [](std::size_t) {});
  EXPECT_GT(inlined.value(), inlined0);

  obs::set_config(saved);
}

}  // namespace
}  // namespace starlab::exec
