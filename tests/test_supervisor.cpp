#include "resilience/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

namespace starlab::resilience {
namespace {

TEST(Supervisor, CleanBodyRunsOnce) {
  Supervisor sup(SupervisorConfig{});
  int calls = 0;
  const TaskOutcome out = sup.run(7, [&](DegradeLevel level) {
    ++calls;
    EXPECT_EQ(level, DegradeLevel::kNone);
  });
  EXPECT_TRUE(out.ok);
  EXPECT_FALSE(out.quarantined);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sup.failures(), 0u);
  EXPECT_EQ(sup.retries(), 0u);
  EXPECT_TRUE(sup.events().empty());
}

TEST(Supervisor, FlakyBodyIsRetriedUntilItSucceeds) {
  Supervisor sup(SupervisorConfig{});
  int calls = 0;
  const TaskOutcome out = sup.run(3, [&](DegradeLevel) {
    if (++calls < 3) throw std::runtime_error("transient");
  });
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(sup.failures(), 2u);
  EXPECT_EQ(sup.retries(), 2u);
  EXPECT_EQ(sup.quarantined(), 0u);
  const std::vector<std::string> events = sup.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].find("retry task=3 attempt=1"), std::string::npos);
}

TEST(Supervisor, ExhaustedAttemptsQuarantine) {
  Supervisor sup(SupervisorConfig{});
  int calls = 0;
  const TaskOutcome out = sup.run(9, [&](DegradeLevel) {
    ++calls;
    throw std::runtime_error("permanent");
  });
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.quarantined);
  EXPECT_EQ(calls, SupervisorConfig{}.max_attempts);
  EXPECT_EQ(sup.quarantined(), 1u);
  EXPECT_NE(out.error.find("permanent"), std::string::npos);
  const std::vector<std::string> events = sup.events();
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events.back().find("quarantine task=9"), std::string::npos);
}

TEST(Supervisor, LadderClimbsWithCumulativeFailures) {
  SupervisorConfig config;
  config.max_attempts = 1;  // every failed task is one failure
  Supervisor sup(config);
  for (std::uint64_t failures = 1; failures <= kAbstainFailures; ++failures) {
    (void)sup.run(failures, [](DegradeLevel) {
      throw std::runtime_error("boom");
    });
    const DegradeLevel want =
        failures >= kAbstainFailures     ? DegradeLevel::kAbstain
        : failures >= kWidenGridFailures ? DegradeLevel::kWidenGrid
        : failures >= kShedObsFailures   ? DegradeLevel::kShedObservability
                                         : DegradeLevel::kNone;
    EXPECT_EQ(sup.level(), want) << "failures=" << failures;
  }
  // Each rung is announced exactly once in the event log.
  int degrade_events = 0;
  for (const std::string& e : sup.events()) {
    if (e.rfind("degrade level=", 0) == 0) ++degrade_events;
  }
  EXPECT_EQ(degrade_events, 3);
}

TEST(Supervisor, InjectedTaskFaultsFollowThePlanDeterministically) {
  SupervisorConfig config;
  config.faults.intensity = 1.0;
  config.faults.exec.task_fail_rate = 1.0;  // every attempt faults
  config.max_attempts = 2;
  Supervisor sup(config);
  int calls = 0;
  const TaskOutcome out = sup.run(0, [&](DegradeLevel) { ++calls; });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(calls, 0);  // the injector fires before the body
  EXPECT_NE(out.error.find("injected task fault"), std::string::npos);

  // Zero intensity is the no-op guarantee: no faults, no retries.
  SupervisorConfig clean;
  clean.faults.intensity = 0.0;
  clean.faults.exec.task_fail_rate = 1.0;
  Supervisor quiet(clean);
  EXPECT_TRUE(quiet.run(0, [](DegradeLevel) {}).ok);
  EXPECT_EQ(quiet.failures(), 0u);
}

TEST(Supervisor, ConcurrentTasksKeepConsistentCounts) {
  SupervisorConfig config;
  config.max_attempts = 2;
  Supervisor sup(config);
  std::atomic<int> succeeded{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t k = 0; k < 16; ++k) {
        const std::uint64_t task = static_cast<std::uint64_t>(t) * 100 + k;
        const TaskOutcome out = sup.run(task, [&](DegradeLevel) {
          if (task % 2 == 0) throw std::runtime_error("even tasks fail");
        });
        if (out.ok) succeeded.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(succeeded.load(), 8 * 8);  // the odd tasks
  EXPECT_EQ(sup.quarantined(), 8u * 8u);
  EXPECT_EQ(sup.failures(), 8u * 8u * 2u);  // two attempts per even task
  EXPECT_EQ(sup.retries(), 8u * 8u);
}

}  // namespace
}  // namespace starlab::resilience
