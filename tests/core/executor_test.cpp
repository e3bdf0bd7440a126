// Executor layer tests: the parallel drain must be result-identical to
// the serial one — same injections, same order, same scores — for any
// worker count (the thread-confinement guarantee).
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"

namespace ep::core {
namespace {

TEST(Executor, ParallelDrainIsResultIdenticalToSerial) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  Executor executor(s);

  CampaignResult serial = executor.execute(plan, {1});
  for (int jobs : {2, 4, 13}) {
    ExecutorOptions opts;
    opts.jobs = jobs;
    CampaignResult parallel = executor.execute(plan, opts);
    expect_identical(serial, parallel);
  }
}

TEST(Executor, OutcomeSlotsFollowPlanOrder) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  ExecutorOptions opts;
  opts.jobs = 4;
  CampaignResult r = Executor(s).execute(plan, opts);
  ASSERT_EQ(r.injections.size(), plan.items.size());
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    EXPECT_EQ(r.point_of(i).site.tag, plan.point_of(plan.items[i]).site.tag);
    EXPECT_EQ(r.fault_of(i).name(), plan.items[i].fault.name());
  }
}

TEST(Executor, NonPositiveJobsRunsSerially) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  Executor executor(s);
  CampaignResult serial = executor.execute(plan, {1});
  expect_identical(serial, executor.execute(plan, {0}));
  expect_identical(serial, executor.execute(plan, {-3}));
}

TEST(Executor, CampaignFacadeHonorsJobsOption) {
  CampaignOptions serial_opts;
  CampaignOptions parallel_opts;
  parallel_opts.jobs = 4;
  CampaignResult a = Campaign(toy_scenario()).execute(serial_opts);
  CampaignResult b = Campaign(toy_scenario()).execute(parallel_opts);
  expect_identical(a, b);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  parallel_for(hits.size(), 8,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RethrowsTheLowestIndexError) {
  for (int jobs : {1, 4}) {
    try {
      parallel_for(64, jobs, [&](std::size_t i) {
        if (i == 7 || i == 50) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception (jobs " << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7") << "jobs " << jobs;
    }
  }
}

}  // namespace
}  // namespace ep::core
