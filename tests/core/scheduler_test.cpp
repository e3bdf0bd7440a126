// MultiCampaign scheduler tests: many scenarios through one shared pool,
// aggregated in add() order with seed-stable, interleaving-independent
// results.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign_fixtures.hpp"

namespace ep::core {
namespace {

TEST(MultiCampaign, AggregatesInAddOrder) {
  MultiCampaign suite;
  suite.add(toy_scenario("toy-a", false));
  suite.add(toy_scenario("toy-b", true));
  suite.add(toy_scenario("toy-c", false));
  ASSERT_EQ(suite.size(), 3u);

  SweepOptions opts;
  opts.jobs = 4;
  SweepResult sweep = suite.run(opts);
  ASSERT_EQ(sweep.results.size(), 3u);
  EXPECT_EQ(sweep.results[0].scenario_name, "toy-a");
  EXPECT_EQ(sweep.results[1].scenario_name, "toy-b");
  EXPECT_EQ(sweep.results[2].scenario_name, "toy-c");
}

TEST(MultiCampaign, MatchesStandaloneCampaigns) {
  MultiCampaign suite;
  suite.add(toy_scenario("toy-a", false));
  suite.add(toy_scenario("toy-b", true));

  SweepOptions opts;
  opts.jobs = 4;
  SweepResult sweep = suite.run(opts);

  expect_identical(sweep.results[0],
                   Campaign(toy_scenario("toy-a", false)).execute());
  expect_identical(sweep.results[1],
                   Campaign(toy_scenario("toy-b", true)).execute());
}

TEST(MultiCampaign, SharedPoolResultEqualsSerial) {
  for (int jobs : {1, 4, 9}) {
    MultiCampaign suite;
    suite.add(toy_scenario("toy-a", false));
    suite.add(toy_scenario("toy-b", true));
    SweepOptions opts;
    opts.jobs = jobs;
    SweepResult sweep = suite.run(opts);

    MultiCampaign again;
    again.add(toy_scenario("toy-a", false));
    again.add(toy_scenario("toy-b", true));
    SweepResult serial = again.run({});
    ASSERT_EQ(sweep.results.size(), serial.results.size());
    for (std::size_t i = 0; i < sweep.results.size(); ++i)
      expect_identical(sweep.results[i], serial.results[i]);
  }
}

TEST(MultiCampaign, TotalsSumOverScenarios) {
  MultiCampaign suite;
  suite.add(toy_scenario("toy-a", false));
  suite.add(toy_scenario("toy-b", true));
  SweepResult sweep = suite.run({});

  int points = 0, injections = 0, violations = 0, exploitable = 0;
  for (const auto& r : sweep.results) {
    points += static_cast<int>(r.points.size());
    injections += r.n();
    violations += r.violation_count();
    exploitable += static_cast<int>(r.exploitable().size());
  }
  EXPECT_EQ(sweep.total_points(), points);
  EXPECT_EQ(sweep.total_injections(), injections);
  EXPECT_EQ(sweep.total_violations(), violations);
  EXPECT_EQ(sweep.total_exploitable(), exploitable);
  ASSERT_GT(injections, 0);
  EXPECT_DOUBLE_EQ(sweep.mean_vulnerability_score(),
                   static_cast<double>(violations) / injections);
}

TEST(MultiCampaign, HardeningShowsUpInTheAggregate) {
  // The hardened variant locks mallory out of /toy, so its rho must not
  // exceed the open variant's.
  MultiCampaign suite;
  suite.add(toy_scenario("toy-open", false));
  suite.add(toy_scenario("toy-hard", true));
  SweepResult sweep = suite.run({});
  EXPECT_LE(sweep.results[1].vulnerability_score(),
            sweep.results[0].vulnerability_score());
}

TEST(MultiCampaign, EachScenarioDrainsOnOneThread) {
  // Sixteen equal plans at jobs 4: the lease grain (total items / 16)
  // covers a whole plan, so each scenario is one lease and one thread
  // clones its prototype. Every run records the thread it ran on, then
  // sleeps long enough that all four threads are draining at once; a
  // queue that handed out single items would spread each scenario.
  struct Threads {
    std::mutex mu;
    std::vector<std::thread::id> ids;
  };
  std::vector<std::shared_ptr<Threads>> seen;
  MultiCampaign suite;
  for (int i = 0; i < 16; ++i) {
    auto threads = std::make_shared<Threads>();
    seen.push_back(threads);
    Scenario s = toy_scenario("toy-" + std::to_string(i), false);
    s.run = [run = std::move(s.run), threads](TargetWorld& w) {
      {
        std::lock_guard<std::mutex> lock(threads->mu);
        threads->ids.push_back(std::this_thread::get_id());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return run(w);
    };
    suite.add(std::move(s));
  }
  SweepOptions opts;
  opts.jobs = 4;
  SweepResult sweep = suite.run(opts);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    // The first run is the scenario's trace run, made while planning.
    const std::vector<std::thread::id>& ids = seen[i]->ids;
    ASSERT_EQ(ids.size(), sweep.results[i].injections.size() + 1);
    ASSERT_GT(ids.size(), 2u);
    const std::set<std::thread::id> drained(ids.begin() + 1, ids.end());
    EXPECT_EQ(drained.size(), 1u) << "scenario " << i;
  }
}

TEST(MultiCampaign, EmptySuiteRunsToEmptyResult) {
  MultiCampaign suite;
  SweepResult sweep = suite.run({});
  EXPECT_TRUE(sweep.results.empty());
  EXPECT_EQ(sweep.total_injections(), 0);
  EXPECT_DOUBLE_EQ(sweep.mean_vulnerability_score(), 0.0);
}

}  // namespace
}  // namespace ep::core
