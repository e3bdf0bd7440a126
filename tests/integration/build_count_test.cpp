// The world cache's regression gate as exact counts of Scenario::build
// calls, over every scenario the suite sweep drains (21 packaged, 104
// generated family members). A cached campaign builds twice — the trace
// run and the prototype it freezes — however many items it drains; the
// rebuild-per-run path builds once per item plus once per violated
// outcome (the exploitability judgment needs a benign world); a worker
// that receives the plan over the wire builds once, to re-freeze. A
// cached path that quietly rebuilds shows up here as a wrong count, not
// as a noisy rate. perfbench's suite-sweep `apps.build.count` per op is
// the suite-wide figure below (250).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/executor.hpp"
#include "core/scheduler.hpp"
#include "core/wire.hpp"

namespace ep::core {
namespace {

/// The suite sweep's 125 scenarios, packaged first.
std::vector<Scenario> every_scenario() {
  std::vector<Scenario> out = apps::all_scenarios();
  for (const ScenarioFamily& family : apps::scenario_families())
    for (Scenario& s : apps::family_scenarios(family))
      out.push_back(std::move(s));
  return out;
}

/// `s` with its build callback counted into `*builds` (atomic: the
/// uncached drain builds on every worker thread).
Scenario counted(Scenario s, std::atomic<int>* builds) {
  s.build = [inner = std::move(s.build), builds] {
    builds->fetch_add(1, std::memory_order_relaxed);
    return inner();
  };
  return s;
}

TEST(CachedBuildCount, CachedCampaignBuildsTwiceWhateverTheItemCount) {
  for (const Scenario& s : every_scenario()) {
    SCOPED_TRACE(s.name);
    for (int jobs : {1, 4}) {
      std::atomic<int> builds{0};
      CampaignOptions opts;
      opts.jobs = jobs;
      CampaignResult r = Campaign(counted(s, &builds)).execute(opts);
      ASSERT_GT(r.n(), 2);
      EXPECT_EQ(builds.load(), 2) << "jobs=" << jobs << ", " << r.n()
                                  << " items";
    }
  }
}

TEST(CachedBuildCount, UncachedCampaignBuildsPerItemAndPerViolation) {
  for (const Scenario& s : every_scenario()) {
    SCOPED_TRACE(s.name);
    std::atomic<int> builds{0};
    CampaignOptions opts;
    opts.jobs = 4;
    opts.use_world_cache = false;
    CampaignResult r = Campaign(counted(s, &builds)).execute(opts);
    EXPECT_EQ(builds.load(), 1 + r.n() + r.violation_count());
  }
}

TEST(CachedBuildCount, WorkerBuildsOncePerPlanWhateverTheLeaseCount) {
  for (const Scenario& s : every_scenario()) {
    SCOPED_TRACE(s.name);
    // The coordinator's plan file carries no snapshot (epa_cli plan).
    CampaignOptions popts;
    popts.use_world_cache = false;
    const std::string wire = Planner(s).plan(popts).to_json();

    std::atomic<int> builds{0};
    Scenario local = counted(s, &builds);
    InjectionPlan plan = plan_from_json(wire);
    refreeze_snapshot(plan, local);
    Executor executor(local);
    const std::size_t n = plan.items.size();
    ShardReport head = run_lease(executor, plan, {0, n / 2});
    ShardReport tail = run_lease(executor, plan, {n / 2, n});
    EXPECT_EQ(head.outcomes.size() + tail.outcomes.size(), n);
    EXPECT_EQ(builds.load(), 1);
  }
}

TEST(CachedBuildCount, SuiteSweepBuildsTwoPerScenario) {
  std::atomic<int> builds{0};
  MultiCampaign suite;
  for (Scenario& s : every_scenario())
    suite.add(counted(std::move(s), &builds));
  SweepOptions opts;
  opts.jobs = 4;
  SweepResult r = suite.run(opts);
  EXPECT_EQ(r.results.size(), 125u);
  EXPECT_EQ(r.total_injections(), 3129);
  EXPECT_EQ(builds.load(), 250);
}

}  // namespace
}  // namespace ep::core
