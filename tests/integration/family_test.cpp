// The generated-family acceptance criteria: every family member is
// snapshot-safe (cloned prototype runs reproduce rebuild-per-run runs at
// any job count), and a whole generated family drained through the wire
// as plan -> run-shard -> merge is byte-identical to the single-process
// parallel run. Families must earn the same determinism contract the
// packaged 21 already hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "core/wire.hpp"
#include "vulndb/coverage.hpp"

namespace ep::core {
namespace {

TEST(FamilyDeterminism, EveryMemberCachedRunsReproduceFreshBuilds) {
  for (const auto& family : apps::scenario_families()) {
    for (auto& scenario : apps::family_scenarios(family)) {
      SCOPED_TRACE(scenario.name);
      ASSERT_TRUE(scenario.snapshot_safe)
          << "every compiled spec must opt into world caching";

      CampaignOptions uncached;
      uncached.seed = 7;
      uncached.use_world_cache = false;
      CampaignResult reference =
          Campaign(*apps::resolve_scenario(scenario.name)).execute(uncached);

      for (int jobs : {1, 4}) {
        CampaignOptions cached;
        cached.seed = 7;
        cached.jobs = jobs;
        cached.use_world_cache = true;
        CampaignResult r =
            Campaign(*apps::resolve_scenario(scenario.name)).execute(cached);
        expect_identical(reference, r);
      }
    }
  }
}

TEST(FamilyDeterminism, ShardedFamilyMatchesSingleProcess) {
  const ScenarioFamily* family = apps::find_family("fam-relay");
  ASSERT_NE(family, nullptr);
  for (auto& scenario : apps::family_scenarios(*family)) {
    SCOPED_TRACE(scenario.name);
    Planner planner(scenario);
    InjectionPlan plan = planner.plan();
    Executor ex(scenario);
    ExecutorOptions opts;
    opts.jobs = 4;
    CampaignResult single = ex.execute(plan, opts);
    std::string single_report = render_report(single);
    std::string single_json = render_json(single);

    InjectionPlan wire_plan = plan_from_json(plan.to_json());
    refreeze_snapshot(wire_plan, scenario);

    for (std::size_t n : {2u, 5u}) {
      SCOPED_TRACE("shards=" + std::to_string(n));
      std::vector<ShardReport> shards;
      for (std::size_t k = 0; k < n; ++k) {
        ExecutorOptions shard_opts;
        shard_opts.jobs = 2;
        shards.push_back(shard_report_from_json(
            run_lease(ex, wire_plan,
                      static_shard(wire_plan.items.size(), k, n),
                      shard_opts).to_json()));
      }
      CampaignResult merged = merge_shard_reports(wire_plan, shards);
      expect_identical(single, merged);
      EXPECT_EQ(single_report, render_report(merged));
      EXPECT_EQ(single_json, render_json(merged));
    }
  }
}

TEST(FamilyDeterminism, FamilySweepIsStableAcrossJobCounts) {
  SweepResult serial, parallel;
  for (int jobs : {1, 4}) {
    MultiCampaign suite;
    const ScenarioFamily* family = apps::find_family("fam-spool");
    ASSERT_NE(family, nullptr);
    for (auto& s : apps::family_scenarios(*family)) suite.add(std::move(s));
    SweepOptions opts;
    opts.jobs = jobs;
    opts.campaign.seed = 7;
    (jobs == 1 ? serial : parallel) = suite.run(opts);
  }
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i)
    expect_identical(serial.results[i], parallel.results[i]);
}

// The generated suite's size and adequacy as exact figures: members,
// exhaustive work items and EAI classes fired, per family and for the
// three together (the vulnerability-coverage adequacy criterion of
// vulndb/coverage.hpp over a 20-class universe).
TEST(FamilyVulnCoverage, EveryFamilyFiresItsExactClassCount) {
  struct Want {
    const char* family;
    std::size_t members;
    int items;
    std::size_t classes;
  };
  const Want wants[] = {{"fam-spool", 32, 1024, 6},
                        {"fam-relay", 36, 600, 6},
                        {"fam-regchain", 36, 996, 7}};
  std::vector<CampaignResult> all;
  int all_items = 0;
  for (const Want& want : wants) {
    SCOPED_TRACE(want.family);
    const ScenarioFamily* family = apps::find_family(want.family);
    ASSERT_NE(family, nullptr);
    MultiCampaign suite;
    for (auto& s : apps::family_scenarios(*family)) suite.add(std::move(s));
    SweepOptions opts;
    opts.jobs = 4;
    SweepResult r = suite.run(opts);
    EXPECT_EQ(r.results.size(), want.members);
    EXPECT_EQ(r.total_injections(), want.items);
    EXPECT_EQ(vulndb::vulnerability_coverage(r.results).fired.size(),
              want.classes);
    all_items += r.total_injections();
    all.insert(all.end(), r.results.begin(), r.results.end());
  }
  EXPECT_EQ(apps::scenario_families().size(), 3u);
  EXPECT_EQ(all.size(), 104u);
  EXPECT_EQ(all_items, 2620);
  const vulndb::VulnCoverage cov = vulndb::vulnerability_coverage(all);
  EXPECT_EQ(cov.fired.size(), 13u);
  EXPECT_EQ(cov.total(), 20);
  EXPECT_DOUBLE_EQ(100.0 * cov.fraction(), 65.0);
}

}  // namespace
}  // namespace ep::core
