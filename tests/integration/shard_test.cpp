// The ISSUE's acceptance criterion for distribution: for every packaged
// scenario, a plan serialized to JSON, drained by N independent shards
// (each through the wire: plan parsed from bytes, shard report serialized
// and re-parsed), and merged back is byte-identical to the single-process
// parallel run — including shard counts that do not divide the work-item
// count evenly.
#include <gtest/gtest.h>

#include <vector>

#include "apps/scenarios.hpp"
#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "core/wire.hpp"

namespace ep::core {
namespace {

TEST(ShardDeterminism, MergedShardsMatchSingleProcessForEveryScenario) {
  for (auto& scenario : apps::all_scenarios()) {
    SCOPED_TRACE(scenario.name);
    Planner planner(scenario);
    InjectionPlan plan = planner.plan();
    Executor ex(scenario);
    ExecutorOptions opts;
    opts.jobs = 4;
    CampaignResult single = ex.execute(plan, opts);
    std::string single_report = render_report(single);
    std::string single_json = render_json(single);

    // What a shard process actually sees: the plan rebuilt from bytes,
    // with a locally re-frozen COW prototype.
    InjectionPlan wire_plan = plan_from_json(plan.to_json());
    refreeze_snapshot(wire_plan, scenario);

    for (std::size_t n : {2u, 3u, 7u}) {
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

}  // namespace
}  // namespace ep::core
