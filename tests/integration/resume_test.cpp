// The ISSUE's preemption criterion: a shard drained partially
// (checkpoint interval 1), killed, and resumed must end up byte-identical
// to the uninterrupted run — and merging any mix of resumed and fresh
// shards must reproduce the single-process campaign bit for bit, for
// N ∈ {2, 3}. Preemption is simulated through the same hook the CLI's
// SIGTERM handler drives (ShardDrainHooks::interrupted), and every
// partial report makes a round trip through the wire before resuming,
// exactly like a worker that died and was restarted.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "core/wire.hpp"

namespace ep::core {
namespace {

TEST(KillAndResume, MergedResultIsByteIdenticalToSingleProcess) {
  Scenario scenario = toy_scenario();
  Planner planner(scenario);
  InjectionPlan plan = planner.plan();
  Executor ex(scenario);
  CampaignResult single = ex.execute(plan);
  std::string single_report = render_report(single);
  std::string single_json = render_json(single);

  for (std::size_t n : {2u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    // What a real worker sees: the plan rebuilt from bytes with a locally
    // re-frozen prototype.
    InjectionPlan wire_plan = plan_from_json(plan.to_json());
    refreeze_snapshot(wire_plan, scenario);

    std::vector<ShardReport> shards;
    for (std::size_t k = 0; k < n; ++k) {
      SCOPED_TRACE("shard=" + std::to_string(k + 1));
      const IdRange shard = static_shard(wire_plan.items.size(), k, n);
      std::string uninterrupted = run_lease(ex, wire_plan, shard).to_json();
      std::size_t owned = shard.size();
      ASSERT_GE(owned, 2u);

      // Kill the drain after `cut` items, at checkpoint interval 1 —
      // early and late cuts both resume to the same bytes.
      for (std::size_t cut : {std::size_t{1}, owned - 1}) {
        std::string last_flush;
        ShardDrainHooks hooks;
        hooks.checkpoint_every = 1;
        hooks.on_checkpoint = [&](const ShardReport& r) {
          last_flush = r.to_json();
        };
        std::size_t polls = 0;
        hooks.interrupted = [&] { return ++polls > cut; };
        ShardReport preempted = run_lease(ex, wire_plan, shard, {}, hooks);
        ASSERT_FALSE(preempted.complete);
        ASSERT_EQ(preempted.item_ids.size(), cut);
        ASSERT_FALSE(last_flush.empty());

        // The kill loses everything after the last flush: resume from
        // the flushed file, not the in-memory report.
        ShardReport from_disk = shard_report_from_json(last_flush);
        ASSERT_FALSE(from_disk.complete);
        ShardReport resumed = resume_shard(ex, wire_plan, from_disk);
        ASSERT_TRUE(resumed.complete);
        EXPECT_EQ(resumed.to_json(), uninterrupted);
        if (cut == 1)
          shards.push_back(shard_report_from_json(resumed.to_json()));
      }
    }

    CampaignResult merged = merge_shard_reports(wire_plan, shards);
    expect_identical(single, merged);
    EXPECT_EQ(single_report, render_report(merged));
    EXPECT_EQ(single_json, render_json(merged));
  }
}

}  // namespace
}  // namespace ep::core
