// Planner layer tests: the trace-discovery + fault-planning half of the
// engine, and the serializable InjectionPlan it emits.
#include "core/planner.hpp"

#include <gtest/gtest.h>

#include "core/campaign_fixtures.hpp"
#include "core/executor.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

TEST(Planner, DiscoversPointsAndPlansItems) {
  Scenario s = toy_scenario();
  Planner planner(s);
  InjectionPlan plan = planner.plan();

  ASSERT_EQ(plan.points.size(), 3u);
  EXPECT_EQ(plan.scenario_name, "toy");
  EXPECT_TRUE(plan.benign_violations.empty());
  EXPECT_FALSE(plan.items.empty());
  for (const auto& w : plan.items) {
    ASSERT_LT(w.point_index, plan.points.size());
    EXPECT_FALSE(w.fault.name().empty());
  }
  // All three sites draw at least one fault, so all count as perturbed.
  EXPECT_EQ(plan.perturbed_site_tags.size(), 3u);
}

TEST(Planner, ItemsFollowStep3Rules) {
  // Input-bearing sites get both kinds; input-less sites direct only.
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  int cfg_indirect = 0, write_indirect = 0;
  for (const auto& w : plan.items) {
    const InteractionPoint& p = plan.point_of(w);
    if (p.site.tag == "toy-read-config" && w.fault.kind == FaultKind::indirect)
      ++cfg_indirect;
    if (p.site.tag == "toy-write-out" && w.fault.kind == FaultKind::indirect)
      ++write_indirect;
  }
  EXPECT_GT(cfg_indirect, 0);
  EXPECT_EQ(write_indirect, 0);
}

TEST(Planner, OnlySitesRestrictsThePlan) {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.only_sites = {"toy-arg"};
  InjectionPlan plan = Planner(s).plan(opts);
  ASSERT_FALSE(plan.items.empty());
  for (const auto& w : plan.items)
    EXPECT_EQ(plan.point_of(w).site.tag, "toy-arg");
  EXPECT_EQ(plan.perturbed_site_tags,
            std::set<std::string>{"toy-arg"});
  // Discovery still records every point (coverage denominator).
  EXPECT_EQ(plan.points.size(), 3u);
}

TEST(Planner, CoverageSamplingIsSeedStable) {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.target_interaction_coverage = 0.5;
  opts.seed = 42;
  InjectionPlan a = Planner(s).plan(opts);
  InjectionPlan b = Planner(s).plan(opts);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].point_index, b.items[i].point_index);
    EXPECT_EQ(a.items[i].fault.name(), b.items[i].fault.name());
  }
  EXPECT_EQ(a.perturbed_site_tags, b.perturbed_site_tags);
  EXPECT_LT(a.perturbed_site_tags.size(), 3u);
}

TEST(Planner, SkippedSitesPlanNothing) {
  Scenario s = toy_scenario();
  s.sites["toy-read-config"].skip = true;
  InjectionPlan plan = Planner(s).plan();
  for (const auto& w : plan.items)
    EXPECT_NE(plan.point_of(w).site.tag, "toy-read-config");
  EXPECT_EQ(plan.perturbed_site_tags.count("toy-read-config"), 0u);
}

TEST(Planner, PlanSerializesToJson) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  std::string json = plan.to_json();
  EXPECT_TRUE(contains(json, "\"scenario\": \"toy\""));
  EXPECT_TRUE(contains(json, "\"site\": \"toy-read-config\""));
  EXPECT_TRUE(contains(json, "\"items\": ["));
  EXPECT_TRUE(contains(json, "\"fault\": "));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after '}'
}

TEST(Planner, PlanThenExecuteMatchesCampaignFacade) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  CampaignResult via_layers = Executor(s).execute(plan);
  CampaignResult via_facade = Campaign(toy_scenario()).execute();

  ASSERT_EQ(via_layers.injections.size(), via_facade.injections.size());
  for (std::size_t i = 0; i < via_layers.injections.size(); ++i) {
    EXPECT_EQ(via_layers.point_of(i).site.tag,
              via_facade.point_of(i).site.tag);
    EXPECT_EQ(via_layers.fault_of(i).name(), via_facade.fault_of(i).name());
    EXPECT_EQ(via_layers.injections[i].violated,
              via_facade.injections[i].violated);
  }
  EXPECT_DOUBLE_EQ(via_layers.vulnerability_score(),
                   via_facade.vulnerability_score());
}

}  // namespace
}  // namespace ep::core
