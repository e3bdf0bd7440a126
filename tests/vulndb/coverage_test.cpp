// Vulnerability-coverage adequacy (vulndb/coverage.hpp): the 20-class
// universe is closed and sorted, fault names map through the standard
// catalog to their cause/attribute class, and the report over campaign
// results counts only violated outcomes.
#include "vulndb/coverage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "apps/scenarios.hpp"
#include "core/campaign.hpp"
#include "core/scheduler.hpp"

namespace ep::vulndb {
namespace {

TEST(VulnCoverage, UniverseIsTwentySortedUniqueClasses) {
  std::vector<std::string> u = coverage_universe();
  EXPECT_EQ(u.size(), 20u);
  EXPECT_TRUE(std::is_sorted(u.begin(), u.end()));
  EXPECT_EQ(std::set<std::string>(u.begin(), u.end()).size(), u.size());
  // Both halves of the EAI taxonomy are represented.
  int causes = 0, attributes = 0;
  for (const std::string& label : u) {
    if (label.rfind("cause: ", 0) == 0) ++causes;
    if (label.rfind("attribute: ", 0) == 0) ++attributes;
  }
  EXPECT_EQ(causes, 5);
  EXPECT_EQ(attributes, 15);
}

TEST(VulnCoverage, ClassLookupGoesThroughTheStandardCatalog) {
  EXPECT_EQ(coverage_class(core::FaultKind::indirect, "cmd-insert-newline"),
            "cause: user input");
  EXPECT_EQ(coverage_class(core::FaultKind::direct, "file-existence"),
            "attribute: file existence");
  // Unknown names map to nothing rather than inventing a class.
  EXPECT_EQ(coverage_class(core::FaultKind::indirect, "no-such-fault"), "");
  EXPECT_EQ(coverage_class(core::FaultKind::direct, "no-such-fault"), "");
  // Kind matters: a direct name looked up as indirect misses.
  EXPECT_EQ(coverage_class(core::FaultKind::indirect, "file-existence"), "");
}

TEST(VulnCoverage, OnlyViolatedOutcomesFireClasses) {
  // The class comes from the fault the plan assigned to each outcome's
  // item.
  const core::FaultCatalog& catalog = core::FaultCatalog::standard();
  core::CampaignResult r;
  core::WorkItem item;
  item.fault.kind = core::FaultKind::direct;
  item.fault.direct = catalog.find_direct("file-existence");
  r.items.push_back(item);
  core::InjectionOutcome fired_but_tolerated;
  fired_but_tolerated.fired = true;
  fired_but_tolerated.violated = false;
  r.injections.push_back(fired_but_tolerated);

  item.fault.direct = catalog.find_direct("file-ownership");
  r.items.push_back(item);
  core::InjectionOutcome violated = fired_but_tolerated;
  violated.violated = true;
  r.injections.push_back(violated);

  VulnCoverage cov = vulnerability_coverage({r});
  ASSERT_EQ(cov.fired.size(), 1u);
  EXPECT_EQ(cov.fired[0], "attribute: file ownership");
  EXPECT_EQ(cov.total(), 20);
  EXPECT_DOUBLE_EQ(cov.fraction(), 1.0 / 20.0);
  EXPECT_EQ(cov.silent.size(), 19u);
  EXPECT_TRUE(std::is_sorted(cov.silent.begin(), cov.silent.end()));
}

TEST(VulnCoverage, EmptyResultsFireNothing) {
  VulnCoverage cov = vulnerability_coverage({});
  EXPECT_TRUE(cov.fired.empty());
  EXPECT_EQ(cov.silent.size(), 20u);
  EXPECT_DOUBLE_EQ(cov.fraction(), 0.0);
}

TEST(VulnCoverage, PackagedSweepFiresARealSubset) {
  core::MultiCampaign suite;
  for (auto& s : apps::all_scenarios()) suite.add(std::move(s));
  core::SweepOptions opts;
  opts.campaign.seed = 7;
  core::SweepResult sweep = suite.run(opts);
  VulnCoverage cov = vulnerability_coverage(sweep.results);
  // The packaged suite is known-vulnerable by construction: at least a
  // handful of classes fire, and never more than the universe.
  EXPECT_GE(cov.fired.size(), 3u);
  EXPECT_LE(cov.fired.size(), 20u);
  for (const std::string& label : cov.fired)
    EXPECT_TRUE(label.rfind("cause: ", 0) == 0 ||
                label.rfind("attribute: ", 0) == 0)
        << label;
}

}  // namespace
}  // namespace ep::vulndb
