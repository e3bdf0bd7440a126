// The ISSUE's determinism criterion over the real scenario suite: for
// every packaged scenario, --jobs 4 must reproduce the --jobs 1 campaign
// exactly — same injections, same order, same rho — and the MultiCampaign
// sweep must agree with standalone campaigns.
#include <gtest/gtest.h>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"

namespace ep {
namespace {

using core::Campaign;
using core::CampaignOptions;
using core::CampaignResult;
using core::expect_identical;

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto& s : apps::all_scenarios()) names.push_back(s.name);
  return names;
}

core::Scenario scenario_by_name(const std::string& name) {
  for (auto& s : apps::all_scenarios())
    if (s.name == name) return s;
  throw std::logic_error("no scenario " + name);
}

class EveryScenarioParallel : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryScenarioParallel, Jobs4ReproducesJobs1Exactly) {
  CampaignOptions serial;
  serial.seed = 7;
  CampaignOptions parallel = serial;
  parallel.jobs = 4;

  CampaignResult a = Campaign(scenario_by_name(GetParam())).execute(serial);
  CampaignResult b = Campaign(scenario_by_name(GetParam())).execute(parallel);
  expect_identical(a, b);
}

INSTANTIATE_TEST_SUITE_P(Suite, EveryScenarioParallel,
                         ::testing::ValuesIn(scenario_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(Sweep, MultiCampaignAgreesWithStandaloneCampaigns) {
  core::MultiCampaign suite;
  for (auto& s : apps::all_scenarios()) suite.add(std::move(s));
  core::SweepOptions opts;
  opts.jobs = 4;
  auto sweep = suite.run(opts);

  auto standalone = apps::all_scenarios();
  ASSERT_EQ(sweep.results.size(), standalone.size());
  for (std::size_t i = 0; i < standalone.size(); ++i) {
    CampaignResult r = Campaign(std::move(standalone[i])).execute();
    expect_identical(sweep.results[i], r);
  }
}

/// The JSON report of every scenario in `suite`, swept at `jobs`.
std::vector<std::string> sweep_json(const core::MultiCampaign& suite,
                                    int jobs) {
  core::SweepOptions opts;
  opts.jobs = jobs;
  std::vector<std::string> out;
  for (const CampaignResult& r : suite.run(opts).results)
    out.push_back(core::render_json(r));
  return out;
}

TEST(Sweep, EveryJobCountRendersTheJobs1Json) {
  // The scheduler's scenario leases cover whole plans on the 125-scenario
  // suite, while at jobs 3, 4 and 7 they split the larger packaged plans
  // (the grain is total items / (jobs * 4)): both layouts must render
  // the jobs-1 bytes.
  core::MultiCampaign packaged;
  core::MultiCampaign all;
  for (auto& s : apps::all_scenarios()) {
    all.add(s);
    packaged.add(std::move(s));
  }
  for (const core::ScenarioFamily& family : apps::scenario_families())
    for (core::Scenario& s : apps::family_scenarios(family))
      all.add(std::move(s));
  ASSERT_EQ(packaged.size(), 21u);
  ASSERT_EQ(all.size(), 125u);
  for (const core::MultiCampaign* suite : {&packaged, &all}) {
    const std::vector<std::string> serial = sweep_json(*suite, 1);
    for (int jobs : {2, 3, 4, 7}) {
      const std::vector<std::string> parallel = sweep_json(*suite, jobs);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i])
            << "scenario " << i << " of " << suite->size() << ", jobs "
            << jobs;
    }
  }
}

}  // namespace
}  // namespace ep
