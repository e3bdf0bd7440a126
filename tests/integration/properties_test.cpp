// Cross-cutting properties swept over every packaged scenario:
// accounting identities, run isolation, VFS integrity, determinism.
#include <gtest/gtest.h>

#include "apps/scenarios.hpp"
#include "core/oracle.hpp"
#include "core/report.hpp"

namespace ep {
namespace {

using core::Campaign;
using core::CampaignResult;

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

class EveryScenario : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryScenario, BenignRunViolatesNothing) {
  Campaign c(scenario_by_name(GetParam()));
  core::CampaignOptions opts;
  opts.only_sites = {"no-such-site"};  // discovery only, no injections
  auto r = c.execute(opts);
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
}

TEST_P(EveryScenario, AccountingIdentitiesHold) {
  Campaign c(scenario_by_name(GetParam()));
  auto r = c.execute();
  EXPECT_EQ(r.tolerated_count() + r.violation_count(), r.n());
  EXPECT_GE(r.fault_coverage(), 0.0);
  EXPECT_LE(r.fault_coverage(), 1.0);
  EXPECT_GE(r.interaction_coverage(), 0.0);
  EXPECT_LE(r.interaction_coverage(), 1.0);
  EXPECT_DOUBLE_EQ(r.fault_coverage(), 1.0 - r.vulnerability_score());
  EXPECT_LE(r.perturbed_site_tags.size(), r.points.size());
}

TEST_P(EveryScenario, EveryInjectionOutcomeWellFormed) {
  Campaign c(scenario_by_name(GetParam()));
  auto r = c.execute();
  ASSERT_EQ(r.items.size(), r.injections.size());
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    const core::FaultRef& f = r.fault_of(id);
    EXPECT_FALSE(f.name().empty());
    EXPECT_FALSE((f.kind == core::FaultKind::indirect ? f.indirect->description
                                                      : f.direct->description)
                     .empty());
    const core::InjectionOutcome& i = r.injections[id];
    EXPECT_EQ(i.violated, !i.violations.empty());
    if (i.violated) {
      EXPECT_FALSE(i.exploit.actor.empty());
    }
  }
}

TEST_P(EveryScenario, DeterministicAcrossRuns) {
  auto r1 = Campaign(scenario_by_name(GetParam())).execute();
  auto r2 = Campaign(scenario_by_name(GetParam())).execute();
  ASSERT_EQ(r1.n(), r2.n());
  EXPECT_EQ(r1.violation_count(), r2.violation_count());
  for (int i = 0; i < r1.n(); ++i) {
    EXPECT_EQ(r1.fault_of(i).name(), r2.fault_of(i).name());
    EXPECT_EQ(r1.injections[i].violated, r2.injections[i].violated);
    EXPECT_EQ(r1.injections[i].exit_code, r2.injections[i].exit_code);
  }
}

TEST_P(EveryScenario, ViolatingFaultsActuallyFired) {
  // A violation can only be caused by a fault that was injected.
  Campaign c(scenario_by_name(GetParam()));
  auto r = c.execute();
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    if (r.injections[id].violated) {
      EXPECT_TRUE(r.injections[id].fired)
          << r.point_of(id).site.tag << "/" << r.fault_of(id).name();
    }
  }
}

TEST_P(EveryScenario, ReportRendersWithoutSurprises) {
  Campaign c(scenario_by_name(GetParam()));
  auto r = c.execute();
  std::string text = core::render_report(r);
  EXPECT_FALSE(text.empty());
  EXPECT_NE(text.find(GetParam()), std::string::npos);
}

TEST_P(EveryScenario, JsonStaysBalancedAndClean) {
  Campaign c(scenario_by_name(GetParam()));
  auto r = c.execute();
  std::string json = core::render_json(r);
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char ch : json) {
    // No raw control bytes may survive escaping.
    EXPECT_TRUE(static_cast<unsigned char>(ch) >= 0x20 || ch == '\n');
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string && ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST_P(EveryScenario, MergedCampaignNeverLosesViolations) {
  // The equivalence reduction's soundness, swept over the whole suite.
  auto full = Campaign(scenario_by_name(GetParam())).execute();
  core::CampaignOptions opts;
  opts.merge_equivalent_sites = true;
  auto merged = Campaign(scenario_by_name(GetParam())).execute(opts);
  EXPECT_LE(merged.n(), full.n());
  EXPECT_EQ(merged.violation_count(), full.violation_count());
  EXPECT_DOUBLE_EQ(merged.interaction_coverage(),
                   full.interaction_coverage());
}

TEST_P(EveryScenario, RedzoneOracleRaisesNoFalsePositives) {
  // Negative control for the memory oracle: none of the packaged
  // scenarios corrupts a guard region, neither benignly nor under any
  // injected fault, so the redzone policy must never appear.
  Campaign c(scenario_by_name(GetParam()));
  auto r = c.execute();  // use_redzone defaults to true
  for (const auto& v : r.benign_violations)
    EXPECT_NE(v.policy, core::Policy::redzone_corruption) << v.detail;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    for (const auto& v : r.injections[id].violations)
      EXPECT_NE(v.policy, core::Policy::redzone_corruption)
          << r.point_of(id).site.tag << "/" << r.fault_of(id).name() << ": "
          << v.detail;
}

TEST_P(EveryScenario, RedzoneAuditIsByteInvisibleWhenNothingFires) {
  // The oracle must be a pure observer: with no corruption, turning the
  // audit off (and changing the worker count) leaves the rendered report
  // byte-identical. This is the determinism contract --no-redzone rides
  // on — reports differ only when a guard actually breaks.
  core::CampaignOptions audit_on;
  audit_on.jobs = 1;
  core::CampaignOptions audit_off;
  audit_off.use_redzone = false;
  audit_off.jobs = 4;
  auto r_on = Campaign(scenario_by_name(GetParam())).execute(audit_on);
  auto r_off = Campaign(scenario_by_name(GetParam())).execute(audit_off);
  EXPECT_EQ(core::render_json(r_on), core::render_json(r_off));
  EXPECT_EQ(core::render_report(r_on), core::render_report(r_off));
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, EveryScenario,
                         ::testing::ValuesIn(scenario_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Properties, ScenarioNamesUnique) {
  auto names = scenario_names();
  std::set<std::string> set(names.begin(), names.end());
  EXPECT_EQ(set.size(), names.size());
  EXPECT_EQ(names.size(), 21u);  // 12 UNIX-side + 9 NT modules
}

}  // namespace
}  // namespace ep
