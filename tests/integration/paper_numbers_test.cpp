// End-to-end reproduction of the paper's headline numbers:
//   Section 3.4  — lpr: 4 attribute perturbations, 4 violations
//   Section 4.1  — turnin: 8 interaction points, 41 perturbations,
//                  9 violations, 2 distinct confirmed vulnerabilities
//   Section 4.2  — registry: 29 unprotected keys, 9 with known modules,
//                  all 9 exploited
//   Section 2.4  — vulnerability database Tables 1-4, exact counts
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/scenarios.hpp"
#include "core/report.hpp"
#include "vulndb/classifier.hpp"

namespace ep {
namespace {

using core::Campaign;
using core::CampaignResult;

TEST(PaperNumbers, LprSection34) {
  Campaign campaign(apps::lpr_scenario());
  core::CampaignOptions opts;
  opts.only_sites = {apps::kLprCreateTag};
  CampaignResult r = campaign.execute(opts);

  EXPECT_TRUE(r.benign_violations.empty())
      << core::render_report(r);
  // Four attribute perturbations at the create interaction point...
  EXPECT_EQ(r.n(), 4) << core::render_report(r);
  // ... and every one of them violates the security policy.
  EXPECT_EQ(r.violation_count(), 4) << core::render_report(r);
}

TEST(PaperNumbers, TurninSection41) {
  Campaign campaign(apps::turnin_scenario());
  CampaignResult r = campaign.execute();

  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
  EXPECT_EQ(r.points.size(), 8u) << core::render_report(r);
  EXPECT_EQ(r.n(), 41) << core::render_report(r);
  EXPECT_EQ(r.violation_count(), 9) << core::render_report(r);

  // The two distinct flaws the paper confirmed by exploit:
  // Projlist disclosure (fopen-projlist) and ../ traversal (arg-filename).
  std::set<std::string> violating_sites;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (r.injections[id].violated)
      violating_sites.insert(r.point_of(id).site.tag);
  EXPECT_TRUE(violating_sites.count(apps::kTurninOpenProjlist));
  EXPECT_TRUE(violating_sites.count(apps::kTurninArgFile));
}

TEST(PaperNumbers, TurninViolationBreakdown) {
  Campaign campaign(apps::turnin_scenario());
  CampaignResult r = campaign.execute();
  std::map<std::string, int> by_site;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (r.injections[id].violated) ++by_site[r.point_of(id).site.tag];
  EXPECT_EQ(by_site[apps::kTurninOpenConfig], 2) << core::render_report(r);
  EXPECT_EQ(by_site[apps::kTurninOpenProjlist], 2) << core::render_report(r);
  EXPECT_EQ(by_site[apps::kTurninArgFile], 1) << core::render_report(r);
  EXPECT_EQ(by_site[apps::kTurninCreateDest], 4) << core::render_report(r);
}

TEST(PaperNumbers, RegistrySection42) {
  auto world = apps::nt_registry_world();
  EXPECT_EQ(world->registry.unprotected_keys().size(), 29u);
  EXPECT_EQ(world->registry.unprotected_with_module().size(), 9u);
  EXPECT_EQ(world->registry.unprotected_without_module().size(), 20u);

  int exploited = 0;
  for (const auto& m : apps::nt_modules()) {
    Campaign campaign(apps::nt_module_scenario(m.module));
    CampaignResult r = campaign.execute();
    EXPECT_TRUE(r.benign_violations.empty())
        << m.module << "\n" << core::render_report(r);
    if (!r.exploitable().empty()) ++exploited;
  }
  EXPECT_EQ(exploited, 9);
}

TEST(PaperNumbers, VulnDbTables1Through4) {
  const auto& db = vulndb::database();
  ASSERT_EQ(db.size(), 195u);
  auto c = vulndb::classify_all(db);

  // Section 2.4 exclusions.
  EXPECT_EQ(c.insufficient, 26);
  EXPECT_EQ(c.design, 22);
  EXPECT_EQ(c.configuration, 5);
  EXPECT_EQ(c.classified, 142);

  // Table 1.
  EXPECT_EQ(c.indirect, 81);
  EXPECT_EQ(c.direct, 48);
  EXPECT_EQ(c.other, 13);

  // Table 2.
  using IC = core::IndirectCategory;
  EXPECT_EQ(c.indirect_by_category[IC::user_input], 51);
  EXPECT_EQ(c.indirect_by_category[IC::environment_variable], 17);
  EXPECT_EQ(c.indirect_by_category[IC::file_system_input], 5);
  EXPECT_EQ(c.indirect_by_category[IC::network_input], 8);
  EXPECT_EQ(c.indirect_by_category[IC::process_input], 0);

  // Table 3.
  using DE = core::DirectEntity;
  EXPECT_EQ(c.direct_by_entity[DE::file_system], 42);
  EXPECT_EQ(c.direct_by_entity[DE::network], 5);
  EXPECT_EQ(c.direct_by_entity[DE::process], 1);

  // Table 4.
  using FA = vulndb::FsAttribute;
  EXPECT_EQ(c.fs_by_attribute[FA::existence], 20);
  EXPECT_EQ(c.fs_by_attribute[FA::symbolic_link], 6);
  EXPECT_EQ(c.fs_by_attribute[FA::permission], 6);
  EXPECT_EQ(c.fs_by_attribute[FA::ownership], 3);
  EXPECT_EQ(c.fs_by_attribute[FA::invariance], 6);
  EXPECT_EQ(c.fs_by_attribute[FA::working_directory], 1);
}

TEST(PaperNumbers, HardenedTurninTolerates40Of41) {
  Campaign campaign(apps::turnin_hardened_scenario());
  CampaignResult r = campaign.execute();
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
  EXPECT_EQ(r.n(), 41) << core::render_report(r);
  // Only the root-only config-content tamper still wins.
  EXPECT_EQ(r.violation_count(), 1) << core::render_report(r);
}

}  // namespace
}  // namespace ep
