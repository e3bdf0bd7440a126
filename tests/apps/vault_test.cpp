// The TOCTTOU demonstration: injecting the dangerous condition between
// check and use (the dynamic answer to Bishop-Dilger's static analysis).
#include "apps/vault.hpp"

#include <gtest/gtest.h>

#include "core/injector.hpp"
#include "core/report.hpp"
#include "os/world.hpp"
#include "util/strings.hpp"

namespace ep::apps {
namespace {

using core::Campaign;
using core::CampaignOptions;

TEST(Vault, BenignAppendWorks) {
  auto s = vault_scenario();
  auto w = s.build();
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_TRUE(ep::contains(w->kernel.peek("/tmp/ledger").value(),
                           "note from alice"));
}

TEST(Vault, BenignRunOfBothVariantsClean) {
  for (auto scenario : {vault_scenario(), vault_fixed_scenario()}) {
    Campaign c(std::move(scenario));
    CampaignOptions opts;
    opts.only_sites = {"definitely-no-such-site"};
    auto r = c.execute(opts);
    EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
  }
}

TEST(Vault, ChecksStopAttacksAtCheckTime) {
  // Perturbation at the CHECK site: access() sees the perturbed state and
  // refuses — even the vulnerable build tolerates these.
  Campaign c(vault_scenario());
  CampaignOptions opts;
  opts.only_sites = {kVaultCheck};
  auto r = c.execute(opts);
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    const std::string& fault = r.fault_of(id).name();
    if (fault == "symbolic-link" || fault == "file-permission") {
      EXPECT_FALSE(r.injections[id].violated) << fault;
    }
  }
}

TEST(Vault, RaceWindowExploitableAtUseSite) {
  // Perturbation at the USE site fires *after* the access() check passed:
  // the injected symlink sends the privileged append into /etc/passwd.
  auto s = vault_scenario();
  core::SiteSpec one;
  one.faults = {"symbolic-link"};
  s.sites[kVaultUse] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {kVaultUse};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 1);
  EXPECT_TRUE(r.injections[0].violated) << core::render_report(r);
  EXPECT_EQ(r.injections[0].violations[0].policy, core::Policy::integrity);
  // And the race is feasible for any local user: /tmp is world-writable.
  EXPECT_TRUE(r.injections[0].exploit.nonroot_feasible);
}

TEST(Vault, FixedBuildClosesTheWindow) {
  auto s = vault_fixed_scenario();
  core::SiteSpec one;
  one.faults = {"symbolic-link"};
  s.sites[kVaultUse] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {kVaultUse};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 1);
  EXPECT_FALSE(r.injections[0].violated) << core::render_report(r);
}

TEST(Vault, FullCampaignComparison) {
  Campaign vulnerable(vault_scenario());
  Campaign fixed(vault_fixed_scenario());
  auto rv = vulnerable.execute();
  auto rf = fixed.execute();
  EXPECT_GT(rv.violation_count(), 0);
  EXPECT_LT(rf.violation_count(), rv.violation_count());
  EXPECT_EQ(rf.violation_count(), 0) << core::render_report(rf);
}

TEST(Vault, ManualRaceReplay) {
  // The attack as mallory would run it, without the injector: swap the
  // ledger for a link in the window between vault's check and use. Here
  // we pre-plant the link and point access() at a decoy the check passes:
  // simplest faithful equivalent in a single-threaded simulation is the
  // injector itself, so this replay just confirms the end state of the
  // campaign's winning run.
  auto s = vault_scenario();
  auto w = s.build();
  core::FaultRef fault;
  fault.kind = core::FaultKind::direct;
  fault.direct = core::FaultCatalog::standard().find_direct("symbolic-link");
  // The injector borrows its site: a named object, not a temporary.
  const os::Site use_site{"vault.c", 30, kVaultUse};
  auto injector =
      std::make_shared<core::Injector>(*w, use_site, fault, s.hints);
  w->kernel.add_interposer(injector);
  std::string before = w->kernel.peek("/etc/passwd").value();
  (void)s.run(*w);
  EXPECT_NE(w->kernel.peek("/etc/passwd").value(), before);
  EXPECT_TRUE(ep::contains(w->kernel.peek("/etc/passwd").value(),
                           "note from alice"));
}

}  // namespace
}  // namespace ep::apps
