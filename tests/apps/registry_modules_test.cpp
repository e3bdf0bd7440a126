// The NT registry world and the nine module scenarios.
#include "apps/registry_modules.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "util/strings.hpp"

namespace ep::apps {
namespace {

using core::Campaign;
using core::CampaignOptions;

TEST(NtWorld, ScanCounts) {
  auto w = nt_registry_world();
  EXPECT_EQ(w->registry.unprotected_keys().size(), 29u);
  EXPECT_EQ(w->registry.unprotected_with_module().size(), 9u);
  EXPECT_EQ(w->registry.unprotected_without_module().size(), 20u);
  EXPECT_EQ(w->registry.size(), 44u);  // + 15 protected
}

TEST(NtWorld, SamIsProtected) {
  auto w = nt_registry_world();
  EXPECT_FALSE(w->kernel.uid_can(500, 500, kNtSam, os::Perm::read));
  EXPECT_FALSE(w->kernel.uid_can(500, 500, kNtCritical, os::Perm::write));
}

TEST(NtWorld, AnyUserMayRewriteUnprotectedKeys) {
  auto w = nt_registry_world();
  for (const auto& key : w->registry.unprotected_keys())
    EXPECT_TRUE(w->registry.attacker_set_value(666, key.path, "pwn"))
        << key.path;
  for (int i = 1; i <= 15; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "HKLM/Secure/Protected%02d", i);
    EXPECT_FALSE(w->registry.attacker_set_value(666, buf, "pwn")) << buf;
  }
}

TEST(NtModules, NineModulesCrossReferenced) {
  auto mods = nt_modules();
  ASSERT_EQ(mods.size(), 9u);
  auto w = nt_registry_world();
  for (const auto& m : mods) {
    const reg::Key* key = w->registry.find(m.key);
    ASSERT_NE(key, nullptr) << m.key;
    EXPECT_EQ(key->used_by_module, m.module);
    EXPECT_TRUE(key->acl.everyone_write);
  }
}

class NtModuleCase : public ::testing::TestWithParam<std::string> {};

TEST_P(NtModuleCase, BenignRunIsClean) {
  Campaign c(nt_module_scenario(GetParam()));
  auto r = c.execute();
  EXPECT_TRUE(r.benign_violations.empty())
      << GetParam() << "\n" << core::render_report(r);
}

TEST_P(NtModuleCase, ValueTamperExploitsTheModule) {
  // The paper's attack shape: any user rewrites the key; the privileged
  // module then acts on the attacker-chosen value.
  auto s = nt_module_scenario(GetParam());
  Campaign c(std::move(s));
  auto r = c.execute();
  bool tamper_or_indirect_violation = false;
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    if (!r.injections[id].violated) continue;
    if (r.fault_of(id).name() == "regkey-value-tamper" ||
        r.fault_of(id).kind == core::FaultKind::indirect)
      tamper_or_indirect_violation = true;
  }
  EXPECT_TRUE(tamper_or_indirect_violation) << core::render_report(r);
}

TEST_P(NtModuleCase, ExploitableByAnyLocalUser) {
  Campaign c(nt_module_scenario(GetParam()));
  auto r = c.execute();
  ASSERT_FALSE(r.exploitable().empty()) << core::render_report(r);
}

INSTANTIATE_TEST_SUITE_P(AllNine, NtModuleCase,
                         ::testing::Values("fontcleanup", "logonprofile",
                                           "screensaver", "helpviewer",
                                           "wallpaper", "updater", "spooler",
                                           "aedebug", "tempclean"));

TEST(NtModules, FontCleanupDeletesCriticalFileUnderTamper) {
  auto s = nt_module_scenario("fontcleanup");
  auto w = s.build();
  // The attack, replayed concretely (not via the injector): mallory
  // rewrites the key, the admin-run module then deletes critical.ini.
  ASSERT_TRUE(w->registry.attacker_set_value(
      666, "HKLM/Software/FontCleanupList", kNtCritical));
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_EQ(w->kernel.peek(kNtCritical).error(), Err::noent);
}

TEST(NtModules, LogonProfileRunsAttackerScriptUnderTamper) {
  auto s = nt_module_scenario("logonprofile");
  auto w = s.build();
  ASSERT_TRUE(w->registry.attacker_set_value(
      666, "HKLM/Software/LogonProfileDir", "/tmp/attacker/profile"));
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "evil: payload running"));
}

TEST(NtModules, HelpViewerDisclosesSamUnderTamper) {
  auto s = nt_module_scenario("helpviewer");
  auto w = s.build();
  ASSERT_TRUE(w->registry.attacker_set_value(
      666, "HKLM/Software/HelpViewerFile", kNtSam));
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "SECRET-NT-PASSWORD-HASHES"));
}

TEST(NtModules, TempcleanWipesSystem32UnderTamper) {
  auto s = nt_module_scenario("tempclean");
  auto w = s.build();
  ASSERT_TRUE(w->registry.attacker_set_value(
      666, "HKLM/Software/TempCleanupDir", "/winnt/system32"));
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_EQ(w->kernel.peek(kNtCritical).error(), Err::noent);
}

TEST(NtModules, WallpaperOverflowsOnLongKeyValue) {
  // The value is a path copied into a fixed buffer unchecked; the
  // change-length indirect fault smashes it.
  auto s = nt_module_scenario("wallpaper");
  Campaign c(std::move(s));
  auto r = c.execute();
  bool overflow = false;
  for (const auto& i : r.injections)
    for (const auto& v : i.violations)
      if (v.policy == core::Policy::memory_safety) overflow = true;
  EXPECT_TRUE(overflow) << core::render_report(r);
}

TEST(NtModules, AeDebugRunsAttackerDebuggerUnderTamper) {
  auto s = nt_module_scenario("aedebug");
  auto w = s.build();
  ASSERT_TRUE(w->registry.attacker_set_value(666, "HKLM/Software/AeDebugCommand",
                                             "/tmp/attacker/evil"));
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "evil: payload running"));
}

TEST(NtModules, UpdaterKeyTrustPerturbationFlagged) {
  auto s = nt_module_scenario("updater");
  core::SiteSpec one;
  one.faults = {"regkey-trustability"};
  s.sites["regread-logpath"] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {"regread-logpath"};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 1);
  ASSERT_TRUE(r.injections[0].violated);
  EXPECT_EQ(r.injections[0].violations[0].policy, core::Policy::trust);
}

TEST(NtModules, RemovedKeyFailsClosedEverywhere) {
  // regkey-existence: every module must refuse, not act on garbage.
  for (const auto& m : nt_modules()) {
    auto s = nt_module_scenario(m.module);
    std::string read_site;
    {
      // Discover the module's regread site tag from a trace.
      Campaign probe(s);
      core::CampaignOptions discovery;
      discovery.only_sites = {"--none--"};
      auto tr = probe.execute(discovery);
      for (const auto& p : tr.points)
        if (p.call == "regread") read_site = p.site.tag;
    }
    ASSERT_FALSE(read_site.empty()) << m.module;
    core::SiteSpec one;
    one.faults = {"regkey-existence"};
    s.sites[read_site] = one;
    Campaign c(std::move(s));
    CampaignOptions opts;
    opts.only_sites = {read_site};
    auto r = c.execute(opts);
    ASSERT_EQ(r.n(), 1) << m.module;
    EXPECT_FALSE(r.injections[0].violated) << m.module;
  }
}

TEST(NtModules, ProtectingTheAclIsBenign) {
  // regkey-acl flips everyone-write off: the module still reads the
  // benign value — tolerated (the fix, not an attack).
  auto s = nt_module_scenario("fontcleanup");
  core::SiteSpec one;
  one.faults = {"regkey-acl"};
  s.sites["regread-fontlist"] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {"regread-fontlist"};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 1);
  EXPECT_FALSE(r.injections[0].violated);
}

TEST(NtModules, UnknownKeysAreNotPerturbable) {
  // "we have not been able to perturb the modules that used the other 20
  // keys" — they have no cross-referenced module, hence no scenario.
  auto w = nt_registry_world();
  for (const auto& key : w->registry.unprotected_without_module())
    EXPECT_TRUE(key.used_by_module.empty());
}

}  // namespace
}  // namespace ep::apps
