// mailer behaviour: benign delivery plus the three indirect failure modes
// (overflow, traversal, PATH hijack) and the spool-attribute faults.
#include "apps/mailer.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "util/strings.hpp"

namespace ep::apps {
namespace {

using core::Campaign;
using core::CampaignOptions;

TEST(Mailer, BenignDeliveryCreatesMailbox) {
  auto s = mailer_scenario();
  auto w = s.build();
  int rc = s.run(*w);
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(ep::contains(w->kernel.peek("/var/spool/mail/bob").value(),
                           "From alice"));
  EXPECT_TRUE(ep::contains(w->kernel.console(), "sendmail: delivered"));
}

TEST(Mailer, BenignRunHasNoViolations) {
  Campaign c(mailer_scenario());
  auto r = c.execute();
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
}

TEST(Mailer, LongRecipientOverflowsUncheckedBuffer) {
  auto s = mailer_scenario();
  auto w = s.build();
  std::string huge(4096, 'A');
  auto r = w->kernel.spawn("/usr/bin/mailer", {"mailer", huge}, 1000, 1000,
                           {}, "/home");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 139);  // crashed
}

TEST(Mailer, DotDotRecipientEscapesSpool) {
  auto s = mailer_scenario();
  auto w = s.build();
  auto r = w->kernel.spawn("/usr/bin/mailer", {"mailer", "../cron.d"}, 1000,
                           1000, {}, "/home");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(w->kernel.peek("/var/spool/cron.d").ok());
}

TEST(Mailer, PathHijackRunsAttackerSendmail) {
  auto s = mailer_scenario();
  auto w = s.build();
  auto r = w->kernel.spawn("/usr/bin/mailer", {"mailer", "bob"}, 1000, 1000,
                           {{"PATH", "/tmp/attacker:/bin"}}, "/home");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ep::contains(w->kernel.console(), "evil: payload running"));
  // The payload ran with mailer's root privilege and hit /etc/passwd.
  EXPECT_TRUE(
      ep::contains(w->kernel.peek("/etc/passwd").value(), "mallory::0:0"));
}

TEST(Mailer, CampaignFindsAllThreeIndirectFlaws) {
  Campaign c(mailer_scenario());
  auto r = c.execute();
  std::set<std::string> violated;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (r.injections[id].violated) violated.insert(r.fault_of(id).name());
  EXPECT_TRUE(violated.count("change-length"));         // overflow
  EXPECT_TRUE(violated.count("insert-dotdot"));         // traversal
  EXPECT_TRUE(violated.count("path-insert-untrusted")); // PATH hijack
}

TEST(Mailer, CampaignFindsSpoolAttributeFlaws) {
  Campaign c(mailer_scenario());
  CampaignOptions opts;
  opts.only_sites = {kMailerCreateSpool};
  auto r = c.execute(opts);
  EXPECT_EQ(r.n(), 4);
  EXPECT_EQ(r.violation_count(), 4) << core::render_report(r);
}

TEST(Mailer, ExecSitePartiallyDefended) {
  Campaign c(mailer_scenario());
  CampaignOptions opts;
  opts.only_sites = {kMailerExec};
  auto r = c.execute(opts);
  std::set<std::string> violated;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (r.injections[id].violated) violated.insert(r.fault_of(id).name());
  // Ownership and symlink swaps go unnoticed (mailer never checks)...
  EXPECT_TRUE(violated.count("file-ownership"));
  EXPECT_TRUE(violated.count("symbolic-link"));
  // ...while existence and permission faults fail closed in the kernel.
  EXPECT_FALSE(violated.count("file-existence"));
  EXPECT_FALSE(violated.count("file-permission"));
}

TEST(Mailer, OverflowViolationIsMemorySafety) {
  auto s = mailer_scenario();
  core::SiteSpec one;
  one.faults = {"change-length"};
  s.sites[kMailerArgRecipient] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {kMailerArgRecipient};
  auto r = c.execute(opts);
  ASSERT_EQ(r.violation_count(), 1);
  EXPECT_EQ(r.injections[0].violations[0].policy,
            core::Policy::memory_safety);
  EXPECT_TRUE(r.injections[0].crashed);
}

}  // namespace
}  // namespace ep::apps
