// rshd: the host-name / command / IP-address semantics of Table 5.
#include <gtest/gtest.h>

#include <set>

#include "apps/daemons.hpp"
#include "core/report.hpp"
#include "util/strings.hpp"

namespace ep::apps {
namespace {

using core::Campaign;
using core::CampaignOptions;

std::set<std::string> violated_faults(const core::CampaignResult& r) {
  std::set<std::string> out;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (r.injections[id].violated)
      out.insert(r.point_of(id).site.tag + "/" + r.fault_of(id).name());
  return out;
}

TEST(Rshd, BenignCommandRuns) {
  auto s = rshd_scenario();
  auto w = s.build();
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "rshd: done for"));
}

TEST(Rshd, BenignRunHasNoViolations) {
  Campaign c(rshd_scenario());
  auto r = c.execute();
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
}

TEST(Rshd, DeclaredSemanticsDrivePlanning) {
  Campaign c(rshd_scenario());
  auto r = c.execute();
  std::set<std::string> fault_names;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    fault_names.insert(r.fault_of(id).name());
  // The three Table 5 rows nothing else exercises:
  EXPECT_TRUE(fault_names.count("host-change-length"));
  EXPECT_TRUE(fault_names.count("cmd-insert-shell-meta"));
  EXPECT_TRUE(fault_names.count("ip-change-length"));
}

TEST(Rshd, OversizedHostnameSmashesBuffer) {
  auto s = rshd_scenario();
  core::SiteSpec one;
  one.faults = {"host-change-length"};
  s.sites[kRshdRecvHost] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {kRshdRecvHost};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 1);
  ASSERT_TRUE(r.injections[0].violated);
  EXPECT_EQ(r.injections[0].violations[0].policy,
            core::Policy::memory_safety);
}

TEST(Rshd, ShellMetaInCommandRunsAttackerProgram) {
  // "ls;/tmp/attacker/evil" — the first token passes the allowlist, and
  // the validate-first-execute-all dispatch runs the payload too.
  Campaign c(rshd_scenario());
  auto r = c.execute();
  auto v = violated_faults(r);
  EXPECT_TRUE(v.count(std::string(kRshdRecvCmd) + "/cmd-insert-shell-meta"))
      << core::render_report(r);
  EXPECT_TRUE(v.count(std::string(kRshdRecvCmd) + "/cmd-insert-newline"));
}

TEST(Rshd, AbsoluteAndRelativeCommandsRejected) {
  Campaign c(rshd_scenario());
  CampaignOptions opts;
  opts.only_sites = {kRshdRecvCmd};
  auto r = c.execute(opts);
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    const std::string& fault = r.fault_of(id).name();
    if (fault == "cmd-use-absolute-path" || fault == "cmd-use-relative-path" ||
        fault == "cmd-change-length") {
      EXPECT_FALSE(r.injections[id].violated) << fault;
    }
  }
}

TEST(Rshd, OversizedResolverAnswerSmashesBuffer) {
  Campaign c(rshd_scenario());
  CampaignOptions opts;
  opts.only_sites = {kRshdDns};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 2);
  auto v = violated_faults(r);
  EXPECT_TRUE(v.count(std::string(kRshdDns) + "/ip-change-length"));
  EXPECT_FALSE(v.count(std::string(kRshdDns) + "/ip-bad-format"));
}

TEST(Rshd, HostsEquivPerturbationsFailClosed) {
  // Every equiv-file fault makes the host lookup miss: rshd refuses.
  Campaign c(rshd_scenario());
  CampaignOptions opts;
  opts.only_sites = {kRshdEquiv};
  auto r = c.execute(opts);
  EXPECT_GT(r.n(), 0);
  EXPECT_EQ(r.violation_count(), 0) << core::render_report(r);
}

TEST(Rshd, ExecSiteOwnershipAndSymlinkExploitable) {
  Campaign c(rshd_scenario());
  CampaignOptions opts;
  opts.only_sites = {kRshdExec};
  auto r = c.execute(opts);
  auto v = violated_faults(r);
  EXPECT_TRUE(v.count(std::string(kRshdExec) + "/file-ownership"));
  EXPECT_TRUE(v.count(std::string(kRshdExec) + "/symbolic-link"));
  EXPECT_FALSE(v.count(std::string(kRshdExec) + "/file-existence"));
}

TEST(Rshd, SpoofedHostMessagePoisonsAuthorization) {
  auto s = rshd_scenario();
  core::SiteSpec one;
  one.faults = {"message-authenticity"};
  s.sites[kRshdRecvHost] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {kRshdRecvHost};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 1);
  ASSERT_TRUE(r.injections[0].violated);
  EXPECT_EQ(r.injections[0].violations[0].policy,
            core::Policy::authorization);
}

}  // namespace
}  // namespace ep::apps
