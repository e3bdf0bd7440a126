// Daemon scenarios: Table 6 network and process rows end to end.
#include "apps/daemons.hpp"

#include <gtest/gtest.h>

#include <set>

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

TEST(Logind, BenignLoginGranted) {
  auto s = logind_scenario();
  auto w = s.build();
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "login granted"));
}

TEST(Logind, BenignRunHasNoViolations) {
  Campaign c(logind_scenario());
  auto r = c.execute();
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
}

TEST(Logind, DiscoversFourInteractionPoints) {
  Campaign c(logind_scenario());
  auto r = c.execute();
  EXPECT_EQ(r.points.size(), 4u) << core::render_report(r);
}

TEST(Logind, VulnerableBuildFailsTheCatalog) {
  Campaign c(logind_scenario());
  auto r = c.execute();
  auto v = violated_faults(r);
  // Spoofed message accepted.
  EXPECT_TRUE(v.count("logind-recv/message-authenticity"));
  // Out-of-order protocol accepted (reorder and extra step).
  EXPECT_TRUE(v.count("logind-recv/protocol-reorder"));
  EXPECT_TRUE(v.count("logind-recv/protocol-extra-step"));
  // Shared socket ignored.
  EXPECT_TRUE(v.count("logind-accept/socket-share"));
  // Fail-open when the auth service is down; untrusted authority trusted.
  EXPECT_TRUE(v.count("logind-query-authsvc/service-availability"));
  EXPECT_TRUE(v.count("logind-query-authsvc/entity-trustability"));
  // Oversized packet smashes the parse buffer.
  EXPECT_TRUE(v.count("logind-recv/packet-change-size"));
}

TEST(Logind, OmittedAuthStepToleratedByAccident) {
  // Dropping the AUTH step removes the credentials; even the vulnerable
  // build has nothing to grant on.
  auto s = logind_scenario();
  core::SiteSpec one;
  one.faults = {"protocol-omit-step"};
  s.sites[kLogindRecv] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {kLogindRecv};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 1);
  EXPECT_FALSE(r.injections[0].violated);
}

TEST(Logind, HardenedBuildToleratesEverything) {
  Campaign c(logind_hardened_scenario());
  auto r = c.execute();
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
  EXPECT_EQ(r.violation_count(), 0) << core::render_report(r);
  EXPECT_DOUBLE_EQ(r.fault_coverage(), 1.0);
  EXPECT_EQ(r.region(), core::AdequacyRegion::point4_adequate_secure);
}

TEST(Logind, VulnerableLandsInInsecureRegion) {
  Campaign c(logind_scenario());
  auto r = c.execute();
  EXPECT_EQ(r.region(), core::AdequacyRegion::point3_insecure)
      << "fault coverage " << r.fault_coverage();
}

TEST(Netcpd, BenignServesPublicFile) {
  auto s = netcpd_scenario();
  auto w = s.build();
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "served readme.txt"));
}

TEST(Netcpd, CampaignFindings) {
  Campaign c(netcpd_scenario());
  auto r = c.execute();
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
  auto v = violated_faults(r);
  // Request parser smash; DNS reply smash; spoofed/shared/untrusted peers.
  EXPECT_TRUE(v.count("netcpd-recv-request/packet-change-size"));
  EXPECT_TRUE(v.count("netcpd-resolve-host/dns-change-length"));
  EXPECT_TRUE(v.count("netcpd-recv-request/message-authenticity"));
  EXPECT_TRUE(v.count("netcpd-recv-request/socket-share"));
  // Symlinked public file discloses the secret over the network.
  EXPECT_TRUE(v.count("netcpd-open-file/symbolic-link"));
}

TEST(Netcpd, MalformedDnsReplyFailsClosed) {
  auto s = netcpd_scenario();
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {kNetcpdDns};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 2);
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    if (r.fault_of(id).name() == "dns-bad-format") {
      EXPECT_FALSE(r.injections[id].violated);
    }
  }
}

TEST(Cronhelpd, BenignAppliesSchedule) {
  auto s = cronhelpd_scenario();
  auto w = s.build();
  EXPECT_EQ(s.run(*w), 0);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "schedule applied"));
}

TEST(Cronhelpd, ProcessEntityFaultsDetected) {
  Campaign c(cronhelpd_scenario());
  auto r = c.execute();
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
  auto v = violated_faults(r);
  // Spoofed IPC job accepted; fail-open on missing keymaster; untrusted
  // keymaster trusted; oversized job smashes the buffer.
  EXPECT_TRUE(v.count("cron-recv-job/proc-message-authenticity"));
  EXPECT_TRUE(v.count("cron-query-keymaster/proc-availability"));
  EXPECT_TRUE(v.count("cron-query-keymaster/proc-trustability"));
  EXPECT_TRUE(v.count("cron-recv-job/msg-change-length"));
}

TEST(Cronhelpd, IpcChannelKindDrivesProcessFaults) {
  Campaign c(cronhelpd_scenario());
  auto r = c.execute();
  for (const auto& p : r.points) {
    EXPECT_EQ(p.channel_kind, "ipc") << p.site.tag;
  }
  // Process-entity faults (not network ones) were planned.
  bool saw_proc_fault = false;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (ep::starts_with(r.fault_of(id).name(), "proc-")) saw_proc_fault = true;
  EXPECT_TRUE(saw_proc_fault);
}

}  // namespace
}  // namespace ep::apps
