// turnin behaviour: benign flows, validation logic, and per-fault
// outcomes at each of the 8 interaction points.
#include "apps/turnin.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "os/world.hpp"
#include "util/strings.hpp"

namespace ep::apps {
namespace {

using core::Campaign;
using core::CampaignOptions;

int run_turnin(core::TargetWorld& w, std::vector<std::string> args,
               os::Uid uid = 1000) {
  auto r = w.kernel.spawn("/usr/bin/turnin", std::move(args), uid, uid, {},
                          "/home/alice");
  return r.ok() ? r.value() : 255;
}

TEST(Turnin, ListModePrintsProjects) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(run_turnin(*w, {"turnin", "-c", "cs390", "-l"}), 0);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "proj1"));
  EXPECT_TRUE(ep::contains(w->kernel.console(), "proj3"));
}

TEST(Turnin, SubmitCopiesFileIntoSubmitDir) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(
      run_turnin(*w, {"turnin", "-c", "cs390", "-p", "proj1", "hw1.c"}), 0);
  auto stored = w->kernel.peek("/home/ta/submit/hw1.c");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value(), "int main() { return 42; }\n");
  EXPECT_TRUE(ep::contains(w->kernel.console(), "submitted 1 file(s)"));
}

TEST(Turnin, UnknownCourseRejected) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(run_turnin(*w, {"turnin", "-c", "nosuch", "-l"}), 3);
}

TEST(Turnin, IllegalCourseNameRejected) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(run_turnin(*w, {"turnin", "-c", "../cs390", "-l"}), 2);
}

TEST(Turnin, UnknownProjectRejected) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(
      run_turnin(*w, {"turnin", "-c", "cs390", "-p", "ghost", "hw1.c"}), 4);
}

TEST(Turnin, AbsoluteFileNameRejected) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(run_turnin(*w, {"turnin", "-c", "cs390", "-p", "proj1",
                            "/etc/shadow"}),
            6);
}

TEST(Turnin, EmbeddedSlashRejected) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(run_turnin(*w, {"turnin", "-c", "cs390", "-p", "proj1",
                            "sub/hw1.c"}),
            6);
}

TEST(Turnin, UnreadableSourceRejected) {
  auto s = turnin_scenario();
  auto w = s.build();
  os::world::put_file(w->kernel, "/home/alice/secret.c", "x", 200, 200, 0600);
  EXPECT_EQ(run_turnin(*w, {"turnin", "-c", "cs390", "-p", "proj1",
                            "secret.c"}),
            7);
}

TEST(Turnin, MissingArgsPrintUsage) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(run_turnin(*w, {"turnin"}), 1);
  EXPECT_TRUE(ep::contains(w->kernel.console(), "usage:"));
}

// --- THE BUG (vulnerable build): validate stripped, use original ---------

TEST(Turnin, DotDotNameEscapesSubmitDir) {
  auto s = turnin_scenario();
  auto w = s.build();
  EXPECT_EQ(run_turnin(*w, {"turnin", "-c", "cs390", "-p", "proj1",
                            "../hw1.c"}),
            0);
  // The copy landed one level above the submit dir.
  EXPECT_TRUE(w->kernel.peek("/home/ta/hw1.c").ok());
  EXPECT_FALSE(w->kernel.peek("/home/ta/submit/../hw1.c.orig").ok());
}

TEST(Turnin, HardenedRejectsDotDotName) {
  auto s = turnin_hardened_scenario();
  auto w = s.build();
  EXPECT_EQ(run_turnin(*w, {"turnin", "-c", "cs390", "-p", "proj1",
                            "../hw1.c"}),
            6);
  EXPECT_FALSE(w->kernel.peek("/home/ta/hw1.c").ok());
}

// --- campaign outcomes per interaction point ------------------------------

struct SiteExpectation {
  const char* tag;
  int injections;
  int violations;
};

// gtest names each test after the printed parameter: the tag's text, not
// the raw bytes of its pointer, keeps the names the same on every run.
void PrintTo(const SiteExpectation& e, std::ostream* os) {
  *os << e.tag << ": " << e.injections << " injections, " << e.violations
      << " violations";
}

class TurninSites : public ::testing::TestWithParam<SiteExpectation> {};

TEST_P(TurninSites, PerSiteInjectionAndViolationCounts) {
  const auto& e = GetParam();
  Campaign c(turnin_scenario());
  CampaignOptions opts;
  opts.only_sites = {e.tag};
  auto r = c.execute(opts);
  EXPECT_EQ(r.n(), e.injections) << core::render_report(r);
  EXPECT_EQ(r.violation_count(), e.violations) << core::render_report(r);
}

INSTANTIATE_TEST_SUITE_P(
    Section41, TurninSites,
    ::testing::Values(SiteExpectation{kTurninOpenConfig, 5, 2},
                      SiteExpectation{kTurninOpenProjlist, 6, 2},
                      SiteExpectation{kTurninGetenvPath, 5, 0},
                      SiteExpectation{kTurninArgCourse, 5, 0},
                      SiteExpectation{kTurninArgFile, 5, 1},
                      SiteExpectation{kTurninOpenSource, 5, 0},
                      SiteExpectation{kTurninCreateDest, 5, 4},
                      SiteExpectation{kTurninExecTar, 5, 0}),
    [](const auto& info) {
      std::string name = info.param.tag;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(TurninCampaign, ProjlistPermissionViolationIsConfidentiality) {
  auto s = turnin_scenario();
  core::SiteSpec one;
  one.faults = {"file-permission"};
  s.sites[kTurninOpenProjlist] = one;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {kTurninOpenProjlist};
  auto r = c.execute(opts);
  ASSERT_EQ(r.violation_count(), 1);
  EXPECT_EQ(r.injections[0].violations[0].policy,
            core::Policy::confidentiality);
}

TEST(TurninCampaign, ProjlistViolationsAreTaFeasible) {
  Campaign c(turnin_scenario());
  CampaignOptions opts;
  opts.only_sites = {kTurninOpenProjlist};
  auto r = c.execute(opts);
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    const core::InjectionOutcome& i = r.injections[id];
    if (!i.violated) continue;
    EXPECT_TRUE(i.exploit.nonroot_feasible) << r.fault_of(id).name();
    EXPECT_TRUE(ep::contains(i.exploit.actor, "ta")) << i.exploit.actor;
  }
}

TEST(TurninCampaign, ConfigViolationsAreRootOnly) {
  // turnin.cf lives in root-owned space: the assumption is reasonable.
  Campaign c(turnin_scenario());
  CampaignOptions opts;
  opts.only_sites = {kTurninOpenConfig};
  auto r = c.execute(opts);
  int violated = 0;
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    const core::InjectionOutcome& i = r.injections[id];
    if (!i.violated) continue;
    ++violated;
    EXPECT_FALSE(i.exploit.nonroot_feasible) << r.fault_of(id).name();
  }
  EXPECT_EQ(violated, 2);
}

TEST(TurninCampaign, ExecTarToleratedViaDescriptorPinning) {
  Campaign c(turnin_scenario());
  CampaignOptions opts;
  opts.only_sites = {kTurninExecTar};
  auto r = c.execute(opts);
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    EXPECT_FALSE(r.injections[id].violated)
        << r.fault_of(id).name() << "\n"
        << core::render_report(r);
}

TEST(TurninCampaign, HardenedStopsProjlistAndDestFaults) {
  Campaign c(turnin_hardened_scenario());
  CampaignOptions opts;
  opts.only_sites = {kTurninOpenProjlist, kTurninCreateDest, kTurninArgFile};
  auto r = c.execute(opts);
  EXPECT_EQ(r.violation_count(), 0) << core::render_report(r);
}

}  // namespace
}  // namespace ep::apps
