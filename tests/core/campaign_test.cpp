// Campaign engine tests against a small synthetic scenario.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "os/world.hpp"

namespace ep::core {
namespace {

const os::Site kReadCfg{"toy.c", 10, "toy-read-config"};
const os::Site kArg{"toy.c", 20, "toy-arg"};
const os::Site kWriteOut{"toy.c", 30, "toy-write-out"};

/// A toy set-uid program with three interaction points: reads a config,
/// takes a file-name argument, writes an output file derived from it.
int toy_main(os::Kernel& k, os::Pid pid) {
  auto fd = k.open(kReadCfg, pid, "/toy/config", os::OpenFlag::rd);
  if (!fd.ok()) return 1;
  auto cfg = k.read(kReadCfg, pid, fd.value());
  (void)k.close(pid, fd.value());
  if (!cfg.ok()) return 1;

  std::string name = k.arg(kArg, pid, 1);
  if (name.empty() || name.size() > 64) return 2;

  auto out = k.open(kWriteOut, pid, "/toy/out/" + name,
                    os::OpenFlag::wr | os::OpenFlag::creat, 0600);
  if (!out.ok()) return 3;
  (void)k.write(kWriteOut, pid, out.value(), cfg.value());
  (void)k.close(pid, out.value());
  return 0;
}

Scenario toy_scenario() {
  Scenario s;
  s.name = "toy";
  s.trace_unit_filter = "toy.c";
  s.build = [] {
    auto w = std::make_unique<TargetWorld>();
    os::world::standard_unix(w->kernel);
    w->kernel.add_user(1000, "alice", 1000);
    w->kernel.add_user(666, "mallory", 666);
    os::world::mkdirs(w->kernel, "/tmp/attacker", 666, 666, 0755);
    os::world::put_file(w->kernel, "/toy/config", "setting=1\n",
                        os::kRootUid, 0, 0644);
    os::world::mkdirs(w->kernel, "/toy/out", os::kRootUid, 0, 0755);
    w->kernel.register_image("toy", toy_main);
    os::world::put_program(w->kernel, "/usr/bin/toy", "toy", os::kRootUid, 0,
                           0755 | os::kSetUidBit);
    return w;
  };
  s.run = [](TargetWorld& w) {
    auto r = w.kernel.spawn("/usr/bin/toy", {"toy", "result.txt"}, 1000,
                            1000, {}, "/");
    return r.ok() ? r.value() : 255;
  };
  s.policy.write_sanction_roots = {"/toy/out"};
  s.policy.secret_files = {"/etc/shadow"};
  s.hints.attacker_uid = 666;
  s.hints.attacker_gid = 666;
  return s;
}

TEST(Campaign, DiscoversAllInteractionPoints) {
  Campaign c(toy_scenario());
  auto r = c.execute();
  ASSERT_EQ(r.points.size(), 3u);
  EXPECT_EQ(r.points[0].site.tag, "toy-read-config");
  EXPECT_EQ(r.points[1].site.tag, "toy-arg");
  EXPECT_EQ(r.points[2].site.tag, "toy-write-out");
  EXPECT_TRUE(r.benign_violations.empty());
}

TEST(Campaign, DefaultPlansFollowStep3) {
  // Input-bearing sites get both kinds; input-less sites direct only.
  Campaign c(toy_scenario());
  auto r = c.execute();
  int cfg_direct = 0, cfg_indirect = 0, write_indirect = 0, arg_direct = 0;
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    const std::string& tag = r.point_of(id).site.tag;
    const FaultKind kind = r.fault_of(id).kind;
    if (tag == "toy-read-config") {
      (kind == FaultKind::direct ? cfg_direct : cfg_indirect)++;
    }
    if (tag == "toy-write-out" && kind == FaultKind::indirect) ++write_indirect;
    if (tag == "toy-arg" && kind == FaultKind::direct) ++arg_direct;
  }
  EXPECT_EQ(cfg_direct, 7);    // full file-system attribute list
  EXPECT_GT(cfg_indirect, 0);  // reads deliver input
  EXPECT_EQ(write_indirect, 0);  // writes deliver none
  EXPECT_EQ(arg_direct, 0);      // argv has no environment entity
}

TEST(Campaign, CountsAreConsistent) {
  Campaign c(toy_scenario());
  auto r = c.execute();
  EXPECT_EQ(r.n(), static_cast<int>(r.injections.size()));
  EXPECT_EQ(r.tolerated_count() + r.violation_count(), r.n());
  EXPECT_DOUBLE_EQ(r.fault_coverage() + r.vulnerability_score(), 1.0);
  EXPECT_DOUBLE_EQ(r.interaction_coverage(), 1.0);
}

TEST(Campaign, FindsTheToyProgramsFlaws) {
  Campaign c(toy_scenario());
  auto r = c.execute();
  // The toy program writes config content to a fresh file in a sanctioned
  // dir, but never validates ../ in the name and blindly creats: the
  // symlink and dotdot faults must be among the violations.
  std::set<std::string> violated;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (r.injections[id].violated)
      violated.insert(r.point_of(id).site.tag + "/" + r.fault_of(id).name());
  EXPECT_TRUE(violated.count("toy-write-out/symbolic-link"));
  EXPECT_TRUE(violated.count("toy-arg/insert-dotdot"));
}

TEST(Campaign, OnlySitesRestrictsPerturbation) {
  Campaign c(toy_scenario());
  CampaignOptions opts;
  opts.only_sites = {"toy-arg"};
  auto r = c.execute(opts);
  EXPECT_EQ(r.points.size(), 3u);  // discovery unaffected
  EXPECT_EQ(r.perturbed_site_tags.size(), 1u);
  EXPECT_NEAR(r.interaction_coverage(), 1.0 / 3.0, 1e-9);
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    EXPECT_EQ(r.point_of(id).site.tag, "toy-arg");
}

TEST(Campaign, TargetCoverageSamplesSites) {
  Campaign c(toy_scenario());
  CampaignOptions opts;
  opts.target_interaction_coverage = 0.34;
  opts.seed = 7;
  auto r = c.execute(opts);
  EXPECT_EQ(r.perturbed_site_tags.size(), 1u);
}

TEST(Campaign, SamplingIsDeterministicPerSeed) {
  CampaignOptions opts;
  opts.target_interaction_coverage = 0.67;
  opts.seed = 3;
  auto r1 = Campaign(toy_scenario()).execute(opts);
  auto r2 = Campaign(toy_scenario()).execute(opts);
  EXPECT_EQ(r1.perturbed_site_tags, r2.perturbed_site_tags);
  EXPECT_EQ(r1.n(), r2.n());
  EXPECT_EQ(r1.violation_count(), r2.violation_count());
}

TEST(Campaign, FullRunIsDeterministic) {
  auto r1 = Campaign(toy_scenario()).execute();
  auto r2 = Campaign(toy_scenario()).execute();
  ASSERT_EQ(r1.n(), r2.n());
  for (int i = 0; i < r1.n(); ++i) {
    EXPECT_EQ(r1.fault_of(i).name(), r2.fault_of(i).name());
    EXPECT_EQ(r1.injections[i].violated, r2.injections[i].violated);
  }
}

TEST(Campaign, ExplicitFaultListOverridesDefaults) {
  Scenario s = toy_scenario();
  SiteSpec spec;
  spec.faults = {"file-existence", "symbolic-link"};
  s.sites["toy-read-config"] = spec;
  Campaign c(std::move(s));
  CampaignOptions opts;
  opts.only_sites = {"toy-read-config"};
  auto r = c.execute(opts);
  EXPECT_EQ(r.n(), 2);
}

TEST(Campaign, UnknownFaultNameThrows) {
  Scenario s = toy_scenario();
  SiteSpec spec;
  spec.faults = {"not-a-fault"};
  s.sites["toy-read-config"] = spec;
  Campaign c(std::move(s));
  EXPECT_THROW(c.execute(), std::logic_error);
}

TEST(Campaign, SkippedSiteNotPerturbedButCounted) {
  Scenario s = toy_scenario();
  SiteSpec spec;
  spec.skip = true;
  s.sites["toy-read-config"] = spec;
  Campaign c(std::move(s));
  auto r = c.execute();
  EXPECT_EQ(r.points.size(), 3u);
  EXPECT_EQ(r.perturbed_site_tags.count("toy-read-config"), 0u);
  EXPECT_NEAR(r.interaction_coverage(), 2.0 / 3.0, 1e-9);
}

TEST(Campaign, MissingBuildOrRunRejected) {
  Scenario s;
  s.name = "broken";
  EXPECT_THROW(Campaign{std::move(s)}, std::logic_error);
}

TEST(Campaign, ExploitabilityFilledOnlyForViolations) {
  Campaign c(toy_scenario());
  auto r = c.execute();
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    if (r.injections[id].violated) {
      EXPECT_FALSE(r.injections[id].exploit.actor.empty())
          << r.point_of(id).site.tag << "/" << r.fault_of(id).name();
    }
  }
}

TEST(Campaign, ExploitabilityJudgesActors) {
  Campaign c(toy_scenario());
  auto r = c.execute();
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    const InjectionOutcome& i = r.injections[id];
    const std::string& fault = r.fault_of(id).name();
    if (!i.violated) continue;
    if (fault == "insert-dotdot") {
      // argv is the invoker's to control.
      EXPECT_TRUE(i.exploit.nonroot_feasible);
      EXPECT_EQ(i.exploit.actor, "invoking user");
    }
    if (fault == "symbolic-link" &&
        r.point_of(id).site.tag == "toy-read-config") {
      // /toy is root 0755: nobody unprivileged can plant a link there.
      EXPECT_FALSE(i.exploit.nonroot_feasible);
    }
  }
}

TEST(Campaign, ExploitableNamesTheIdsOfFeasibleViolations) {
  // exploitable() returns plan ids, ascending; point_of/fault_of name them.
  auto r = Campaign(toy_scenario()).execute();
  std::vector<std::size_t> expected;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (r.injections[id].violated && r.injections[id].exploit.nonroot_feasible)
      expected.push_back(id);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(r.exploitable(), expected);
  std::set<std::string> named;
  for (std::size_t id : r.exploitable())
    named.insert(r.point_of(id).site.tag + "/" + r.fault_of(id).name());
  EXPECT_TRUE(named.count("toy-arg/insert-dotdot"));
}

}  // namespace
}  // namespace ep::core
