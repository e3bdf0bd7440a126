// Shared fixtures for the campaign-engine test suites (planner, executor,
// scheduler, search, integration): one toy setuid scenario exercising all
// three interaction-point kinds, the field-by-field CampaignResult
// identity check behind the "bit-identical for any worker count"
// criterion, and the in-process wave drain.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/work_source.hpp"
#include "os/world.hpp"

namespace ep::core {

inline const os::Site kToyReadCfg{"toy.c", 10, "toy-read-config"};
inline const os::Site kToyArg{"toy.c", 20, "toy-arg"};
inline const os::Site kToyWriteOut{"toy.c", 30, "toy-write-out"};

/// Read a config file, validate an argument, write an output file: one
/// input-bearing file read, one user input, one input-less file write.
inline int toy_main(os::Kernel& k, os::Pid pid) {
  auto fd = k.open(kToyReadCfg, pid, "/toy/config", os::OpenFlag::rd);
  if (!fd.ok()) return 1;
  auto cfg = k.read(kToyReadCfg, pid, fd.value());
  (void)k.close(pid, fd.value());
  if (!cfg.ok()) return 1;

  std::string name = k.arg(kToyArg, pid, 1);
  if (name.empty() || name.size() > 64) return 2;

  auto out = k.open(kToyWriteOut, pid, "/toy/out/" + name,
                    os::OpenFlag::wr | os::OpenFlag::creat, 0600);
  if (!out.ok()) return 3;
  (void)k.write(kToyWriteOut, pid, out.value(), cfg.value());
  (void)k.close(pid, out.value());
  return 0;
}

/// The toy scenario family: `hardened` locks the attacker out of /toy.
inline Scenario toy_scenario(const std::string& name = "toy",
                             bool hardened = false) {
  Scenario s;
  s.name = name;
  s.trace_unit_filter = "toy.c";
  s.snapshot_safe = true;  // engine tests exercise the cached path too
  s.build = [hardened] {
    auto w = std::make_unique<TargetWorld>();
    os::world::standard_unix(w->kernel);
    w->kernel.add_user(1000, "alice", 1000);
    w->kernel.add_user(666, "mallory", 666);
    os::world::mkdirs(w->kernel, "/tmp/attacker", 666, 666, 0755);
    os::world::put_file(w->kernel, "/toy/config", "setting=1\n",
                        os::kRootUid, 0, hardened ? 0600 : 0644);
    os::world::mkdirs(w->kernel, "/toy/out", os::kRootUid, 0,
                      hardened ? 0700 : 0755);
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

/// Field-by-field identity of two campaign results (the ISSUE's
/// "bit-identical ordering and scores" criterion).
inline void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.scenario_name, b.scenario_name);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i)
    EXPECT_EQ(a.points[i].site.tag, b.points[i].site.tag);
  EXPECT_EQ(a.perturbed_site_tags, b.perturbed_site_tags);
  EXPECT_EQ(a.benign_violations.size(), b.benign_violations.size());

  ASSERT_EQ(a.items.size(), a.injections.size());
  ASSERT_EQ(b.items.size(), b.injections.size());
  ASSERT_EQ(a.injections.size(), b.injections.size());
  for (std::size_t i = 0; i < a.injections.size(); ++i) {
    EXPECT_EQ(a.point_of(i).site, b.point_of(i).site) << "slot " << i;
    EXPECT_EQ(a.point_of(i).call, b.point_of(i).call) << "slot " << i;
    EXPECT_EQ(a.point_of(i).object, b.point_of(i).object) << "slot " << i;
    EXPECT_EQ(a.fault_of(i).kind, b.fault_of(i).kind) << "slot " << i;
    EXPECT_EQ(a.fault_of(i).name(), b.fault_of(i).name()) << "slot " << i;
    EXPECT_EQ(a.items[i].param, b.items[i].param) << "slot " << i;
    const InjectionOutcome& x = a.injections[i];
    const InjectionOutcome& y = b.injections[i];
    EXPECT_EQ(x.fired, y.fired) << "slot " << i;
    EXPECT_EQ(x.violated, y.violated) << "slot " << i;
    EXPECT_EQ(x.crashed, y.crashed) << "slot " << i;
    EXPECT_EQ(x.overflows, y.overflows) << "slot " << i;
    EXPECT_EQ(x.exit_code, y.exit_code) << "slot " << i;
    ASSERT_EQ(x.violations.size(), y.violations.size()) << "slot " << i;
    for (std::size_t v = 0; v < x.violations.size(); ++v) {
      EXPECT_EQ(x.violations[v].object, y.violations[v].object);
      EXPECT_EQ(x.violations[v].detail, y.violations[v].detail);
    }
    EXPECT_EQ(x.exploit.nonroot_feasible, y.exploit.nonroot_feasible);
    EXPECT_EQ(x.exploit.actor, y.exploit.actor);
    EXPECT_EQ(x.exploit.note, y.exploit.note);
  }
  EXPECT_DOUBLE_EQ(a.vulnerability_score(), b.vulnerability_score());
  EXPECT_DOUBLE_EQ(a.fault_coverage(), b.fault_coverage());
  EXPECT_DOUBLE_EQ(a.interaction_coverage(), b.interaction_coverage());
}

/// A WorkSource drained in-process through the one wave loop, one
/// run_lease per wave — what `epa_cli search` does without --workers.
inline CampaignResult drain_in_process(const Executor& executor,
                                       WorkSource& source,
                                       const ExecutorOptions& opts = {}) {
  return drain_waves(source, [&](std::size_t begin, std::size_t end,
                                 std::vector<ShardReport>& reports,
                                 std::vector<std::string>& labels) {
    reports.push_back(run_lease(executor, source.plan(), {begin, end}, opts));
    labels.push_back("wave " + std::to_string(labels.size() + 1));
  });
}

}  // namespace ep::core
