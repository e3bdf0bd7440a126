// journald: the permission-mask fault (Table 5, environment variable).
#include "apps/journald.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "util/strings.hpp"

namespace ep::apps {
namespace {

using core::Campaign;
using core::CampaignOptions;

TEST(Journald, BenignJournalIsGroupOtherReadOnly) {
  auto s = journald_scenario();
  auto w = s.build();
  EXPECT_EQ(s.run(*w), 0);
  auto r = w->kernel.vfs().resolve(kJournaldPath, "/", os::kRootUid, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(w->kernel.vfs().inode(r.value()).mode & 0777, 0644u);
}

TEST(Journald, BenignRunHasNoViolations) {
  Campaign c(journald_scenario());
  auto r = c.execute();
  EXPECT_TRUE(r.benign_violations.empty()) << core::render_report(r);
}

TEST(Journald, MaskSemanticInferredFromVariableName) {
  Campaign c(journald_scenario());
  auto r = c.execute();
  bool found = false;
  for (const auto& p : r.points)
    if (p.site.tag == kJournaldGetMask) {
      found = true;
      EXPECT_EQ(p.semantic, core::InputSemantic::permission_mask);
    }
  EXPECT_TRUE(found);
}

TEST(Journald, MaskZeroFaultYieldsWorldWritableJournal) {
  Campaign c(journald_scenario());
  CampaignOptions opts;
  opts.only_sites = {kJournaldGetMask};
  auto r = c.execute(opts);
  ASSERT_EQ(r.n(), 1);  // the mask row has exactly one injection
  EXPECT_EQ(r.fault_of(0).name(), "mask-zero");
  ASSERT_TRUE(r.injections[0].violated) << core::render_report(r);
  EXPECT_EQ(r.injections[0].violations[0].policy, core::Policy::integrity);
  EXPECT_TRUE(ep::contains(r.injections[0].violations[0].detail,
                           "world-writable"));
}

TEST(Journald, MaskFaultIsInvokerFeasible) {
  Campaign c(journald_scenario());
  CampaignOptions opts;
  opts.only_sites = {kJournaldGetMask};
  auto r = c.execute(opts);
  ASSERT_TRUE(r.injections[0].violated);
  EXPECT_TRUE(r.injections[0].exploit.nonroot_feasible);
  EXPECT_EQ(r.injections[0].exploit.actor, "invoking user");
}

TEST(Journald, ManualMaskZeroReplay) {
  auto s = journald_scenario();
  auto w = s.build();
  auto r = w->kernel.spawn("/usr/sbin/journald", {"journald"}, 1000, 1000,
                           {{"UMASK", "0"}}, "/home");
  ASSERT_TRUE(r.ok());
  auto ino = w->kernel.vfs().resolve(kJournaldPath, "/", os::kRootUid, 0);
  ASSERT_TRUE(ino.ok());
  // Mask 0 left the journal writable by everyone: mallory can now forge
  // audit entries.
  EXPECT_TRUE(w->kernel.uid_can(666, 666, kJournaldPath, os::Perm::write));
}

TEST(Journald, GarbageMaskFallsBack) {
  auto s = journald_scenario();
  auto w = s.build();
  auto r = w->kernel.spawn("/usr/sbin/journald", {"journald"}, 1000, 1000,
                           {{"UMASK", "not-octal"}}, "/home");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(w->kernel.uid_can(666, 666, kJournaldPath, os::Perm::write));
}

}  // namespace
}  // namespace ep::apps
