// Redzone memory-oracle battery: token poison helpers, and off-by-N
// overruns past each guarded storage type (app fixed buffers, Vfs file
// content, registry values) must surface as redzone_corruption at the
// right site — while the defensive paths never trip the guard and the
// self-reporting overflow path still crashes the old way.
#include "os/redzone.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "apps/fixed_buffer.hpp"
#include "core/oracle.hpp"
#include "os/kernel.hpp"
#include "os/world.hpp"
#include "reg/registry.hpp"

namespace ep {
namespace {

const os::Site kBuf{"redzone_test.c", 10, "buffer-site"};
const os::Site kRead{"redzone_test.c", 20, "read-site"};
const os::Site kRegSite{"redzone_test.c", 30, "reg-site"};

/// A fresh guard's bytes as a string, for the checks that clobber or
/// resize a zone.
std::string poison() {
  const os::redzone::Guard guard;
  return std::string(guard.begin(), guard.end());
}

// --- poison-token unit checks (no kernel involved) ----------------------

TEST(RedzoneUnit, FreshPoisonIsIntact) {
  const os::redzone::Guard z;
  EXPECT_EQ(z.size(), os::redzone::kSize);
  EXPECT_TRUE(os::redzone::intact(z));
  EXPECT_EQ(os::redzone::first_clobbered(z), os::redzone::kSize);
  EXPECT_EQ(os::redzone::clobbered_prefix(z), 0u);
  // The token repeats every 4 bytes: DE AD C0 DE.
  EXPECT_EQ(z[0], '\xDE');
  EXPECT_EQ(z[1], '\xAD');
  EXPECT_EQ(z[2], '\xC0');
  EXPECT_EQ(z[3], '\xDE');
  EXPECT_EQ(z[4], '\xDE');
}

TEST(RedzoneUnit, LeadingClobberIsCountedExactly) {
  for (std::size_t n : {1u, 2u, 8u, 16u}) {
    std::string z = poison();
    z.replace(0, n, std::string(n, '!'));
    EXPECT_FALSE(os::redzone::intact(z));
    EXPECT_EQ(os::redzone::first_clobbered(z), 0u);
    EXPECT_EQ(os::redzone::clobbered_prefix(z), n) << "overrun of " << n;
  }
}

TEST(RedzoneUnit, InteriorClobberIsStillCorruption) {
  std::string z = poison();
  z[7] = 'x';
  EXPECT_FALSE(os::redzone::intact(z));
  EXPECT_EQ(os::redzone::first_clobbered(z), 7u);
  // No *leading* clobber, but the zone is damaged all the same; the
  // report falls back to the generic detail in this case.
  EXPECT_EQ(os::redzone::clobbered_prefix(z), 0u);
}

TEST(RedzoneUnit, ResizedZoneIsCorruption) {
  std::string z = poison();
  z.pop_back();
  EXPECT_FALSE(os::redzone::intact(z));
  z = poison() + '\xDE';
  EXPECT_FALSE(os::redzone::intact(z));
}

TEST(RedzoneUnit, SameByteMemsetCannotMasqueradeAsPoison) {
  // A single-byte fill of the whole region must not look intact — that is
  // why the token is a repeating 4-byte pattern.
  EXPECT_FALSE(os::redzone::intact(std::string(os::redzone::kSize, '\xDE')));
  EXPECT_FALSE(os::redzone::intact(std::string(os::redzone::kSize, '\x00')));
}

// --- kernel-integrated battery ------------------------------------------

class RedzoneTest : public ::testing::Test {
 protected:
  RedzoneTest() {
    os::world::standard_unix(k);
    k.add_user(1000, "alice", 1000);
    // Set-uid-style process: root effective, alice real (the privileged
    // target the paper's oracle watches). Redzone reports do not require
    // privilege, but the overflow/memory-safety contrast test does.
    suid = k.make_process(1000, 1000, "/");
    k.proc(suid).euid = os::kRootUid;
    oracle = std::make_shared<core::SecurityOracle>(core::PolicySpec{});
    k.add_interposer(oracle);
  }

  /// The single redzone violation the oracle should now hold.
  const core::Violation& only_redzone() {
    EXPECT_EQ(oracle->redzone_count(), 1);
    EXPECT_FALSE(oracle->violations().empty());
    const core::Violation& v = oracle->violations().back();
    EXPECT_EQ(v.policy, core::Policy::redzone_corruption);
    return v;
  }

  os::Kernel k;
  os::Pid suid = -1;
  std::shared_ptr<core::SecurityOracle> oracle;
};

/// Off-by-N parameterization: one byte, a couple, half a guard, and a
/// whole capacity's worth (clamped to the guard width on detection).
class RedzoneOffByN : public RedzoneTest,
                      public ::testing::WithParamInterface<std::size_t> {
 protected:
  /// Bytes of poison the oracle can actually see clobbered.
  std::size_t visible() const {
    return std::min<std::size_t>(GetParam(), os::redzone::kSize);
  }
};

INSTANTIATE_TEST_SUITE_P(OverrunWidths, RedzoneOffByN,
                         ::testing::Values<std::size_t>(1, 2, 8, 16));

TEST_P(RedzoneOffByN, WildCopyPastFixedBufferReportsAtBufferSite) {
  const std::size_t n = GetParam();
  {
    apps::FixedBuffer buf(k, suid, kBuf, 16);
    buf.copy_wild(std::string(16 + n, 'A'));
    // The wild copy is silent — no self-report, no crash. Detection is
    // deferred to the buffer's destruction.
    EXPECT_FALSE(oracle->violated());
    EXPECT_EQ(buf.str().size(), 16u);
  }
  const core::Violation& v = only_redzone();
  EXPECT_EQ(v.site, kBuf);
  EXPECT_EQ(v.object, "buffer at " + kBuf.str());
  EXPECT_NE(v.detail.find(std::to_string(visible()) + " byte(s)"),
            std::string::npos)
      << v.detail;
}

TEST_P(RedzoneOffByN, OverrunPastVfsContentReportsAtNextRead) {
  os::Ino ino = os::world::put_file(k, "/etc/banner.conf", "hello",
                                    os::kRootUid, 0, 0644);
  k.vfs().wild_write(ino, GetParam());
  EXPECT_FALSE(oracle->violated());  // injection itself is silent

  auto fd = k.open(kRead, suid, "/etc/banner.conf", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  auto data = k.read(kRead, suid, fd.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello");  // content is unharmed; the guard took it

  const core::Violation& v = only_redzone();
  EXPECT_EQ(v.site, kRead);  // detected at the syscall that touched it
  EXPECT_EQ(v.object, "/etc/banner.conf");
  EXPECT_NE(v.detail.find(std::to_string(visible()) + " byte(s)"),
            std::string::npos)
      << v.detail;
}

TEST_P(RedzoneOffByN, OverrunPastVfsContentIsCaughtByTeardownSweep) {
  os::Ino ino = os::world::put_file(k, "/etc/banner.conf", "hello",
                                    os::kRootUid, 0, 0644);
  k.vfs().wild_write(ino, GetParam());
  // Nothing reads the file again; the end-of-run sweep must still see it.
  k.validate_redzones();
  const core::Violation& v = only_redzone();
  EXPECT_EQ(v.site, (os::Site{"kernel", 0, "redzone-teardown"}));
  EXPECT_EQ(v.object, "/etc/banner.conf");
}

TEST_P(RedzoneOffByN, OverrunPastRegistryValueReportsAtReadValue) {
  reg::Registry r;
  k.attach_substrates(nullptr, &r);
  reg::Key key;
  key.path = "HKLM/Software/FontPath";
  key.value = "C:/Fonts";
  r.define_key(key);
  r.wild_write("HKLM/Software/FontPath", GetParam());
  EXPECT_FALSE(oracle->violated());

  auto got = r.read_value(k, kRegSite, suid, "HKLM/Software/FontPath");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "C:/Fonts");

  const core::Violation& v = only_redzone();
  EXPECT_EQ(v.site, kRegSite);
  EXPECT_EQ(v.object, "HKLM/Software/FontPath");
  EXPECT_NE(v.detail.find(std::to_string(visible()) + " byte(s)"),
            std::string::npos)
      << v.detail;
}

TEST_P(RedzoneOffByN, OverrunPastRegistryValueIsCaughtByTeardownSweep) {
  reg::Registry r;
  k.attach_substrates(nullptr, &r);
  reg::Key key;
  key.path = "HKLM/Software/FontPath";
  key.value = "C:/Fonts";
  r.define_key(key);
  r.wild_write("HKLM/Software/FontPath", GetParam());
  r.validate_redzones(k);
  const core::Violation& v = only_redzone();
  EXPECT_EQ(v.site, (os::Site{"registry", 0, "redzone-teardown"}));
  EXPECT_EQ(v.object, "HKLM/Software/FontPath");
}

// --- contrast cases: the other copy paths keep their semantics ----------

TEST_F(RedzoneTest, UncheckedCopyStillSelfReportsAndCrashes) {
  auto smash = [&] {
    apps::FixedBuffer buf(k, suid, kBuf, 16);
    buf.copy_unchecked(std::string(32, 'A'));
  };
  EXPECT_THROW(smash(), os::AppCrash);
  // The classic path is unchanged: a buffer_overflow app fault (the
  // memory-safety policy for a privileged process), not a redzone report
  // — copy_unchecked truncates, it does not spill past the guard.
  EXPECT_EQ(oracle->overflow_count(), 1);
  EXPECT_EQ(oracle->redzone_count(), 0);
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, core::Policy::memory_safety);
}

TEST_F(RedzoneTest, WildCopyThenCrashStillReportsDuringUnwinding) {
  auto run = [&] {
    apps::FixedBuffer buf(k, suid, kBuf, 16);
    buf.copy_wild(std::string(17, 'A'));   // silent corruption first
    buf.copy_unchecked(std::string(32, 'B'));  // then the crash
  };
  EXPECT_THROW(run(), os::AppCrash);
  // The destructor runs while the AppCrash unwinds, so the crashing run
  // still yields its corruption report.
  EXPECT_EQ(oracle->redzone_count(), 1);
  EXPECT_EQ(oracle->overflow_count(), 1);
}

TEST_F(RedzoneTest, CheckedCopyNeverTouchesTheGuard) {
  {
    apps::FixedBuffer buf(k, suid, kBuf, 16);
    EXPECT_FALSE(buf.copy_checked(std::string(64, 'A')));  // refused
    EXPECT_TRUE(buf.copy_checked("fits"));
    EXPECT_EQ(buf.str(), "fits");
  }
  k.validate_redzones();
  EXPECT_FALSE(oracle->violated());
  EXPECT_EQ(oracle->redzone_count(), 0);
}

TEST_F(RedzoneTest, LiveBufferIsSweptAtTeardown) {
  // A buffer still alive when the run tears down (leak / longjmp-style
  // exit) is caught by validate_redzones instead of its destructor, at
  // its own registration site.
  apps::FixedBuffer buf(k, suid, kBuf, 16);
  buf.copy_wild(std::string(20, 'A'));
  k.validate_redzones();
  const core::Violation& v = only_redzone();
  EXPECT_EQ(v.site, kBuf);
}

// --- report plumbing ----------------------------------------------------

TEST_F(RedzoneTest, CorruptionIsReportedOncePerObjectPerRun) {
  os::Ino ino = os::world::put_file(k, "/etc/banner.conf", "hello",
                                    os::kRootUid, 0, 0644);
  k.vfs().wild_write(ino, 4);
  auto fd = k.open(kRead, suid, "/etc/banner.conf", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.read(kRead, suid, fd.value()).ok());
  ASSERT_TRUE(k.read(kRead, suid, fd.value()).ok());  // re-read: no new report
  k.validate_redzones();  // teardown sweep: still the same object
  EXPECT_EQ(oracle->redzone_count(), 1);
}

TEST_F(RedzoneTest, DistinctObjectsReportDistinctly) {
  os::Ino a = os::world::put_file(k, "/etc/a.conf", "a", os::kRootUid, 0,
                                  0644);
  os::Ino b = os::world::put_file(k, "/etc/b.conf", "b", os::kRootUid, 0,
                                  0644);
  k.vfs().wild_write(a, 1);
  k.vfs().wild_write(b, 2);
  k.validate_redzones();
  EXPECT_EQ(oracle->redzone_count(), 2);
  EXPECT_EQ(oracle->violations()[0].object, "/etc/a.conf");
  EXPECT_EQ(oracle->violations()[1].object, "/etc/b.conf");
}

TEST_F(RedzoneTest, AuditOffSilencesEveryDetectionPoint) {
  k.set_redzone_audit(false);
  reg::Registry r;
  k.attach_substrates(nullptr, &r);
  reg::Key key;
  key.path = "HKLM/Software/FontPath";
  key.value = "v";
  r.define_key(key);

  os::Ino ino = os::world::put_file(k, "/etc/banner.conf", "hello",
                                    os::kRootUid, 0, 0644);
  k.vfs().wild_write(ino, 4);
  r.wild_write("HKLM/Software/FontPath", 4);
  {
    apps::FixedBuffer buf(k, suid, kBuf, 16);
    buf.copy_wild(std::string(32, 'A'));
  }
  auto fd = k.open(kRead, suid, "/etc/banner.conf", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.read(kRead, suid, fd.value()).ok());
  ASSERT_TRUE(r.read_value(k, kRegSite, suid, "HKLM/Software/FontPath").ok());
  k.validate_redzones();
  r.validate_redzones(k);

  EXPECT_FALSE(oracle->violated());
  EXPECT_EQ(oracle->redzone_count(), 0);
}

TEST_F(RedzoneTest, CloneCorruptionStaysPrivateToTheClone) {
  os::Ino ino = os::world::put_file(k, "/etc/banner.conf", "hello",
                                    os::kRootUid, 0, 0644);
  // Snapshot shares inodes copy-on-write; wild_write goes through
  // mutate(), so corrupting the clone must unshare first.
  os::Kernel snap = k;  // interposer chain deliberately not copied
  snap.vfs().wild_write(ino, 4);

  // Prototype guards are untouched.
  k.validate_redzones();
  EXPECT_EQ(oracle->redzone_count(), 0);
  EXPECT_FALSE(oracle->violated());

  // The clone reports through its own (fresh) hook chain.
  auto clone_oracle =
      std::make_shared<core::SecurityOracle>(core::PolicySpec{});
  snap.add_interposer(clone_oracle);
  snap.validate_redzones();
  EXPECT_EQ(clone_oracle->redzone_count(), 1);
  EXPECT_EQ(clone_oracle->violations()[0].object, "/etc/banner.conf");
}

}  // namespace
}  // namespace ep
