// Injector mechanics: direct faults fire before the interaction point,
// indirect faults rewrite the delivered input after it, and each plan
// fires exactly once at its target site.
#include "core/injector.hpp"

#include <gtest/gtest.h>

#include "os/world.hpp"

namespace ep::core {
namespace {

const os::Site kTarget{"app.c", 5, "target"};
const os::Site kOther{"app.c", 9, "other"};

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() {
    os::world::standard_unix(w.kernel);
    w.kernel.add_user(666, "mallory", 666);
    os::world::mkdirs(w.kernel, "/tmp/attacker", 666, 666, 0755);
    os::world::put_file(w.kernel, "/data/in.txt", "payload", os::kRootUid,
                        os::kRootGid, 0644);
    pid = w.kernel.make_process(1000, 1000, "/");
  }

  FaultRef direct_ref(const char* name) {
    FaultRef r;
    r.kind = FaultKind::direct;
    r.direct = FaultCatalog::standard().find_direct(name);
    EXPECT_NE(r.direct, nullptr);
    return r;
  }
  FaultRef indirect_ref(const char* name) {
    FaultRef r;
    r.kind = FaultKind::indirect;
    r.indirect = FaultCatalog::standard().find_indirect(name);
    EXPECT_NE(r.indirect, nullptr);
    return r;
  }

  TargetWorld w;
  /// The injector borrows its hints, so they live as long as the fixture.
  const ScenarioHints hints;
  os::Pid pid = -1;
};

TEST_F(InjectorTest, DirectFaultFiresBeforeCall) {
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        direct_ref("file-existence"),
                                        hints);
  w.kernel.add_interposer(inj);
  // The open at the target site meets the already-perturbed environment:
  // the file was deleted before resolution.
  auto fd = w.kernel.open(kTarget, pid, "/data/in.txt", os::OpenFlag::rd);
  EXPECT_EQ(fd.error(), Err::noent);
  EXPECT_TRUE(inj->fired());
}

TEST_F(InjectorTest, DirectFaultIgnoresOtherSites) {
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        direct_ref("file-existence"),
                                        hints);
  w.kernel.add_interposer(inj);
  auto fd = w.kernel.open(kOther, pid, "/data/in.txt", os::OpenFlag::rd);
  EXPECT_TRUE(fd.ok());
  EXPECT_FALSE(inj->fired());
}

TEST_F(InjectorTest, DirectFaultFiresOnlyOnce) {
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        direct_ref("file-existence"),
                                        hints);
  w.kernel.add_interposer(inj);
  EXPECT_EQ(w.kernel.open(kTarget, pid, "/data/in.txt", os::OpenFlag::rd)
                .error(),
            Err::noent);
  // Re-plant the file; a second visit to the site must NOT delete it.
  os::world::put_file(w.kernel, "/data/in.txt", "payload2", os::kRootUid,
                      os::kRootGid, 0644);
  EXPECT_TRUE(
      w.kernel.open(kTarget, pid, "/data/in.txt", os::OpenFlag::rd).ok());
}

TEST_F(InjectorTest, IndirectFaultRewritesInputAfterCall) {
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        indirect_ref("change-length"),
                                        hints);
  w.kernel.add_interposer(inj);
  w.kernel.proc(pid).args = {"prog", "file.txt"};
  std::string got = w.kernel.arg(kTarget, pid, 1);
  EXPECT_EQ(got.size(), ScenarioHints{}.long_length);
  EXPECT_TRUE(inj->fired());
  EXPECT_EQ(inj->original_input(), "file.txt");
  EXPECT_EQ(inj->injected_input(), got);
}

TEST_F(InjectorTest, IndirectFaultFiresOnlyOnFirstVisit) {
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        indirect_ref("insert-dotdot"),
                                        hints);
  w.kernel.add_interposer(inj);
  w.kernel.proc(pid).args = {"prog", "a", "b"};
  EXPECT_EQ(w.kernel.arg(kTarget, pid, 1), "../a");
  EXPECT_EQ(w.kernel.arg(kTarget, pid, 2), "b");  // second visit untouched
}

TEST_F(InjectorTest, IndirectFaultNoopOnInputlessCall) {
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        indirect_ref("change-length"),
                                        hints);
  w.kernel.add_interposer(inj);
  auto fd = w.kernel.open(kTarget, pid, "/data/in.txt", os::OpenFlag::rd);
  EXPECT_TRUE(fd.ok());
  EXPECT_FALSE(inj->fired());  // open delivers no input; read would
}

TEST_F(InjectorTest, IndirectFaultOnFileRead) {
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        indirect_ref("fsin-use-absolute-path"),
                                        hints);
  w.kernel.add_interposer(inj);
  auto fd = w.kernel.open(kOther, pid, "/data/in.txt", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  auto data = w.kernel.read(kTarget, pid, fd.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), ScenarioHints{}.symlink_victim);
  // The file content itself is unchanged (the fault is in the delivery).
  EXPECT_EQ(w.kernel.peek("/data/in.txt").value(), "payload");
}

TEST_F(InjectorTest, GetenvMaterializationFault) {
  // Injecting into an *unset* variable models the "initialization the
  // programmer never sees" case: the variable suddenly exists.
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        indirect_ref("path-insert-untrusted"),
                                        hints);
  w.kernel.add_interposer(inj);
  auto v = w.kernel.getenv(kTarget, pid, "PATH");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), ScenarioHints{}.attacker_dir);
}

TEST_F(InjectorTest, DirectSymlinkThenOpenFollowsToVictim) {
  auto inj = std::make_shared<Injector>(w, kTarget,
                                        direct_ref("symbolic-link"), hints);
  w.kernel.add_interposer(inj);
  // Read-only open: injector points the object at the secret victim and
  // the open, with root effective uid, lands there.
  os::Pid suid = w.kernel.make_process(1000, 1000, "/");
  w.kernel.proc(suid).euid = os::kRootUid;
  auto fd = w.kernel.open(kTarget, suid, "/data/in.txt", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  auto data = w.kernel.read(kOther, suid, fd.value());
  EXPECT_EQ(data.value(), os::world::kShadowContent);
}

}  // namespace
}  // namespace ep::core
