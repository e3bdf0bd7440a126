// Security-oracle policy tests: each policy must fire on its violating
// pattern and stay silent on the matching benign pattern.
#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "os/redzone.hpp"
#include "os/world.hpp"

namespace ep::core {
namespace {

const os::Site kS{"oracle_test.c", 1, "site"};

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() {
    os::world::standard_unix(k);
    k.add_user(1000, "alice", 1000);
    k.add_user(666, "mallory", 666);
    os::world::mkdirs(k, "/var/spool/lpd");
    // Set-uid-style process: root effective, alice real.
    suid = k.make_process(1000, 1000, "/");
    k.proc(suid).euid = os::kRootUid;
    plain = k.make_process(1000, 1000, "/");
  }

  std::shared_ptr<SecurityOracle> attach(PolicySpec spec = {}) {
    if (spec.write_sanction_roots.empty())
      spec.write_sanction_roots = {"/var/spool/lpd"};
    if (spec.secret_files.empty()) spec.secret_files = {"/etc/shadow"};
    auto oracle = std::make_shared<SecurityOracle>(std::move(spec));
    k.add_interposer(oracle);
    return oracle;
  }

  os::Kernel k;
  os::Pid suid = -1;
  os::Pid plain = -1;
};

TEST_F(OracleTest, SanctionedFreshCreationIsClean) {
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/var/spool/lpd/job1",
                   os::OpenFlag::wr | os::OpenFlag::creat, 0600);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.write(kS, suid, fd.value(), "data").ok());
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, PreexistingUnwritableOpenForWriteViolates) {
  os::world::put_file(k, "/var/spool/lpd/job1", "theirs", os::kRootUid, 0,
                      0600);
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/var/spool/lpd/job1",
                   os::OpenFlag::wr | os::OpenFlag::creat, 0600);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::integrity);
}

TEST_F(OracleTest, PreexistingButRuidWritableIsClean) {
  os::world::put_file(k, "/var/spool/lpd/job1", "mine", 1000, 1000, 0644);
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/var/spool/lpd/job1", os::OpenFlag::wr);
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, CreationOutsideSanctionInProtectedDirViolates) {
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/etc/dropped",
                   os::OpenFlag::wr | os::OpenFlag::creat, 0600);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::integrity);
}

TEST_F(OracleTest, CreationInRuidWritableDirIsClean) {
  auto oracle = attach();
  // /tmp is world-writable: alice could have done this herself.
  auto fd = k.open(kS, suid, "/tmp/scratch",
                   os::OpenFlag::wr | os::OpenFlag::creat, 0600);
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, OwnCreationMayBeWrittenFreely) {
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/var/spool/lpd/own",
                   os::OpenFlag::wr | os::OpenFlag::creat, 0600);
  ASSERT_TRUE(fd.ok());
  // The created file is root-owned 0600 (alice can't write it), but this
  // run created it, so writing it is not a violation.
  ASSERT_TRUE(k.write(kS, suid, fd.value(), "x").ok());
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, UnlinkOfUnwritableObjectViolates) {
  os::world::put_file(k, "/etc/critical", "x", os::kRootUid, 0, 0600);
  auto oracle = attach();
  ASSERT_TRUE(k.unlink(kS, suid, "/etc/critical").ok());
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::integrity);
}

TEST_F(OracleTest, ChmodChownOfUnwritableObjectViolates) {
  os::world::put_file(k, "/etc/critical", "x", os::kRootUid, 0, 0600);
  auto oracle = attach();
  ASSERT_TRUE(k.chmod(kS, suid, "/etc/critical", 0666).ok());
  EXPECT_TRUE(oracle->violated());
}

TEST_F(OracleTest, SecretReadThenOutputViolatesConfidentiality) {
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/etc/shadow", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  auto data = k.read(kS, suid, fd.value());
  ASSERT_TRUE(data.ok());
  k.output(kS, suid, "listing: " + data.value());
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::confidentiality);
}

TEST_F(OracleTest, SecretReadWithoutOutputIsSilent) {
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/etc/shadow", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.read(kS, suid, fd.value()).ok());
  k.output(kS, suid, "done");  // output unrelated to the secret
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, RuidUnreadableFileCountsAsSecretToo) {
  os::world::put_file(k, "/etc/applist", "private-data-here", os::kRootUid,
                      0, 0600);
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/etc/applist", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  auto data = k.read(kS, suid, fd.value());
  k.output(kS, suid, data.value());
  EXPECT_TRUE(oracle->violated());
}

TEST_F(OracleTest, WorldReadableContentMayBeEchoed) {
  os::world::put_file(k, "/etc/motd", "welcome all", os::kRootUid, 0, 0644);
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/etc/motd", os::OpenFlag::rd);
  auto data = k.read(kS, suid, fd.value());
  k.output(kS, suid, data.value());
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, ExecOfThirdPartyBinaryViolates) {
  k.register_image("x", [](os::Kernel&, os::Pid) { return 0; });
  os::world::put_program(k, "/tmp/tool", "x", 666, 666, 0755);
  auto oracle = attach();
  ASSERT_TRUE(k.exec(kS, suid, "/tmp/tool", {"tool"}).ok());
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::untrusted_exec);
}

TEST_F(OracleTest, ExecOfWorldWritableBinaryViolates) {
  k.register_image("x", [](os::Kernel&, os::Pid) { return 0; });
  os::world::put_program(k, "/bin/tool", "x", os::kRootUid, 0, 0757);
  auto oracle = attach();
  ASSERT_TRUE(k.exec(kS, suid, "/bin/tool", {"tool"}).ok());
  EXPECT_TRUE(oracle->violated());
}

TEST_F(OracleTest, ExecOfRootOwnedProtectedBinaryIsClean) {
  k.register_image("x", [](os::Kernel&, os::Pid) { return 0; });
  os::world::put_program(k, "/bin/tool", "x", os::kRootUid, 0, 0755);
  auto oracle = attach();
  ASSERT_TRUE(k.exec(kS, suid, "/bin/tool", {"tool"}).ok());
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, BufferOverflowInPrivilegedProcessViolates) {
  auto oracle = attach();
  k.app_fault(kS, suid, os::AppFault::buffer_overflow, "256 into 64");
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::memory_safety);
  EXPECT_EQ(oracle->overflow_count(), 1);
}

TEST_F(OracleTest, OverflowInUnprivilegedProcessIsNotAViolation) {
  auto oracle = attach();
  k.app_fault(kS, plain, os::AppFault::buffer_overflow, "x");
  EXPECT_FALSE(oracle->violated());
  EXPECT_EQ(oracle->overflow_count(), 1);  // still counted for Fuzz
}

TEST_F(OracleTest, CrashCountedButNotAViolation) {
  auto oracle = attach();
  k.app_fault(kS, suid, os::AppFault::crash, "segv");
  EXPECT_FALSE(oracle->violated());
  EXPECT_EQ(oracle->crash_count(), 1);
}

TEST_F(OracleTest, UntrustedReadViolatesTrust) {
  os::world::put_file(k, "/data/profile", "x", os::kRootUid, 0, 0644);
  auto r = k.vfs().resolve("/data", "/", os::kRootUid, 0);
  k.vfs().mutate(r.value()).trusted = false;
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/data/profile", os::OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.read(kS, suid, fd.value()).ok());
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::trust);
}

TEST_F(OracleTest, UnprivilegedProcessIgnoredWithoutWatchAll) {
  os::world::put_file(k, "/tmp/f", "x", os::kRootUid, 0, 0600);
  auto oracle = attach();
  // plain process has euid == ruid: not watched.
  auto fd = k.open(kS, plain, "/tmp/f", os::OpenFlag::rd);
  EXPECT_EQ(fd.error(), Err::acces);  // and it couldn't anyway
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, WatchAllWatchesEveryProcess) {
  PolicySpec spec;
  spec.watch_all = true;
  spec.write_sanction_roots = {"/var/spool/lpd"};
  spec.secret_files = {"/etc/shadow"};
  auto oracle = attach(spec);
  os::Pid rootp = k.make_process(os::kRootUid, os::kRootGid, "/");
  auto fd = k.open(kS, rootp, "/etc/shadow", os::OpenFlag::rd);
  auto data = k.read(kS, rootp, fd.value());
  k.output(kS, rootp, data.value());
  EXPECT_TRUE(oracle->violated());
}

TEST_F(OracleTest, AuthorizationNeedsConfirmationWhenRequired) {
  PolicySpec spec;
  spec.watch_all = true;
  spec.require_auth_confirmation = true;
  auto oracle = attach(spec);
  k.privileged_action(kS, plain, "grant-login", true);
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::authorization);
}

TEST_F(OracleTest, AuthorizationSatisfiedByGenuineConfirmation) {
  PolicySpec spec;
  spec.watch_all = true;
  spec.require_auth_confirmation = true;
  auto oracle = attach(spec);
  net::Network net;
  net::ServiceDef svc;
  svc.name = "authsvc";
  svc.handler = [](const net::Message&) {
    net::Message r;
    r.type = "AUTH_OK";
    return r;
  };
  net.define_service(svc);
  auto s = net.connect(k, kS, plain, "authsvc");
  ASSERT_TRUE(net.query(k, kS, plain, s.value(), net::Message{}).ok());
  k.privileged_action(kS, plain, "grant-login", true);
  EXPECT_FALSE(oracle->violated());
}

TEST_F(OracleTest, AuthorizationPoisonedByUnauthenticMessage) {
  PolicySpec spec;
  spec.watch_all = true;
  auto oracle = attach(spec);
  net::Network net;
  net::PeerScript script;
  script.peer = "client";
  script.inbound = {{"client", "CMD", "do-it", true}};
  net.set_client_script(script);
  net.spoof_next_inbound();
  auto s = net.accept(k, kS, plain);
  ASSERT_TRUE(net.recv(k, kS, plain, s.value()).ok());
  k.privileged_action(kS, plain, "apply", true);
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::authorization);
}

TEST_F(OracleTest, KnowinglyUnauthorizedActionViolates) {
  PolicySpec spec;
  spec.watch_all = true;
  auto oracle = attach(spec);
  k.privileged_action(kS, plain, "apply", false);
  EXPECT_TRUE(oracle->violated());
}

TEST_F(OracleTest, ViolationsDeduplicated) {
  os::world::put_file(k, "/etc/critical", "x", os::kRootUid, 0, 0600);
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/etc/critical", os::OpenFlag::wr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.write(kS, suid, fd.value(), "a").ok());
  ASSERT_TRUE(k.write(kS, suid, fd.value(), "b").ok());
  // open + two writes on the same object: one integrity report per
  // (policy, call, object) pair, so at most 2 (open, write), not 3.
  EXPECT_LE(oracle->violations().size(), 2u);
}

TEST_F(OracleTest, SendDisclosureCounts) {
  auto oracle = attach();
  auto fd = k.open(kS, suid, "/etc/shadow", os::OpenFlag::rd);
  auto data = k.read(kS, suid, fd.value());
  net::Network net;
  net::PeerScript script;
  script.peer = "peer";
  script.inbound = {{"peer", "REQ", "r", true}};
  net.set_client_script(script);
  auto s = net.accept(k, kS, suid);
  net::Message reply;
  reply.type = "DATA";
  reply.payload = data.value();
  ASSERT_TRUE(net.send(k, kS, suid, s.value(), reply).ok());
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::confidentiality);
}

TEST_F(OracleTest, PolicyNamesPrintable) {
  EXPECT_EQ(to_string(Policy::integrity), "integrity");
  EXPECT_EQ(to_string(Policy::authorization), "authorization");
  EXPECT_EQ(to_string(Policy::redzone_corruption), "redzone-corruption");
}

TEST_F(OracleTest, RedzoneReportFiresForUnprivilegedProcess) {
  // Memory corruption is a violation regardless of privilege — the
  // redzone branch runs before the watched()/pid gates.
  auto oracle = attach();
  os::redzone::Guard zone;
  zone[0] = '!';
  k.report_redzone_corruption(kS, plain, "buffer at " + kS.str(), zone);
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::redzone_corruption);
  EXPECT_EQ(oracle->redzone_count(), 1);
}

TEST_F(OracleTest, RedzoneTeardownReportAcceptsNoProcess) {
  // The end-of-run sweep reports with pid -1 (no live process); the
  // oracle must not drop it on the has_proc guard.
  auto oracle = attach();
  os::redzone::Guard zone;
  zone[0] = '!';
  k.report_redzone_corruption({"kernel", 0, "redzone-teardown"}, -1,
                              "/etc/passwd", zone);
  ASSERT_TRUE(oracle->violated());
  EXPECT_EQ(oracle->violations()[0].policy, Policy::redzone_corruption);
  EXPECT_EQ(oracle->violations()[0].object, "/etc/passwd");
}

TEST_F(OracleTest, RedzoneReportsDeduplicatePerObject) {
  auto oracle = attach();
  os::redzone::Guard zone;
  zone[0] = '!';
  k.report_redzone_corruption(kS, plain, "same-object", zone);
  k.report_redzone_corruption(kS, plain, "same-object", zone);
  k.report_redzone_corruption(kS, plain, "other-object", zone);
  EXPECT_EQ(oracle->redzone_count(), 2);
  ASSERT_EQ(oracle->violations().size(), 2u);
  EXPECT_EQ(oracle->violations()[0].object, "same-object");
  EXPECT_EQ(oracle->violations()[1].object, "other-object");
}

}  // namespace
}  // namespace ep::core
