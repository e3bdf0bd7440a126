#include "os/kernel.hpp"

#include <gtest/gtest.h>

#include "os/world.hpp"

namespace ep::os {
namespace {

const Site kS{"test.c", 1, "test-site"};

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    world::standard_unix(k);
    k.add_user(1000, "alice", 1000);
    k.add_user(666, "mallory", 666);
    alice = k.make_process(1000, 1000, "/home/alice");
    world::mkdirs(k, "/home/alice", 1000, 1000, 0755);
    root = k.make_process(kRootUid, kRootGid, "/");
  }
  Kernel k;
  Pid alice = -1;
  Pid root = -1;
};

TEST_F(KernelTest, OpenCreateWriteReadRoundTrip) {
  auto fd = k.open(kS, alice, "/home/alice/f.txt",
                   OpenFlag::wr | OpenFlag::creat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.write(kS, alice, fd.value(), "hello").ok());
  ASSERT_TRUE(k.close(alice, fd.value()).ok());

  auto rfd = k.open(kS, alice, "/home/alice/f.txt", OpenFlag::rd);
  ASSERT_TRUE(rfd.ok());
  auto data = k.read(kS, alice, rfd.value());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello");
}

TEST_F(KernelTest, OpenHonorsUmask) {
  k.proc(alice).umask = 027;
  auto fd = k.open(kS, alice, "/home/alice/masked",
                   OpenFlag::wr | OpenFlag::creat, 0666);
  ASSERT_TRUE(fd.ok());
  auto st = k.fstat(alice, fd.value());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().mode, 0640u);
}

TEST_F(KernelTest, OpenMissingWithoutCreatIsNoent) {
  auto fd = k.open(kS, alice, "/home/alice/absent", OpenFlag::rd);
  EXPECT_EQ(fd.error(), Err::noent);
}

TEST_F(KernelTest, OpenExclRefusesExisting) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/f",
                   OpenFlag::wr | OpenFlag::creat | OpenFlag::excl);
  EXPECT_EQ(fd.error(), Err::exist);
}

TEST_F(KernelTest, OpenExclRefusesSymlinkEvenDangling) {
  world::put_symlink(k, "/home/alice/link", "/home/alice/nowhere", 1000, 1000);
  auto fd = k.open(kS, alice, "/home/alice/link",
                   OpenFlag::wr | OpenFlag::creat | OpenFlag::excl);
  EXPECT_EQ(fd.error(), Err::exist);
}

TEST_F(KernelTest, OpenNofollowRefusesSymlink) {
  world::put_file(k, "/home/alice/real", "x", 1000, 1000, 0644);
  world::put_symlink(k, "/home/alice/link", "/home/alice/real", 1000, 1000);
  auto fd =
      k.open(kS, alice, "/home/alice/link", OpenFlag::rd | OpenFlag::nofollow);
  EXPECT_EQ(fd.error(), Err::loop);
}

TEST_F(KernelTest, OpenCreatThroughDanglingSymlinkCreatesTarget) {
  // The classic spool attack shape: creating "through" a planted link.
  world::put_symlink(k, "/tmp/t", "/tmp/target-file", 666, 666);
  auto fd = k.open(kS, root, "/tmp/t", OpenFlag::wr | OpenFlag::creat, 0600);
  ASSERT_TRUE(fd.ok());
  auto st = k.stat(kS, root, "/tmp/target-file");
  ASSERT_TRUE(st.ok());
}

TEST_F(KernelTest, OpenTruncClearsContent) {
  world::put_file(k, "/home/alice/f", "old-content", 1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/f",
                   OpenFlag::wr | OpenFlag::trunc);
  ASSERT_TRUE(fd.ok());
  auto st = k.fstat(alice, fd.value());
  EXPECT_EQ(st.value().size, 0u);
}

TEST_F(KernelTest, WriteDeniedWithoutWritePermission) {
  world::put_file(k, "/etc/conf", "x", kRootUid, kRootGid, 0644);
  auto fd = k.open(kS, alice, "/etc/conf", OpenFlag::wr);
  EXPECT_EQ(fd.error(), Err::acces);
}

TEST_F(KernelTest, RootBypassesFilePermissions) {
  world::put_file(k, "/etc/secret", "x", kRootUid, kRootGid, 0600);
  auto fd = k.open(kS, root, "/etc/secret", OpenFlag::rd | OpenFlag::wr);
  EXPECT_TRUE(fd.ok());
}

TEST_F(KernelTest, ReadLineSplitsOnNewlines) {
  world::put_file(k, "/home/alice/cfg", "one\ntwo\nthree", 1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/cfg", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).value(), "one");
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).value(), "two");
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).value(), "three");
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).error(), Err::io);  // EOF
}

TEST_F(KernelTest, AppendSeeksToEnd) {
  world::put_file(k, "/home/alice/log", "a", 1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/log",
                   OpenFlag::wr | OpenFlag::append);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.write(kS, alice, fd.value(), "b").ok());
  EXPECT_EQ(k.peek("/home/alice/log").value(), "ab");
}

TEST_F(KernelTest, BadFdErrors) {
  EXPECT_EQ(k.read(kS, alice, 99).error(), Err::badf);
  EXPECT_EQ(k.write(kS, alice, 99, "x").error(), Err::badf);
  EXPECT_EQ(k.close(alice, 99).error(), Err::badf);
  EXPECT_EQ(k.fstat(alice, 99).error(), Err::badf);
}

TEST_F(KernelTest, ReadOnWriteOnlyFdIsBadf) {
  auto fd = k.open(kS, alice, "/home/alice/w",
                   OpenFlag::wr | OpenFlag::creat);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(k.read(kS, alice, fd.value()).error(), Err::badf);
}

TEST_F(KernelTest, StatFollowsLstatDoesNot) {
  world::put_file(k, "/etc/real", "data", kRootUid, kRootGid, 0644);
  world::put_symlink(k, "/etc/alias", "/etc/real");
  auto st = k.stat(kS, alice, "/etc/alias");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().type, FileType::regular);
  auto lst = k.lstat(kS, alice, "/etc/alias");
  ASSERT_TRUE(lst.ok());
  EXPECT_EQ(lst.value().type, FileType::symlink);
}

TEST_F(KernelTest, AccessChecksRealUid) {
  world::put_file(k, "/etc/secret", "x", kRootUid, kRootGid, 0600);
  // Process with alice's real uid but root effective uid (set-uid model).
  Pid suid = k.make_process(1000, 1000, "/");
  k.proc(suid).euid = kRootUid;
  // euid root could read it, but access() answers for the real uid.
  EXPECT_EQ(k.access(kS, suid, "/etc/secret", Perm::read).error(),
            Err::acces);
  EXPECT_TRUE(k.open(kS, suid, "/etc/secret", OpenFlag::rd).ok());
}

TEST_F(KernelTest, UnlinkRequiresParentWrite) {
  world::put_file(k, "/etc/conf", "x", kRootUid, kRootGid, 0666);
  // alice can write the file but not the directory -> unlink denied.
  EXPECT_EQ(k.unlink(kS, alice, "/etc/conf").error(), Err::acces);
  EXPECT_TRUE(k.unlink(kS, root, "/etc/conf").ok());
}

TEST_F(KernelTest, MkdirRmdir) {
  ASSERT_TRUE(k.mkdir(kS, alice, "/home/alice/sub", 0755).ok());
  auto st = k.stat(kS, alice, "/home/alice/sub");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().type, FileType::directory);
  EXPECT_TRUE(k.rmdir(kS, alice, "/home/alice/sub").ok());
  EXPECT_EQ(k.stat(kS, alice, "/home/alice/sub").error(), Err::noent);
}

TEST_F(KernelTest, RenameWithinDirectory) {
  world::put_file(k, "/home/alice/a", "1", 1000, 1000, 0644);
  ASSERT_TRUE(k.rename(kS, alice, "/home/alice/a", "/home/alice/b").ok());
  EXPECT_EQ(k.peek("/home/alice/b").value(), "1");
  EXPECT_EQ(k.stat(kS, alice, "/home/alice/a").error(), Err::noent);
}

TEST_F(KernelTest, SymlinkAndReadlink) {
  ASSERT_TRUE(k.symlink(kS, alice, "/etc/passwd", "/home/alice/pw").ok());
  auto t = k.readlink(kS, alice, "/home/alice/pw");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value(), "/etc/passwd");
  EXPECT_EQ(k.readlink(kS, alice, "/etc/passwd").error(), Err::inval);
}

TEST_F(KernelTest, ChmodOnlyOwnerOrRoot) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  ASSERT_TRUE(k.chmod(kS, alice, "/home/alice/f", 0600).ok());
  world::put_file(k, "/etc/rootfile", "x", kRootUid, kRootGid, 0644);
  EXPECT_EQ(k.chmod(kS, alice, "/etc/rootfile", 0666).error(), Err::perm);
  EXPECT_TRUE(k.chmod(kS, root, "/etc/rootfile", 0666).ok());
}

TEST_F(KernelTest, ChownRootOnly) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  EXPECT_EQ(k.chown(kS, alice, "/home/alice/f", 666, 666).error(), Err::perm);
  ASSERT_TRUE(k.chown(kS, root, "/home/alice/f", 666, 666).ok());
  auto st = k.stat(kS, root, "/home/alice/f");
  EXPECT_EQ(st.value().uid, 666);
}

TEST_F(KernelTest, ChdirUpdatesCwdCanonically) {
  world::mkdirs(k, "/home/alice/deep/dir");
  ASSERT_TRUE(k.chdir(kS, alice, "deep/./dir/..").ok());
  EXPECT_EQ(k.getcwd(alice), "/home/alice/deep");
}

TEST_F(KernelTest, ChdirToFileIsNotdir) {
  world::put_file(k, "/home/alice/f", "x", 1000, 1000, 0644);
  EXPECT_EQ(k.chdir(kS, alice, "/home/alice/f").error(), Err::notdir);
}

TEST_F(KernelTest, ReaddirListsSorted) {
  world::put_file(k, "/home/alice/b", "", 1000, 1000, 0644);
  world::put_file(k, "/home/alice/a", "", 1000, 1000, 0644);
  auto names = k.readdir(kS, alice, "/home/alice");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names.value().size(), 2u);
  EXPECT_EQ(names.value()[0], "a");
  EXPECT_EQ(names.value()[1], "b");
}

TEST_F(KernelTest, GetenvPresentAndAbsent) {
  k.proc(alice).env["PATH"] = "/bin";
  EXPECT_EQ(k.getenv(kS, alice, "PATH").value(), "/bin");
  EXPECT_EQ(k.getenv(kS, alice, "NOPE").error(), Err::noent);
}

TEST_F(KernelTest, ArgAccess) {
  k.proc(alice).args = {"prog", "one"};
  EXPECT_EQ(k.arg(kS, alice, 1), "one");
  EXPECT_EQ(k.arg(kS, alice, 5), "");
  EXPECT_EQ(k.argc(alice), 2u);
}

TEST_F(KernelTest, OutputAccumulates) {
  k.output(kS, alice, "line1");
  k.output(kS, alice, "line2");
  EXPECT_EQ(k.proc(alice).stdout_text, "line1\nline2\n");
}

TEST_F(KernelTest, UidCanReflectsPermissions) {
  world::put_file(k, "/etc/secret", "x", kRootUid, kRootGid, 0600);
  EXPECT_FALSE(k.uid_can(1000, 1000, "/etc/secret", Perm::read));
  EXPECT_TRUE(k.uid_can(kRootUid, kRootGid, "/etc/secret", Perm::read));
  EXPECT_FALSE(k.uid_can(1000, 1000, "/absent", Perm::read));
}

TEST_F(KernelTest, UnknownPidThrows) {
  EXPECT_THROW((void)k.proc(4242), std::logic_error);
}

TEST_F(KernelTest, StickyDirRestrictsDeletion) {
  // A sticky shared directory: alice's file cannot be unlinked or renamed
  // by another non-owner user, even though the directory is writable.
  ASSERT_TRUE(k.chmod(kS, root, "/tmp", 0777 | kStickyBit).ok());
  world::put_file(k, "/tmp/alice-file", "hers", 1000, 1000, 0644);
  Pid mallory = k.make_process(666, 666, "/tmp");
  EXPECT_EQ(k.unlink(kS, mallory, "/tmp/alice-file").error(), Err::perm);
  EXPECT_EQ(k.rename(kS, mallory, "/tmp/alice-file", "/tmp/stolen").error(),
            Err::perm);
  // The owner, the directory owner (root), and root itself still may.
  EXPECT_TRUE(k.unlink(kS, alice, "/tmp/alice-file").ok());
}

TEST_F(KernelTest, StickyDirStillAllowsNewEntries) {
  ASSERT_TRUE(k.chmod(kS, root, "/tmp", 0777 | kStickyBit).ok());
  Pid mallory = k.make_process(666, 666, "/tmp");
  auto fd = k.open(kS, mallory, "/tmp/mine",
                   OpenFlag::wr | OpenFlag::creat, 0644);
  EXPECT_TRUE(fd.ok());
  // And their own entries can be removed.
  EXPECT_TRUE(k.unlink(kS, mallory, "/tmp/mine").ok());
}

TEST_F(KernelTest, StickyRenameRefusesOverwritingForeignTarget) {
  ASSERT_TRUE(k.chmod(kS, root, "/tmp", 0777 | kStickyBit).ok());
  world::put_file(k, "/tmp/victim", "hers", 1000, 1000, 0666);
  Pid mallory = k.make_process(666, 666, "/tmp");
  world::put_file(k, "/tmp/mine", "x", 666, 666, 0644);
  EXPECT_EQ(k.rename(kS, mallory, "/tmp/mine", "/tmp/victim").error(),
            Err::perm);
}

TEST_F(KernelTest, NonStickyWritableDirAllowsForeignDeletion) {
  // The contrast case — and the reason the classic /tmp attacks worked.
  world::put_file(k, "/tmp/alice-file", "hers", 1000, 1000, 0644);
  Pid mallory = k.make_process(666, 666, "/tmp");
  EXPECT_TRUE(k.unlink(kS, mallory, "/tmp/alice-file").ok());
}

TEST_F(KernelTest, AfterHookCanRewriteInput) {
  struct Rewrite : Interposer {
    void after(Kernel&, SyscallCtx& ctx, Err) override {
      if (ctx.has_input && ctx.input) *ctx.input = "REWRITTEN";
    }
  };
  world::put_file(k, "/home/alice/f", "original", 1000, 1000, 0644);
  k.add_interposer(std::make_shared<Rewrite>());
  auto fd = k.open(kS, alice, "/home/alice/f", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(k.read(kS, alice, fd.value()).value(), "REWRITTEN");
  // The file itself is untouched: only the delivered input changed.
  EXPECT_EQ(k.peek("/home/alice/f").value(), "original");
}

TEST_F(KernelTest, HookShrinkingContentMidReadIsEofNotCrash) {
  // A content perturbation can replace the file with a shorter payload
  // between the before-hooks and the actual read; an advanced descriptor
  // offset must degrade to EOF, never out-of-range.
  struct Shrink : Interposer {
    void before(Kernel& kk, SyscallCtx& ctx) override {
      if (ctx.call != "read" || ctx.object == kNoIno) return;
      kk.vfs().mutate(ctx.object).content = "x";
    }
  };
  world::put_file(k, "/home/alice/log", "line one is quite long\nline two\n",
                  1000, 1000, 0644);
  auto fd = k.open(kS, alice, "/home/alice/log", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  // Advance the offset past what the shrunk file will hold.
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).value(),
            "line one is quite long");
  k.add_interposer(std::make_shared<Shrink>());
  // The EOF pre-check passes against the original content, the hook then
  // shrinks it below the offset; the read must answer EOF.
  EXPECT_EQ(k.read_line(kS, alice, fd.value()).error(), Err::io);
}

TEST_F(KernelTest, DescribeObjectRecordsRuidAccess) {
  world::put_file(k, "/etc/secret", "x", kRootUid, kRootGid, 0600);
  struct Capture : Interposer {
    bool readable = true, writable = true;
    void after(Kernel&, SyscallCtx& ctx, Err) override {
      if (ctx.call == "stat") {
        readable = ctx.object_ruid_readable;
        writable = ctx.object_ruid_writable;
      }
    }
  };
  auto cap = std::make_shared<Capture>();
  k.add_interposer(cap);
  Pid suid = k.make_process(1000, 1000, "/");
  k.proc(suid).euid = kRootUid;
  ASSERT_TRUE(k.stat(kS, suid, "/etc/secret").ok());
  EXPECT_FALSE(cap->readable);
  EXPECT_FALSE(cap->writable);
}

TEST_F(KernelTest, FinalDotOrDotDotNamesADirectoryNotAnEntry) {
  // Linux's answers for a final `.` or `..`: the name is the directory
  // itself, so nothing is created, linked or unlinked under it.
  const OpenFlags creat_wr = OpenFlag::wr | OpenFlag::creat;
  EXPECT_EQ(k.open(kS, alice, "/tmp/..", creat_wr).error(), Err::isdir);
  EXPECT_EQ(k.open(kS, alice, "/tmp/.", creat_wr).error(), Err::isdir);
  EXPECT_EQ(k.mkdir(kS, alice, "/tmp/.").error(), Err::exist);
  EXPECT_EQ(k.mkdir(kS, alice, "/tmp/..").error(), Err::exist);
  EXPECT_EQ(k.symlink(kS, alice, "/etc/passwd", "/tmp/..").error(),
            Err::exist);
  EXPECT_EQ(k.unlink(kS, alice, "/tmp/..").error(), Err::isdir);
  EXPECT_EQ(k.rmdir(kS, alice, "/tmp/.").error(), Err::inval);
  const Ino tmp = k.vfs().resolve("/tmp", "/", kRootUid, kRootGid).value();
  EXPECT_EQ(k.vfs().inode(tmp).entries.count("."), 0u);
  EXPECT_EQ(k.vfs().inode(tmp).entries.count(".."), 0u);
  EXPECT_TRUE(k.vfs().check_invariants().empty())
      << k.vfs().check_invariants();
}

TEST_F(KernelTest, RenameOfDotOrDotDotIsBusy) {
  world::put_file(k, "/tmp/f", "x", 1000, 1000, 0644);
  EXPECT_EQ(k.rename(kS, alice, "/tmp/.", "/tmp/g").error(), Err::busy);
  EXPECT_EQ(k.rename(kS, alice, "/tmp/f", "/tmp/..").error(), Err::busy);
  EXPECT_EQ(k.peek("/tmp/f").value(), "x");
  EXPECT_TRUE(k.vfs().check_invariants().empty())
      << k.vfs().check_invariants();
}

TEST_F(KernelTest, RenameOfADirectoryIntoItsOwnSubtreeIsInval) {
  // Linux refuses to make a directory its own descendant and leaves the
  // tree as it was. After the call only resolve() reads the tree: it
  // walks down from the root, so it ends even if parent links had formed
  // a cycle (canonical_path of a moved node would not).
  world::mkdirs(k, "/a/b", kRootUid, kRootGid, 0755);
  ASSERT_EQ(k.rename(kS, root, "/a", "/a/b/c").error(), Err::inval);
  ASSERT_EQ(k.rename(kS, root, "/a", "/a/c").error(), Err::inval);
  EXPECT_TRUE(k.rename(kS, root, "/a", "/a").ok());
  const Vfs& v = k.vfs();
  EXPECT_TRUE(v.resolve("/a/b", "/", kRootUid, kRootGid).ok());
  EXPECT_EQ(v.resolve("/a/b/c", "/", kRootUid, kRootGid).error(), Err::noent);
  EXPECT_EQ(v.resolve("/a/c", "/", kRootUid, kRootGid).error(), Err::noent);
  EXPECT_TRUE(v.check_invariants().empty()) << v.check_invariants();
}

TEST_F(KernelTest, RenameReplacesTargetsAsLinuxDoes) {
  // Linux 6.18's answers for each pairing of source and existing target:
  // a directory onto a file is ENOTDIR, a file onto a directory EISDIR,
  // a directory onto a non-empty one ENOTEMPTY, and a directory onto an
  // empty one replaces it.
  world::mkdirs(k, "/t/src/inner", kRootUid, kRootGid, 0755);
  world::mkdirs(k, "/t/empty", kRootUid, kRootGid, 0755);
  world::mkdirs(k, "/t/full/x", kRootUid, kRootGid, 0755);
  world::put_file(k, "/t/f", "file", kRootUid, kRootGid, 0644);
  EXPECT_EQ(k.rename(kS, root, "/t/src", "/t/f").error(), Err::notdir);
  EXPECT_EQ(k.peek("/t/f").value(), "file");
  EXPECT_EQ(k.rename(kS, root, "/t/f", "/t/empty").error(), Err::isdir);
  EXPECT_EQ(k.rename(kS, root, "/t/src", "/t/full").error(), Err::notempty);
  EXPECT_EQ(k.stat(kS, root, "/t/full/x").value().type, FileType::directory);
  ASSERT_TRUE(k.rename(kS, root, "/t/src", "/t/empty").ok());
  EXPECT_EQ(k.stat(kS, root, "/t/empty/inner").value().type,
            FileType::directory);
  EXPECT_EQ(k.stat(kS, root, "/t/src").error(), Err::noent);
  EXPECT_TRUE(k.vfs().check_invariants().empty())
      << k.vfs().check_invariants();
}

TEST_F(KernelTest, CreatOpenOfADirectoryIsEisdirUnlessExcl) {
  // Linux refuses every O_CREAT open of an existing directory, whatever
  // the access mode; O_EXCL answers EEXIST before that.
  EXPECT_EQ(k.open(kS, alice, "/tmp", OpenFlag::rd | OpenFlag::creat).error(),
            Err::isdir);
  EXPECT_EQ(
      k.open(kS, root, "/home/alice", OpenFlag::rd | OpenFlag::creat).error(),
      Err::isdir);
  EXPECT_EQ(k.open(kS, alice, "/tmp", OpenFlag::wr | OpenFlag::creat).error(),
            Err::isdir);
  EXPECT_EQ(k.open(kS, alice, "/tmp",
                   OpenFlag::rd | OpenFlag::creat | OpenFlag::excl)
                .error(),
            Err::exist);
  EXPECT_TRUE(k.open(kS, alice, "/tmp", OpenFlag::rd).ok());
}

TEST_F(KernelTest, UntrustedDirectoryTaintsEverythingBelowIt) {
  // The taint follows parent links: a directory between the object and
  // the untrusted ancestor that root cannot search (no x bit) does not
  // hide it.
  world::put_file(k, "/data/sub/deep/file", "x", kRootUid, kRootGid, 0644);
  const Ino data = k.vfs().resolve("/data", "/", kRootUid, kRootGid).value();
  k.vfs().mutate(data).trusted = false;
  auto fd = k.open(kS, root, "/data/sub/deep/file", OpenFlag::rd);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(k.chmod(kS, root, "/data/sub", 0600).ok());
  struct Capture : Interposer {
    bool untrusted = false;
    void after(Kernel&, SyscallCtx& ctx, Err) override {
      if (ctx.call == "read") untrusted = ctx.object_untrusted;
    }
  };
  auto cap = std::make_shared<Capture>();
  k.add_interposer(cap);
  ASSERT_TRUE(k.read(kS, root, fd.value()).ok());
  EXPECT_TRUE(cap->untrusted);
}

}  // namespace
}  // namespace ep::os
