#include "os/vfs.hpp"

#include <gtest/gtest.h>

namespace ep::os {
namespace {

class VfsTest : public ::testing::Test {
 protected:
  Vfs vfs;

  Ino mkdir_at(Ino dir, const std::string& name, unsigned mode = 0755,
               Uid uid = kRootUid) {
    auto r = vfs.create_dir(dir, name, uid, uid, mode);
    EXPECT_TRUE(r.ok());
    return r.value();
  }
  Ino mkfile_at(Ino dir, const std::string& name, std::string content = {},
                unsigned mode = 0644, Uid uid = kRootUid) {
    auto r = vfs.create_file(dir, name, uid, uid, mode, std::move(content));
    EXPECT_TRUE(r.ok());
    return r.value();
  }
};

TEST_F(VfsTest, RootExistsAndIsDirectory) {
  EXPECT_TRUE(vfs.exists(vfs.root()));
  EXPECT_TRUE(vfs.inode(vfs.root()).is_dir());
  EXPECT_EQ(vfs.canonical_path(vfs.root()), "/");
}

TEST_F(VfsTest, CreateAndResolveFile) {
  Ino etc = mkdir_at(vfs.root(), "etc");
  Ino pw = mkfile_at(etc, "passwd", "root:x:0:0\n");
  auto r = vfs.resolve("/etc/passwd", "/", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), pw);
  EXPECT_EQ(vfs.canonical_path(pw), "/etc/passwd");
}

TEST_F(VfsTest, ResolveRelativeToCwd) {
  Ino home = mkdir_at(vfs.root(), "home");
  Ino alice = mkdir_at(home, "alice");
  Ino f = mkfile_at(alice, "notes.txt");
  auto r = vfs.resolve("notes.txt", "/home/alice", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), f);
}

TEST_F(VfsTest, ResolveDotDot) {
  Ino home = mkdir_at(vfs.root(), "home");
  mkdir_at(home, "alice");
  Ino f = mkfile_at(home, "shared.txt");
  auto r = vfs.resolve("../shared.txt", "/home/alice", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), f);
}

TEST_F(VfsTest, DotDotAboveRootStaysAtRoot) {
  auto r = vfs.resolve("/../../..", "/", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), vfs.root());
}

TEST_F(VfsTest, MissingComponentIsNoent) {
  auto r = vfs.resolve("/nope/x", "/", kRootUid, kRootGid);
  EXPECT_EQ(r.error(), Err::noent);
}

TEST_F(VfsTest, FileAsDirectoryIsNotdir) {
  Ino etc = mkdir_at(vfs.root(), "etc");
  mkfile_at(etc, "passwd");
  auto r = vfs.resolve("/etc/passwd/sub", "/", kRootUid, kRootGid);
  EXPECT_EQ(r.error(), Err::notdir);
}

TEST_F(VfsTest, SymlinkFollowedByDefault) {
  Ino etc = mkdir_at(vfs.root(), "etc");
  Ino target = mkfile_at(etc, "shadow", "secret");
  auto link = vfs.create_symlink(vfs.root(), "link", kRootUid, kRootGid,
                                 "/etc/shadow");
  ASSERT_TRUE(link.ok());
  auto r = vfs.resolve("/link", "/", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), target);
}

TEST_F(VfsTest, FinalSymlinkNotFollowedWhenAsked) {
  Ino etc = mkdir_at(vfs.root(), "etc");
  mkfile_at(etc, "shadow");
  auto link = vfs.create_symlink(vfs.root(), "link", kRootUid, kRootGid,
                                 "/etc/shadow");
  auto r = vfs.resolve("/link", "/", kRootUid, kRootGid,
                       /*follow_final=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), link.value());
  EXPECT_TRUE(vfs.inode(r.value()).is_symlink());
}

TEST_F(VfsTest, RelativeSymlinkResolvesAgainstItsDirectory) {
  Ino a = mkdir_at(vfs.root(), "a");
  Ino f = mkfile_at(a, "real.txt");
  auto link = vfs.create_symlink(a, "alias", kRootUid, kRootGid, "real.txt");
  ASSERT_TRUE(link.ok());
  auto r = vfs.resolve("/a/alias", "/", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), f);
}

TEST_F(VfsTest, SymlinkLoopDetected) {
  ASSERT_TRUE(
      vfs.create_symlink(vfs.root(), "l1", kRootUid, kRootGid, "/l2").ok());
  ASSERT_TRUE(
      vfs.create_symlink(vfs.root(), "l2", kRootUid, kRootGid, "/l1").ok());
  auto r = vfs.resolve("/l1", "/", kRootUid, kRootGid);
  EXPECT_EQ(r.error(), Err::loop);
}

TEST_F(VfsTest, SymlinkChainWithinLimitResolves) {
  Ino f = mkfile_at(vfs.root(), "end");
  std::string prev = "/end";
  for (int i = 0; i < kMaxSymlinkDepth - 1; ++i) {
    std::string name = "c" + std::to_string(i);
    ASSERT_TRUE(
        vfs.create_symlink(vfs.root(), name, kRootUid, kRootGid, prev).ok());
    prev = "/" + name;
  }
  auto r = vfs.resolve(prev, "/", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), f);
}

TEST_F(VfsTest, SymlinkChainAtTheDepthLimitResolvesAndOneMoreLoops) {
  // The walk holds one pending segment per followed link; a chain of
  // exactly kMaxSymlinkDepth links still resolves.
  Ino f = mkfile_at(vfs.root(), "end");
  std::string prev = "/end";
  for (int i = 0; i < kMaxSymlinkDepth; ++i) {
    std::string name = "c" + std::to_string(i);
    ASSERT_TRUE(
        vfs.create_symlink(vfs.root(), name, kRootUid, kRootGid, prev).ok());
    prev = "/" + name;
  }
  auto r = vfs.resolve(prev, "/", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), f);
  ASSERT_TRUE(
      vfs.create_symlink(vfs.root(), "over", kRootUid, kRootGid, prev).ok());
  EXPECT_EQ(vfs.resolve("/over", "/", kRootUid, kRootGid).error(), Err::loop);
}

TEST_F(VfsTest, ResolveParentIgnoresTrailingSlashesAndRootHasNoLeaf) {
  Ino a = mkdir_at(vfs.root(), "a");
  Ino b = mkdir_at(a, "b");
  auto rp = vfs.resolve_parent("/a/b//", "/", kRootUid, kRootGid);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp.value().dir_ino, a);
  EXPECT_EQ(rp.value().leaf, "b");
  EXPECT_EQ(rp.value().leaf_ino, b);
  EXPECT_EQ(rp.value().canonical, "/a/b");
  EXPECT_EQ(vfs.resolve_parent("/", "/", kRootUid, kRootGid).error(),
            Err::isdir);
  EXPECT_EQ(vfs.resolve_parent("///", "/", kRootUid, kRootGid).error(),
            Err::isdir);
}

TEST_F(VfsTest, RelativeResolveParentHoldsTheJoinedDirectoryToThePathLimit) {
  // The argument alone is short; its directory part joined to the cwd
  // (slashes collapsed) is one byte over kMaxPathLen.
  Ino d = mkdir_at(vfs.root(), "d");
  mkdir_at(d, "x");
  std::string cwd;
  while (cwd.size() + 2 + 200 <= kMaxPathLen)
    cwd += "/" + std::string(200, 'c');
  cwd += "/" + std::string(kMaxPathLen - cwd.size() - 3, 'c');
  ASSERT_EQ(cwd.size() + 2, kMaxPathLen);  // + "/x"
  EXPECT_EQ(vfs.resolve_parent("x/leaf", cwd + "//", kRootUid, kRootGid)
                .error(),
            Err::noent);  // "<cwd>/x" fits: the walk runs and misses
  EXPECT_EQ(vfs.resolve_parent("xy/leaf", cwd, kRootUid, kRootGid).error(),
            Err::nametoolong);
}

TEST_F(VfsTest, NameTooLongRejected) {
  std::string long_name(kMaxNameLen + 1, 'x');
  auto r = vfs.create_file(vfs.root(), long_name, kRootUid, kRootGid, 0644);
  EXPECT_EQ(r.error(), Err::nametoolong);
  auto res = vfs.resolve("/" + long_name, "/", kRootUid, kRootGid);
  EXPECT_EQ(res.error(), Err::nametoolong);
}

TEST_F(VfsTest, PathTooLongRejected) {
  std::string p = "/" + std::string(kMaxPathLen, 'y');
  auto r = vfs.resolve(p, "/", kRootUid, kRootGid);
  EXPECT_EQ(r.error(), Err::nametoolong);
}

TEST_F(VfsTest, DuplicateNameIsExist) {
  mkfile_at(vfs.root(), "f");
  auto r = vfs.create_file(vfs.root(), "f", kRootUid, kRootGid, 0644);
  EXPECT_EQ(r.error(), Err::exist);
}

TEST_F(VfsTest, RemoveDetachesButKeepsInode) {
  Ino f = mkfile_at(vfs.root(), "f", "data");
  ASSERT_TRUE(vfs.remove(vfs.root(), "f").ok());
  EXPECT_EQ(vfs.resolve("/f", "/", kRootUid, kRootGid).error(), Err::noent);
  // The inode survives for open descriptors (fexecve immunity).
  EXPECT_TRUE(vfs.exists(f));
  EXPECT_EQ(vfs.inode(f).content, "data");
}

TEST_F(VfsTest, RemoveDirOnlyWhenEmpty) {
  Ino d = mkdir_at(vfs.root(), "d");
  mkfile_at(d, "f");
  EXPECT_EQ(vfs.remove_dir(vfs.root(), "d").error(), Err::notempty);
  ASSERT_TRUE(vfs.remove(d, "f").ok());
  EXPECT_TRUE(vfs.remove_dir(vfs.root(), "d").ok());
}

TEST_F(VfsTest, RemoveOnDirectoryIsIsdir) {
  mkdir_at(vfs.root(), "d");
  EXPECT_EQ(vfs.remove(vfs.root(), "d").error(), Err::isdir);
}

TEST_F(VfsTest, RenameMovesAcrossDirectories) {
  Ino a = mkdir_at(vfs.root(), "a");
  Ino b = mkdir_at(vfs.root(), "b");
  Ino f = mkfile_at(a, "f");
  ASSERT_TRUE(vfs.rename_entry(a, "f", b, "g").ok());
  EXPECT_EQ(vfs.canonical_path(f), "/b/g");
  EXPECT_EQ(vfs.resolve("/a/f", "/", kRootUid, kRootGid).error(), Err::noent);
}

TEST_F(VfsTest, RenameReplacesExistingFile) {
  Ino f1 = mkfile_at(vfs.root(), "f1", "one");
  mkfile_at(vfs.root(), "f2", "two");
  ASSERT_TRUE(vfs.rename_entry(vfs.root(), "f1", vfs.root(), "f2").ok());
  auto r = vfs.resolve("/f2", "/", kRootUid, kRootGid);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), f1);
  EXPECT_EQ(vfs.inode(r.value()).content, "one");
}

TEST_F(VfsTest, DetachRemovesWholeSubtree) {
  Ino d = mkdir_at(vfs.root(), "d");
  mkfile_at(d, "f");
  vfs.detach(vfs.root(), "d");
  EXPECT_EQ(vfs.resolve("/d", "/", kRootUid, kRootGid).error(), Err::noent);
  EXPECT_TRUE(vfs.check_invariants().empty()) << vfs.check_invariants();
}

TEST_F(VfsTest, ResolveParentReportsLeaf) {
  Ino etc = mkdir_at(vfs.root(), "etc");
  Ino pw = mkfile_at(etc, "passwd");
  auto rp = vfs.resolve_parent("/etc/passwd", "/", kRootUid, kRootGid);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp.value().dir_ino, etc);
  EXPECT_EQ(rp.value().leaf, "passwd");
  EXPECT_EQ(rp.value().leaf_ino, pw);
  EXPECT_EQ(rp.value().canonical, "/etc/passwd");
}

TEST_F(VfsTest, ResolveParentOfMissingLeaf) {
  mkdir_at(vfs.root(), "etc");
  auto rp = vfs.resolve_parent("/etc/newfile", "/", kRootUid, kRootGid);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp.value().leaf_ino, kNoIno);
  EXPECT_EQ(rp.value().canonical, "/etc/newfile");
}

TEST_F(VfsTest, ResolveParentDoesNotFollowFinalSymlink) {
  Ino etc = mkdir_at(vfs.root(), "etc");
  mkfile_at(etc, "shadow");
  auto link = vfs.create_symlink(vfs.root(), "link", kRootUid, kRootGid,
                                 "/etc/shadow");
  auto rp = vfs.resolve_parent("/link", "/", kRootUid, kRootGid);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp.value().leaf_ino, link.value());
}

TEST_F(VfsTest, ResolveParentFollowsDirSymlinks) {
  Ino etc = mkdir_at(vfs.root(), "etc");
  Ino pw = mkfile_at(etc, "passwd");
  ASSERT_TRUE(
      vfs.create_symlink(vfs.root(), "e", kRootUid, kRootGid, "/etc").ok());
  auto rp = vfs.resolve_parent("/e/passwd", "/", kRootUid, kRootGid);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp.value().dir_ino, etc);
  EXPECT_EQ(rp.value().leaf_ino, pw);
  EXPECT_EQ(rp.value().canonical, "/etc/passwd");  // canonicalized
}

TEST_F(VfsTest, ListAllPathsSorted) {
  Ino a = mkdir_at(vfs.root(), "a");
  mkfile_at(a, "z");
  mkfile_at(vfs.root(), "b");
  auto all = vfs.list_all_paths();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "/a");
  EXPECT_EQ(all[1], "/a/z");
  EXPECT_EQ(all[2], "/b");
}

TEST_F(VfsTest, InvariantsHoldThroughChurn) {
  Ino a = mkdir_at(vfs.root(), "a");
  Ino b = mkdir_at(vfs.root(), "b");
  for (int i = 0; i < 20; ++i)
    mkfile_at(a, "f" + std::to_string(i), "x");
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(
        vfs.rename_entry(a, "f" + std::to_string(i), b, "g" + std::to_string(i))
            .ok());
  for (int i = 10; i < 15; ++i)
    ASSERT_TRUE(vfs.remove(a, "f" + std::to_string(i)).ok());
  EXPECT_TRUE(vfs.check_invariants().empty()) << vfs.check_invariants();
}

TEST_F(VfsTest, CanonicalizeFollowsLinks) {
  Ino etc = mkdir_at(vfs.root(), "etc");
  mkfile_at(etc, "shadow");
  ASSERT_TRUE(vfs.create_symlink(vfs.root(), "s", kRootUid, kRootGid,
                                 "/etc/shadow")
                  .ok());
  auto c = vfs.canonicalize("/s", "/", kRootUid, kRootGid);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), "/etc/shadow");
}

TEST_F(VfsTest, StatInode) {
  Ino f = mkfile_at(vfs.root(), "f", "12345", 0640);
  auto st = vfs.stat_inode(f);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 5u);
  EXPECT_EQ(st.value().mode, 0640u);
  EXPECT_EQ(st.value().type, FileType::regular);
  EXPECT_TRUE(st.value().trusted);
}

}  // namespace
}  // namespace ep::os
