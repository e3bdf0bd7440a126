// Randomized churn property test: thousands of seeded random namespace
// operations must keep the VFS structurally consistent, keep canonical
// paths resolvable, and never break the parent links — the invariants the
// perturbers rely on when they rewire worlds mid-campaign.
#include <gtest/gtest.h>

#include "os/vfs.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ep::os {
namespace {

class ChurnMachine {
 public:
  explicit ChurnMachine(std::uint64_t seed) : rng_(seed) {
    dirs_.push_back(vfs_.root());
  }

  void step() {
    switch (rng_.below(6)) {
      case 0: create_file(); break;
      case 1: create_dir(); break;
      case 2: create_symlink(); break;
      case 3: remove_something(); break;
      case 4: rename_something(); break;
      case 5: detach_something(); break;
    }
  }

  void verify() {
    ASSERT_TRUE(vfs_.check_invariants().empty()) << vfs_.check_invariants();
    // Every reachable path must canonicalize back to itself.
    for (const auto& p : vfs_.list_all_paths()) {
      auto r = vfs_.resolve(p, "/", kRootUid, kRootGid,
                            /*follow_final=*/false);
      ASSERT_TRUE(r.ok()) << p;
      ASSERT_EQ(vfs_.canonical_path(r.value()), p);
    }
  }

 private:
  std::string fresh_name() { return "n" + std::to_string(counter_++); }

  Ino random_dir() {
    // Directories may have been detached; prune dead ones lazily.
    while (!dirs_.empty()) {
      std::size_t i = rng_.below(dirs_.size());
      Ino d = dirs_[i];
      if (vfs_.exists(d) && vfs_.inode(d).is_dir() &&
          (d == vfs_.root() ||
           !ep::starts_with(vfs_.canonical_path(d), "<detached"))) {
        return d;
      }
      dirs_.erase(dirs_.begin() + static_cast<long>(i));
    }
    return vfs_.root();
  }

  void create_file() {
    (void)vfs_.create_file(random_dir(), fresh_name(), kRootUid, kRootGid,
                           0644, "x");
  }
  void create_dir() {
    auto r = vfs_.create_dir(random_dir(), fresh_name(), kRootUid, kRootGid,
                             0755);
    if (r.ok()) dirs_.push_back(r.value());
  }
  void create_symlink() {
    auto all = vfs_.list_all_paths();
    std::string target = all.empty() ? "/nowhere" : rng_.pick(all);
    (void)vfs_.create_symlink(random_dir(), fresh_name(), kRootUid, kRootGid,
                              target);
  }
  void remove_something() {
    Ino d = random_dir();
    const Inode& dir = vfs_.inode(d);
    if (dir.entries.empty()) return;
    std::size_t i = rng_.below(dir.entries.size());
    auto it = dir.entries.begin();
    std::advance(it, static_cast<long>(i));
    std::string name = it->first;
    if (vfs_.inode(it->second).is_dir())
      (void)vfs_.remove_dir(d, name);
    else
      (void)vfs_.remove(d, name);
  }
  void rename_something() {
    Ino from = random_dir();
    const Inode& dir = vfs_.inode(from);
    if (dir.entries.empty()) return;
    std::size_t i = rng_.below(dir.entries.size());
    auto it = dir.entries.begin();
    std::advance(it, static_cast<long>(i));
    std::string name = it->first;
    Ino moving = it->second;
    Ino to = random_dir();
    // Moving a directory under itself would create a cycle; the churn
    // machine only moves non-directories across dirs.
    if (vfs_.inode(moving).is_dir() && to != from) return;
    (void)vfs_.rename_entry(from, name, to, fresh_name());
  }
  void detach_something() {
    Ino d = random_dir();
    const Inode& dir = vfs_.inode(d);
    if (dir.entries.empty()) return;
    std::size_t i = rng_.below(dir.entries.size());
    auto it = dir.entries.begin();
    std::advance(it, static_cast<long>(i));
    vfs_.detach(d, it->first);
  }

  Vfs vfs_;
  Rng rng_;
  std::vector<Ino> dirs_;
  int counter_ = 0;
};

class VfsChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VfsChurn, InvariantsSurviveThousandRandomOps) {
  ChurnMachine machine(GetParam());
  for (int i = 0; i < 1000; ++i) {
    machine.step();
    if (i % 100 == 99) machine.verify();
  }
  machine.verify();
}

INSTANTIATE_TEST_SUITE_P(Seeds, VfsChurn,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace ep::os
