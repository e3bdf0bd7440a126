// Clone semantics of the copy-on-write world snapshot layer: a clone is
// observably identical to its prototype at birth, and no mutation of a
// clone — VFS writes, deletes, permission/ownership perturbations,
// symlink churn, network or registry state — ever leaks into the
// prototype or into sibling clones.
#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/oracle.hpp"
#include "os/world.hpp"

namespace ep::core {
namespace {

using os::Ino;
using os::Kernel;
using os::OpenFlag;
using os::Site;

const Site kS{"snap.c", 1, "snap-probe"};

std::unique_ptr<TargetWorld> small_world() {
  auto w = std::make_unique<TargetWorld>();
  Kernel& k = w->kernel;
  os::world::standard_unix(k);
  k.add_user(1000, "alice", 1000);
  os::world::put_file(k, "/data/config", "setting=1\n", os::kRootUid, 0,
                      0644);
  os::world::put_file(k, "/data/secret", "classified\n", os::kRootUid, 0,
                      0600);
  os::world::put_symlink(k, "/data/alias", "/data/config");
  os::world::mkdirs(k, "/data/sub", 1000, 1000, 0755);

  net::ServiceDef svc;
  svc.name = "authd";
  svc.handler = [](const net::Message& m) { return m; };
  w->network.define_service(svc);

  reg::Key key;
  key.path = "HKLM/Software/Probe";
  key.value = "benign";
  w->registry.define_key(key);
  return w;
}

/// Root-privileged read used by every leak assertion.
std::string content_of(const TargetWorld& w, const std::string& p) {
  auto r = w.kernel.peek(p);
  return r.ok() ? r.value() : "<" + std::string(err_name(r.error())) + ">";
}

TEST(WorldClone, CloneSeesPrototypeStateAndSharesNodes) {
  auto proto = small_world();
  auto snap = WorldSnapshot::freeze(std::move(proto));
  auto clone = snap->instantiate();

  EXPECT_EQ(clone->kernel.vfs().list_all_paths(),
            snap->prototype().kernel.vfs().list_all_paths());
  EXPECT_EQ(content_of(*clone, "/data/config"), "setting=1\n");
  // Until first write, the clone's nodes are literally the prototype's.
  auto r = clone->kernel.vfs().resolve("/data/config", "/", os::kRootUid, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(clone->kernel.vfs().shares_node(r.value()));
}

TEST(WorldClone, WriteInCloneNeverReachesPrototypeOrSibling) {
  auto snap = WorldSnapshot::freeze(small_world());
  auto a = snap->instantiate();
  auto b = snap->instantiate();

  os::Pid pid = a->kernel.make_process(os::kRootUid, 0, "/");
  auto fd = a->kernel.open(kS, pid, "/data/config", OpenFlag::wr);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(a->kernel.write(kS, pid, fd.value(), "tampered=1\n").ok());

  EXPECT_EQ(content_of(*a, "/data/config"), "tampered=1\n");
  EXPECT_EQ(content_of(*b, "/data/config"), "setting=1\n");
  EXPECT_EQ(content_of(snap->prototype(), "/data/config"), "setting=1\n");
  // The written node is unshared in a; b still shares with the prototype.
  auto ra = a->kernel.vfs().resolve("/data/config", "/", os::kRootUid, 0);
  EXPECT_FALSE(a->kernel.vfs().shares_node(ra.value()));
}

TEST(WorldClone, DeleteInCloneKeepsPathAliveElsewhere) {
  auto snap = WorldSnapshot::freeze(small_world());
  auto a = snap->instantiate();
  auto b = snap->instantiate();

  os::Pid pid = a->kernel.make_process(os::kRootUid, 0, "/");
  ASSERT_TRUE(a->kernel.unlink(kS, pid, "/data/secret").ok());

  EXPECT_EQ(content_of(*a, "/data/secret"), "<ENOENT>");
  EXPECT_EQ(content_of(*b, "/data/secret"), "classified\n");
  EXPECT_EQ(content_of(snap->prototype(), "/data/secret"), "classified\n");
  EXPECT_TRUE(a->kernel.vfs().check_invariants().empty());
  EXPECT_TRUE(b->kernel.vfs().check_invariants().empty());
}

TEST(WorldClone, PermissionAndOwnershipPerturbationsStayPrivate) {
  auto snap = WorldSnapshot::freeze(small_world());
  auto a = snap->instantiate();

  auto r = a->kernel.vfs().resolve("/data/secret", "/", os::kRootUid, 0);
  ASSERT_TRUE(r.ok());
  os::Inode& node = a->kernel.vfs().mutate(r.value());
  node.mode = 0666;  // the file-permission perturbation
  node.uid = 1000;   // the file-ownership perturbation
  node.gid = 1000;

  const auto& pk = snap->prototype().kernel;
  auto pr = pk.vfs().resolve("/data/secret", "/", os::kRootUid, 0);
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pk.vfs().inode(pr.value()).mode, 0600u);
  EXPECT_EQ(pk.vfs().inode(pr.value()).uid, os::kRootUid);
  // Still locked down in the prototype, readable by alice in the clone.
  EXPECT_FALSE(pk.uid_can(1000, 1000, "/data/secret", os::Perm::read));
  EXPECT_TRUE(a->kernel.uid_can(1000, 1000, "/data/secret", os::Perm::read));
}

TEST(WorldClone, SymlinkChurnStaysPrivate) {
  auto snap = WorldSnapshot::freeze(small_world());
  auto a = snap->instantiate();
  auto b = snap->instantiate();

  // Retarget the existing link in a; replace a regular file by a link in b
  // (the two halves of the symbolic-link perturbation).
  auto ra = a->kernel.vfs().resolve("/data/alias", "/", os::kRootUid, 0,
                                    /*follow_final=*/false);
  ASSERT_TRUE(ra.ok());
  a->kernel.vfs().mutate(ra.value()).content = "/etc/shadow";

  auto rb = b->kernel.vfs().resolve_parent("/data/config", "/", os::kRootUid,
                                           0);
  ASSERT_TRUE(rb.ok());
  b->kernel.vfs().detach(rb.value().dir_ino, rb.value().leaf);
  ASSERT_TRUE(b->kernel.vfs()
                  .create_symlink(rb.value().dir_ino, rb.value().leaf, 666,
                                  666, "/etc/shadow")
                  .ok());

  // a: alias now leaks the shadow file; b: config does (and so does b's
  // alias, which still points at config). Nobody else sees either change.
  EXPECT_EQ(content_of(*a, "/data/alias"), os::world::kShadowContent);
  EXPECT_EQ(content_of(*a, "/data/config"), "setting=1\n");
  EXPECT_EQ(content_of(*b, "/data/config"), os::world::kShadowContent);
  EXPECT_EQ(content_of(*b, "/data/alias"), os::world::kShadowContent);
  EXPECT_EQ(content_of(snap->prototype(), "/data/alias"), "setting=1\n");
  EXPECT_EQ(content_of(snap->prototype(), "/data/config"), "setting=1\n");
  EXPECT_TRUE(a->kernel.vfs().check_invariants().empty());
  EXPECT_TRUE(b->kernel.vfs().check_invariants().empty());
  EXPECT_TRUE(snap->prototype().kernel.vfs().check_invariants().empty());
}

TEST(WorldClone, NetworkAndRegistryAreValueCopied) {
  auto snap = WorldSnapshot::freeze(small_world());
  auto a = snap->instantiate();

  a->network.set_service_available("authd", false);
  a->registry.set_value("HKLM/Software/Probe", "tampered");
  a->registry.remove_key("HKLM/Software/Probe");

  EXPECT_FALSE(a->network.service_available("authd"));
  EXPECT_TRUE(snap->prototype().network.service_available("authd"));
  EXPECT_EQ(a->registry.find("HKLM/Software/Probe"), nullptr);
  const reg::Key* key = snap->prototype().registry.find("HKLM/Software/Probe");
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->value, "benign");
}

TEST(WorldClone, KernelReachesTheSubstratesOfItsOwnWorld) {
  auto snap = WorldSnapshot::freeze(small_world());
  auto a = snap->instantiate();
  EXPECT_EQ(a->kernel.network(), &a->network);
  EXPECT_EQ(a->kernel.registry(), &a->registry);
  EXPECT_NE(a->kernel.network(), &snap->prototype().network);
}

TEST(WorldClone, HookChainIsNeverCloned) {
  auto w = small_world();
  auto oracle = std::make_shared<SecurityOracle>(PolicySpec{});
  w->kernel.add_interposer(oracle);
  EXPECT_EQ(w->kernel.interposer_count(), 1u);
  auto c = w->clone();
  EXPECT_EQ(c->kernel.interposer_count(), 0u);
}

TEST(WorldSnapshotTest, FreezeRejectsHookedOrNullPrototypes) {
  auto w = small_world();
  w->kernel.add_interposer(std::make_shared<SecurityOracle>(PolicySpec{}));
  EXPECT_THROW(WorldSnapshot::freeze(std::move(w)), std::logic_error);
  EXPECT_THROW(WorldSnapshot::freeze(nullptr), std::logic_error);
}

TEST(WorldSnapshotTest, ClonedRunMatchesFreshBuildRun) {
  // The toy scenario end to end: spawning the program in a clone produces
  // the same console and exit code as in a freshly built world.
  Scenario s = toy_scenario();
  auto fresh = s.build();
  int fresh_rc = s.run(*fresh);

  auto snap = WorldSnapshot::freeze(s.build());
  auto cloned = snap->instantiate();
  int cloned_rc = s.run(*cloned);

  EXPECT_EQ(fresh_rc, cloned_rc);
  EXPECT_EQ(fresh->kernel.console(), cloned->kernel.console());
  EXPECT_EQ(fresh->kernel.vfs().list_all_paths(),
            cloned->kernel.vfs().list_all_paths());
  // And the run's writes stayed out of the prototype.
  EXPECT_EQ(content_of(snap->prototype(), "/toy/out/result.txt"), "<ENOENT>");
}

TEST(WorldSnapshotTest, ConcurrentClonesMutateIndependently) {
  // The TSan target: many workers cloning one frozen prototype and
  // hammering their private worlds concurrently.
  auto snap = WorldSnapshot::freeze(small_world());
  constexpr int kWorkers = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  pool.reserve(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    pool.emplace_back([&snap, &failures, t] {
      auto w = snap->instantiate();
      os::Pid pid = w->kernel.make_process(os::kRootUid, 0, "/");
      std::string mine = "worker-" + std::to_string(t) + "\n";
      for (int i = 0; i < 50; ++i) {
        auto fd = w->kernel.open(kS, pid, "/data/config",
                                 OpenFlag::wr | OpenFlag::trunc);
        if (!fd.ok() || !w->kernel.write(kS, pid, fd.value(), mine).ok()) {
          ++failures;
          return;
        }
        (void)w->kernel.close(pid, fd.value());
        (void)w->kernel.unlink(kS, pid, "/data/secret");
        (void)w->kernel.symlink(kS, pid, "/etc/shadow",
                                "/data/link" + std::to_string(i));
      }
      if (content_of(*w, "/data/config") != mine) ++failures;
      if (!w->kernel.vfs().check_invariants().empty()) ++failures;
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(content_of(snap->prototype(), "/data/config"), "setting=1\n");
  EXPECT_EQ(content_of(snap->prototype(), "/data/secret"), "classified\n");
  EXPECT_TRUE(snap->prototype().kernel.vfs().check_invariants().empty());
}

TEST(WorldSnapshotTest, ConcurrentClonesWriteTheRegistryIndependently) {
  // The TSan target for the shared key table: every clone starts on the
  // prototype's table, and its first write copies the table privately.
  constexpr int kWorkers = 8;
  auto worker_key = [](int t) {
    return "HKLM/Software/Worker" + std::to_string(t);
  };
  auto proto = small_world();
  for (int t = 0; t < kWorkers; ++t) {
    reg::Key key;
    key.path = worker_key(t);
    key.value = "benign";
    proto->registry.define_key(key);
  }
  auto snap = WorldSnapshot::freeze(std::move(proto));
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  pool.reserve(kWorkers);
  for (int t = 0; t < kWorkers; ++t) {
    pool.emplace_back([&snap, &failures, &worker_key, t] {
      auto w = snap->instantiate();
      os::Pid pid = w->kernel.make_process(os::kRootUid, 0, "/");
      const std::string mine = "written-" + std::to_string(t);
      if (!w->registry.write_value(w->kernel, kS, pid, worker_key(t), mine)
               .ok())
        ++failures;
      for (int u = 0; u < kWorkers; ++u) {
        const reg::Key* key = w->registry.find(worker_key(u));
        if (!key || key->value != (u == t ? mine : "benign")) ++failures;
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  const reg::Registry& registry = snap->prototype().registry;
  for (int t = 0; t < kWorkers; ++t) {
    ASSERT_NE(registry.find(worker_key(t)), nullptr);
    EXPECT_EQ(registry.find(worker_key(t))->value, "benign");
  }
  EXPECT_EQ(registry.find("HKLM/Software/Probe")->value, "benign");
}

}  // namespace
}  // namespace ep::core
