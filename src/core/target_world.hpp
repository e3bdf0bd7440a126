// The complete simulated environment a scenario runs in: one kernel (file
// system + processes), one network, one registry. Campaign runs construct
// a fresh TargetWorld per injection, which is what makes runs independent
// (no perturbation outlives its run).
//
// clone() produces that fresh world from an already-built one at a
// fraction of the build cost: the kernel copy shares VFS inodes and its
// user/image tables copy-on-write (see os/vfs.hpp, util/cow.hpp), the
// registry shares its key table the same way, and the network is small
// value-copied state. A run's perturbations unshare only the nodes and
// tables they touch, so a clone is observably identical to a fresh build
// of the same world while never leaking writes back into its source. The
// interposer chain is never cloned (hooks are per-run); clone the world
// first, then arm injector and oracle.
#pragma once

#include <memory>
#include <new>

#include "net/network.hpp"
#include "os/kernel.hpp"
#include "reg/registry.hpp"

namespace ep::core {

struct TargetWorld {
  os::Kernel kernel;
  net::Network network;
  reg::Registry registry;

  TargetWorld() { wire(); }
  TargetWorld& operator=(const TargetWorld&) = delete;

  /// Cheap copy-on-write copy of this world. Worlds with interposers
  /// installed must not be cloned (the chain is deliberately dropped —
  /// cloning one would silently un-arm it); see WorldSnapshot::freeze,
  /// which enforces this.
  [[nodiscard]] std::unique_ptr<TargetWorld> clone() const {
    return std::unique_ptr<TargetWorld>(new TargetWorld(*this));
  }

  /// clone() into caller-provided storage (placement new): the
  /// WorldArena's per-worker reuse path, which keeps the executor hot
  /// loop from paying one heap allocation per run. `storage` must be
  /// sizeof(TargetWorld) bytes with alignof(TargetWorld) alignment, and
  /// the caller owns calling the destructor. The clone is observably
  /// identical to clone() — wire() re-points the kernel at the new
  /// storage's own substrates.
  TargetWorld* clone_into(void* storage) const {
    return new (storage) TargetWorld(*this);
  }

 private:
  TargetWorld(const TargetWorld& other)
      : kernel(other.kernel),
        network(other.network),
        registry(other.registry) {
    wire();
  }

  /// Point the kernel at *this* world's substrates, so app images reach
  /// the network/registry of the world they are running in — never the
  /// prototype a clone was made from.
  void wire() { kernel.attach_substrates(&network, &registry); }

 public:
  /// End-of-run redzone sweep across every substrate that carries guard
  /// regions: the kernel (live app-buffer guards, then VFS inodes) and
  /// the registry (key values). Lives here because reg depends on os,
  /// not the other way around — the kernel cannot drive the registry's
  /// sweep itself. Reports flow through the kernel's hook chain, so run
  /// it while the run's oracle is still installed (the executor does).
  /// No-op when the kernel's redzone audit is off.
  void validate_redzones() {
    kernel.validate_redzones();
    registry.validate_redzones(kernel);
  }
};

}  // namespace ep::core
