// World-build caching: freeze one prototype TargetWorld per scenario and
// clone it per injection run instead of rebuilding from scratch.
//
// scenario.build() dominates per-run cost (every run re-creates the same
// directories, files, users, images, services, and keys), yet the built
// world is identical every time for a snapshot-safe scenario. The
// Planner therefore builds the world once, freezes it here, and the
// Executor hands every worker a copy-on-write clone() — same observable
// start state, none of the build work.
//
// Snapshot-safety contract (what Scenario::snapshot_safe asserts):
//   * build() is deterministic — same world every call;
//   * build() is self-contained — the world references no mutable state
//     outside itself (service handlers and app images must be stateless
//     or capture only immutables);
//   * build() installs no interposers — hooks are per-run and freeze()
//     rejects a hooked prototype outright.
// Under that contract a cloned run is bit-identical to a fresh-build run
// (tests/integration/cached_world_test.cpp holds every packaged scenario
// to it).
//
// Thread-safety: the frozen prototype is immutable, so any number of
// workers may instantiate() concurrently — cloning only reads the
// prototype and bumps atomic refcounts; each clone then confines its
// writes to nodes it unshares (see os/vfs.hpp).
#pragma once

#include <memory>

#include "core/target_world.hpp"

namespace ep::core {

class WorldSnapshot {
 public:
  /// Take ownership of a freshly built world and freeze it as the
  /// prototype. Throws std::logic_error if the world already has
  /// interposers installed: clone() drops the hook chain, so freezing a
  /// hooked world would silently disarm every run.
  static std::shared_ptr<const WorldSnapshot> freeze(
      std::unique_ptr<TargetWorld> prototype);

  /// A fresh per-run world: copy-on-write clone of the prototype.
  [[nodiscard]] std::unique_ptr<TargetWorld> instantiate() const {
    return prototype_->clone();
  }

  /// Read access to the frozen world (exploitability analysis judges
  /// against the benign prototype without even cloning).
  [[nodiscard]] const TargetWorld& prototype() const { return *prototype_; }

 private:
  explicit WorldSnapshot(std::unique_ptr<TargetWorld> prototype)
      : prototype_(std::move(prototype)) {}

  std::unique_ptr<const TargetWorld> prototype_;
};

/// A per-worker clone arena: one TargetWorld-sized allocation, reused
/// for every run the worker drains. instantiate() destroys the previous
/// occupant and placement-clones the prototype into the same storage —
/// the executor hot loop pays the clone's member copies but not a heap
/// allocation per run. A clone is storage-location-independent (the
/// kernel is re-wired to the new storage's own substrates), so arena
/// clones are observably identical to heap clones. Every cached-path run
/// the executor drains is an arena clone.
///
/// Not thread-safe: one arena per worker thread (the executor keeps one
/// in thread_local storage). The arena owns the occupant's lifetime —
/// destruction runs the world's destructor in place.
class WorldArena {
 public:
  WorldArena() = default;
  WorldArena(const WorldArena&) = delete;
  WorldArena& operator=(const WorldArena&) = delete;
  ~WorldArena();

  /// Clone `snapshot`'s prototype into the arena's storage, replacing
  /// (destroying) whatever run's world occupied it before. The returned
  /// reference stays valid until the next instantiate()/reset().
  TargetWorld& instantiate(const WorldSnapshot& snapshot);

  /// Destroy the occupant (if any), keeping the storage for reuse.
  void reset();

 private:
  void* storage_ = nullptr;
  TargetWorld* world_ = nullptr;
};

}  // namespace ep::core
