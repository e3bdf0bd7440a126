// Procedure steps 4-8 as a parallel engine.
//
// The Executor drains an InjectionPlan across a pool of worker threads.
// Each work item is one full rebuild-and-rerun cycle, and each cycle runs
// in its own fresh TargetWorld — built by the scenario's `build` callback,
// or cloned copy-on-write from the plan's frozen prototype when the
// scenario is snapshot-safe (see core/snapshot.hpp) — the
// thread-confinement rule: kernel, VFS, network, and registry state are
// owned by exactly one run and never shared mutably. The only state
// workers share is immutable (the plan, the scenario definition, the
// fault catalog, the frozen prototype), so outcome i is independent of
// scheduling and is written to result slot i — the result is
// bit-identical for any worker count, cached or not.
#pragma once

#include <cstddef>
#include <functional>

#include "core/planner.hpp"

namespace ep::core {

struct ExecutorOptions {
  /// Worker threads draining the plan. 1 = run serially on the calling
  /// thread (no threads spawned); n > 1 spawns n-1 helpers plus the
  /// calling thread.
  int jobs = 1;
  /// Clone the plan's frozen prototype world per run instead of calling
  /// scenario.build(). No effect on plans without a snapshot (scenario
  /// not snapshot-safe, or planned with caching off).
  bool use_world_cache = true;
  /// Validate redzone poison during each run and in the end-of-run sweep
  /// (see os/redzone.hpp). `epa_cli --no-redzone` is the escape hatch;
  /// with no corruption the results are byte-identical either way.
  bool use_redzone = true;
};

/// Section 4.1's assumption analysis for one violating outcome, judged
/// against a fresh *benign* world (who could actually effect the
/// perturbation there?).
[[nodiscard]] Exploitability analyze_exploitability(
    const Scenario& scenario, const InteractionPoint& point,
    const FaultRef& fault);

/// Same analysis against an already-built benign world (read-only): the
/// cached path judges against the frozen prototype without building or
/// even cloning.
[[nodiscard]] Exploitability analyze_exploitability(
    const TargetWorld& benign, const InteractionPoint& point,
    const FaultRef& fault);

/// Run fn(0) ... fn(count-1) across `jobs` threads via a shared work
/// queue. Call order across threads is unspecified; exceptions are
/// collected per index and the lowest-index one is rethrown after all
/// workers finish, so failure behavior is deterministic too.
void parallel_for(std::size_t count, int jobs,
                  const std::function<void(std::size_t)>& fn);

/// The lease grain when none is given: items / (workers * 4), at least 1
/// (workers < 1 counts as one, as in parallel_for). Four leases per
/// worker keep rebalancing around stragglers and preemptions
/// fine-grained without paying a lease per item. A fleet's leases and the
/// MultiCampaign scheduler's scenario leases are both sized by it.
std::size_t lease_grain(std::size_t items, int workers);

/// The CampaignResult a drained plan fills in: every plan-derived field
/// copied over (the work items included, so slot i's names are item i's)
/// and `injections` sized one slot per work item. Executor::execute, the
/// MultiCampaign scheduler and merge_shard_reports assemble results
/// through this, so the plan-to-result mapping lives in one place.
[[nodiscard]] CampaignResult result_skeleton(const InjectionPlan& plan);

class Executor {
 public:
  /// `scenario` must outlive the executor (the campaign owns it).
  explicit Executor(const Scenario& scenario);

  /// Drain the plan and assemble the CampaignResult. Injection outcomes
  /// appear in plan-item order regardless of `jobs`.
  [[nodiscard]] CampaignResult execute(const InjectionPlan& plan,
                                       const ExecutorOptions& opts = {}) const;

  /// Drain only the given plan items (by stable id = plan index), across
  /// the same worker pool; outcome i corresponds to item_ids[i]. Ids must
  /// be in range; duplicates are allowed but wasteful. run_lease and
  /// resume_shard (core/wire.hpp) drain every shard and lease through
  /// this. The subset is drained in chunks of `checkpoint_every` items
  /// (0 = one chunk), `on_checkpoint` (may be null) is invoked with the
  /// completed prefix (parallel to the first completed.size() item_ids)
  /// after each chunk except the last, and `stop` (may be null) is polled
  /// before each chunk — returning true ends the drain early. The
  /// returned outcomes are the completed prefix, so a preempted shard
  /// keeps everything it finished. Equal prefixes are bit-identical to an
  /// uninterrupted drain for any chunk size or job count.
  [[nodiscard]] std::vector<InjectionOutcome> execute_subset_checkpointed(
      const InjectionPlan& plan, const std::vector<std::size_t>& item_ids,
      std::size_t checkpoint_every,
      const std::function<void(const std::vector<InjectionOutcome>&)>&
          on_checkpoint,
      const std::function<bool()>& stop,
      const ExecutorOptions& opts = {}) const;

  /// One rebuild-and-rerun cycle (steps 4-8) for a single work item.
  /// Thread-safe: touches only the fresh world it builds or clones. The
  /// scheduler's shared pool calls this directly. `opts.jobs` is ignored
  /// (a single item has no inner parallelism).
  [[nodiscard]] InjectionOutcome run_item(const InjectionPlan& plan,
                                          const WorkItem& item,
                                          const ExecutorOptions& opts = {})
      const;

 private:
  const Scenario& scenario_;
};

}  // namespace ep::core
