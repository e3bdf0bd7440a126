// Procedure steps 1-3 as a standalone layer.
//
// The Planner performs the trace-discovery run (step 3), applies the
// scenario's site judgments and step 9's coverage target, and plans the
// fault list per interaction point — emitting an InjectionPlan: an
// ordered, immutable list of (site, fault) work items. Everything that
// consults shared state (the fault catalog, the scenario's SiteSpec map,
// the sampling RNG) happens here, on one thread, before any injection
// runs; the Executor then drains the plan with no planning decisions left
// to make. That split is what allows the drain to be parallel.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/snapshot.hpp"

namespace ep::core {

/// Version of the plan/shard-report wire format (docs/WIRE_FORMAT.md).
/// Bumped whenever a serialized field changes meaning, is removed, or a
/// new required field appears; readers reject unknown versions rather
/// than guess. Version 2 admits the `redzone-corruption` violation policy
/// (a version-1 reader would choke on the new name). The reader accepts
/// only the version this build writes: a version-1 file is refused with
/// the version it reads (wire_detail::check_header).
inline constexpr int kPlanSchemaVersion = 2;

/// The planner's output: everything an executor needs to run the campaign,
/// with no further decisions to make. Work items are in plan order —
/// selected points in trace order, faults in catalog order — and executor
/// output order equals item order regardless of how many workers drain it.
struct InjectionPlan {
  std::string scenario_name;
  std::vector<InteractionPoint> points;  // step 3: all discovered
  std::vector<Violation> benign_violations;
  /// Sites that count as perturbed once the plan is drained (includes
  /// equivalence-class co-members when merging was requested).
  std::set<std::string> perturbed_site_tags;
  std::vector<WorkItem> items;
  /// Frozen prototype world, set when the scenario is snapshot-safe and
  /// the campaign asked for world caching: the executor clones it per run
  /// instead of calling scenario.build(). Not serialized — a plan rebuilt
  /// from JSON on another machine re-freezes its own prototype from the
  /// local Scenario (see refreeze_snapshot in core/wire.hpp); the
  /// snapshot is a local amortization, not plan semantics.
  std::shared_ptr<const WorldSnapshot> snapshot;

  [[nodiscard]] const InteractionPoint& point_of(const WorkItem& w) const {
    return points[w.point_index];
  }
  /// Machine-readable form of the plan (docs/WIRE_FORMAT.md). The plan is
  /// the engine's unit of distribution: a serialized plan can be split
  /// across processes or machines and each shard drained independently.
  /// Work item i carries the stable id i (dense, in plan order); shard
  /// K/N (1-based, as on the CLI) owns the items with id % N == K-1.
  /// Canonical output: parsing with
  /// plan_from_json (core/wire.hpp) and re-serializing reproduces the
  /// bytes verbatim.
  [[nodiscard]] std::string to_json() const;
};

class Planner {
 public:
  /// `scenario` must outlive the planner (the campaign owns it). The
  /// catalog reference is resolved once here, so no worker thread ever
  /// touches the singleton accessor.
  explicit Planner(const Scenario& scenario);

  [[nodiscard]] InjectionPlan plan(const CampaignOptions& opts = {}) const;

  /// Step 3's per-point fault decision — both kinds where the point has
  /// input, direct only where it does not, honoring the scenario's
  /// explicit fault lists and not-applicable judgments.
  [[nodiscard]] std::vector<FaultRef> plan_faults(
      const InteractionPoint& point) const;

 private:
  const Scenario& scenario_;
  const FaultCatalog& catalog_;
};

}  // namespace ep::core
