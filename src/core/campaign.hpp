// The testing procedure of Section 3.3, steps 1-10, as an engine.
//
// A Scenario packages everything the procedure needs: how to build the
// benign world, how to run the test case, which security policy defines
// "violation", and (optionally) per-site fault lists — the analogue of the
// paper deciding, per interaction point, which Table 5/6 rows apply and
// which are "not applicable in this case".
//
// The engine is split into three layers (see planner.hpp, executor.hpp,
// scheduler.hpp):
//
//   * the Planner runs the trace-discovery pass and plans a fault list
//     per interaction point (steps 1-3), emitting a serializable
//     InjectionPlan of (site, fault) work items;
//   * the Executor drains the plan — one fresh TargetWorld per item —
//     across a configurable worker pool (steps 4-8), plus the Section 4.1
//     assumption analysis for each violating outcome;
//   * the MultiCampaign scheduler fans whole scenario suites through one
//     shared pool.
//
// Campaign is the single-scenario facade over the first two: execute()
// plans, then drains with CampaignOptions::jobs workers, and the result —
// fault coverage, interaction coverage, rho = count/n, the Figure 2
// adequacy region (steps 9-10) — is bit-identical for any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/catalog.hpp"
#include "core/coverage.hpp"
#include "core/oracle.hpp"
#include "core/trace.hpp"

namespace ep::core {

/// Per-site overrides: the scenario's judgment about an interaction point.
struct SiteSpec {
  /// Override the inferred object kind (ObjectKind::none = infer).
  ObjectKind kind = ObjectKind::none;
  std::optional<InputSemantic> semantic;
  /// Explicit fault list (catalog names). Empty = catalog defaults for the
  /// object kind / semantic.
  std::vector<std::string> faults;
  /// Faults deliberately not injected, with the reason — the paper's
  /// "attributes 5 and 6 are not applicable in this case". Documentation
  /// only; they are simply absent from `faults`.
  std::map<std::string, std::string> not_applicable;
  /// Exclude the site from perturbation entirely (it still counts as a
  /// discovered interaction point in the coverage denominator).
  bool skip = false;
};

struct Scenario {
  std::string name;
  std::string description;
  /// Build the benign world: file system, users, programs, network,
  /// registry. Called fresh for every injection run — unless the scenario
  /// declares snapshot_safe, in which case the engine may call it once
  /// and clone the frozen result per run.
  std::function<std::unique_ptr<TargetWorld>()> build;
  /// Scenario author's declaration that build() meets the snapshot-safety
  /// contract (see core/snapshot.hpp): deterministic, self-contained, no
  /// interposers. Opt-in — the engine only reuses worlds across runs when
  /// this is set, so an unsafe build() merely forfeits the speedup.
  bool snapshot_safe = false;
  /// Run the test case (spawn the target program(s)); returns the
  /// (last) exit code.
  std::function<int(TargetWorld&)> run;
  PolicySpec policy;
  ScenarioHints hints;
  std::map<std::string, SiteSpec> sites;  // keyed by Site::tag
  /// Restrict interaction-point discovery to this Site::unit (the program
  /// under test); empty = record every unit.
  std::string trace_unit_filter;
};

/// Could the perturbation that exposed a violation be effected by a real,
/// unprivileged actor in the benign world? (Section 4.1's "is this
/// assumption reasonable?")
struct Exploitability {
  bool nonroot_feasible = false;
  std::string actor;  // who could do it: "invoking user", "owner (ta)", ...
  std::string note;
};

/// One (interaction point, fault) pair: exactly one rebuild-and-rerun
/// cycle of procedure steps 4-8. `param` is the perturbation parameter:
/// 0 means the scenario's stock hints (every exhaustive-plan item), any
/// other value seeds a deterministic hint mutation before the run (the
/// search layer's third mutation axis — see core/search.hpp). The
/// outcome of an item is a pure function of (point, fault, param).
struct WorkItem {
  std::size_t point_index = 0;  // into the plan's points
  FaultRef fault;
  std::uint64_t param = 0;
};

/// What one run decided about its plan item: the verdict and its
/// evidence, nothing the plan already names. The item's interaction point
/// and fault live only in the plan (CampaignResult::point_of/fault_of by
/// the outcome's slot), so an outcome has the same shape in memory as on
/// the wire.
struct InjectionOutcome {
  bool fired = false;     // the planned site executed and the fault applied
  bool violated = false;  // >= 1 policy violation observed
  std::vector<Violation> violations;
  bool crashed = false;
  int overflows = 0;
  int exit_code = 0;
  Exploitability exploit;  // filled only for violated outcomes
};

struct CampaignResult {
  std::string scenario_name;
  std::vector<InteractionPoint> points;       // step 3: discovered
  std::set<std::string> perturbed_site_tags;  // sites actually perturbed
  std::vector<WorkItem> items;                // the plan's items, by id
  std::vector<InjectionOutcome> injections;   // slot i decides items[i]
  std::vector<Violation> benign_violations;   // should be empty

  [[nodiscard]] int n() const { return static_cast<int>(injections.size()); }
  /// The interaction point and fault plan item `id` perturbed: the names
  /// behind outcome `injections[id]`.
  [[nodiscard]] const InteractionPoint& point_of(std::size_t id) const {
    return points[items[id].point_index];
  }
  [[nodiscard]] const FaultRef& fault_of(std::size_t id) const {
    return items[id].fault;
  }
  [[nodiscard]] int violation_count() const;
  [[nodiscard]] int tolerated_count() const;
  /// Step 10: rho = count / n, the vulnerability assessment score.
  [[nodiscard]] double vulnerability_score() const;
  [[nodiscard]] double fault_coverage() const;  // 1 - rho
  [[nodiscard]] double interaction_coverage() const;
  [[nodiscard]] AdequacyPoint adequacy() const;
  [[nodiscard]] AdequacyRegion region(const AdequacyThresholds& t = {}) const;
  /// Ids of the violating outcomes whose perturbation an unprivileged
  /// actor could actually effect: candidate real vulnerabilities.
  [[nodiscard]] std::vector<std::size_t> exploitable() const;
};

struct CampaignOptions {
  /// Step 9's stopping rule: keep perturbing sites until this fraction of
  /// interaction points is covered. 1.0 = all.
  double target_interaction_coverage = 1.0;
  /// Restrict to specific site tags (Figure 2's partial-coverage points);
  /// empty = honor target_interaction_coverage.
  std::vector<std::string> only_sites;
  std::uint64_t seed = 1;
  /// The paper's future-work reduction (see core/equivalence.hpp): inject
  /// only at one representative per injection-equivalence class. The
  /// other members still count as covered — the equivalence argument is
  /// precisely that their outcomes are determined by the representative's.
  bool merge_equivalent_sites = false;
  /// Worker threads draining the injection plan (see executor.hpp).
  /// 1 = serial. Any value yields the identical CampaignResult.
  int jobs = 1;
  /// Amortize world builds: plan a frozen prototype world for
  /// snapshot-safe scenarios and clone it per run (see core/snapshot.hpp).
  /// Off = the paper's original rebuild-per-run procedure, the reference
  /// path the cached-world tests compare against. Either setting yields
  /// the identical CampaignResult; this only trades build time for clone
  /// time.
  bool use_world_cache = true;
  /// Validate redzone poison on syscalls and at run teardown (see
  /// os/redzone.hpp; the CLI's --no-redzone escape hatch). With no
  /// corruption, either setting yields the identical CampaignResult.
  bool use_redzone = true;
};

class Campaign {
 public:
  explicit Campaign(Scenario scenario);

  [[nodiscard]] CampaignResult execute(const CampaignOptions& opts = {});

 private:
  Scenario scenario_;
};

}  // namespace ep::core
