// The MultiCampaign scheduler: many scenarios, one shared worker pool.
//
// Fanning a whole scenario suite through one pool beats running campaigns
// back to back: the work items of every campaign land in a single global
// queue of scenario leases, so the stragglers of one scenario never leave
// workers idle while another scenario still has runs queued. A lease is
// one scenario's id range of at most lease_grain(total items, jobs)
// items, drained serially by the thread that takes it: a scenario whose
// plan fits one lease has its frozen prototype cloned by one thread only,
// so no two cores trade the prototype's shared reference counts. Planning
// (one trace run per scenario) is itself fanned across the pool first.
//
// Determinism: each outcome is written to its (scenario, item) slot, and
// results are assembled in add() order — the aggregate is identical for
// any worker count and any interleaving, which is what makes sweep output
// diffable across machines and PRs.
#pragma once

#include <cstddef>
#include <vector>

#include "core/executor.hpp"

namespace ep::core {

struct SweepOptions {
  /// Worker threads shared by planning and injection across all
  /// scenarios. 1 = fully serial.
  int jobs = 1;
  /// Per-scenario campaign options (seed, coverage target, merging),
  /// applied uniformly to every scheduled scenario.
  CampaignOptions campaign;
};

struct SweepResult {
  std::vector<CampaignResult> results;  // in add() order

  [[nodiscard]] int total_points() const;
  [[nodiscard]] int total_injections() const;
  [[nodiscard]] int total_violations() const;
  [[nodiscard]] int total_exploitable() const;
  /// Injections-weighted mean rho across the suite.
  [[nodiscard]] double mean_vulnerability_score() const;
};

class MultiCampaign {
 public:
  MultiCampaign() = default;

  /// Register a scenario. Scenarios are stored by value; planners and
  /// executors reference them in place, so add() must not be called while
  /// run() is in flight.
  void add(Scenario scenario);

  [[nodiscard]] std::size_t size() const { return scenarios_.size(); }

  /// Phase 1 of run(), exposed for distribution: plan every registered
  /// scenario across the pool (one trace run each), returned in add()
  /// order. `epa_cli plan --all` serializes these, one plan file per
  /// scenario, for sharded execution (core/wire.hpp).
  [[nodiscard]] std::vector<InjectionPlan> plan_all(
      const SweepOptions& opts = {}) const;

  [[nodiscard]] SweepResult run(const SweepOptions& opts = {}) const;

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace ep::core
