#include "core/scheduler.hpp"

#include <algorithm>

namespace ep::core {

int SweepResult::total_points() const {
  int c = 0;
  for (const auto& r : results) c += static_cast<int>(r.points.size());
  return c;
}

int SweepResult::total_injections() const {
  int c = 0;
  for (const auto& r : results) c += r.n();
  return c;
}

int SweepResult::total_violations() const {
  int c = 0;
  for (const auto& r : results) c += r.violation_count();
  return c;
}

int SweepResult::total_exploitable() const {
  int c = 0;
  for (const auto& r : results) c += static_cast<int>(r.exploitable().size());
  return c;
}

double SweepResult::mean_vulnerability_score() const {
  int n = total_injections();
  return n == 0 ? 0.0 : static_cast<double>(total_violations()) / n;
}

void MultiCampaign::add(Scenario scenario) {
  scenarios_.push_back(std::move(scenario));
}

std::vector<InjectionPlan> MultiCampaign::plan_all(
    const SweepOptions& opts) const {
  // Resolve the catalog singleton once, before any worker thread exists;
  // after this line every thread sees only the completed, immutable
  // catalog.
  (void)FaultCatalog::standard();

  std::vector<InjectionPlan> plans(scenarios_.size());
  parallel_for(scenarios_.size(), opts.jobs, [&](std::size_t i) {
    plans[i] = Planner(scenarios_[i]).plan(opts.campaign);
  });
  return plans;
}

SweepResult MultiCampaign::run(const SweepOptions& opts) const {
  SweepResult sweep;
  const std::size_t n = scenarios_.size();

  // ---- Phase 1: plan every scenario (one trace run each) -----------------
  std::vector<InjectionPlan> plans = plan_all(opts);

  // ---- Phase 2: drain one queue of scenario leases -----------------------
  // A lease is one scenario's id range [begin, end), drained serially by
  // the thread that takes it, so a plan that fits one lease has its
  // prototype cloned on one core only (scheduler.hpp says why).
  std::vector<Executor> executors;
  executors.reserve(n);
  sweep.results.resize(n);
  std::size_t total = 0;
  for (std::size_t si = 0; si < n; ++si) {
    executors.emplace_back(scenarios_[si]);
    sweep.results[si] = result_skeleton(plans[si]);
    total += plans[si].items.size();
  }
  struct ScenarioLease {
    std::size_t scenario;
    std::size_t begin;
    std::size_t end;
  };
  const std::size_t grain = lease_grain(total, opts.jobs);
  std::vector<ScenarioLease> leases;
  for (std::size_t si = 0; si < n; ++si) {
    const std::size_t items = plans[si].items.size();
    for (std::size_t b = 0; b < items; b += grain)
      leases.push_back({si, b, std::min(b + grain, items)});
  }
  ExecutorOptions eopts;
  eopts.use_world_cache = opts.campaign.use_world_cache;
  eopts.use_redzone = opts.campaign.use_redzone;
  // Leases are queued in (scenario, id) order and a failing run ends its
  // lease, so parallel_for still rethrows the lowest-indexed failure.
  parallel_for(leases.size(), opts.jobs, [&](std::size_t l) {
    const ScenarioLease& lease = leases[l];
    const InjectionPlan& plan = plans[lease.scenario];
    std::vector<InjectionOutcome>& slots =
        sweep.results[lease.scenario].injections;
    for (std::size_t id = lease.begin; id < lease.end; ++id)
      slots[id] = executors[lease.scenario].run_item(plan, plan.items[id],
                                                     eopts);
  });
  return sweep;
}

}  // namespace ep::core
