#include "core/campaign.hpp"

#include <stdexcept>

#include "core/executor.hpp"
#include "core/planner.hpp"

namespace ep::core {

int CampaignResult::violation_count() const {
  int c = 0;
  for (const auto& i : injections) c += i.violated ? 1 : 0;
  return c;
}

int CampaignResult::tolerated_count() const {
  return n() - violation_count();
}

double CampaignResult::vulnerability_score() const {
  return n() == 0 ? 0.0 : static_cast<double>(violation_count()) / n();
}

double CampaignResult::fault_coverage() const {
  return n() == 0 ? 1.0 : static_cast<double>(tolerated_count()) / n();
}

double CampaignResult::interaction_coverage() const {
  if (points.empty()) return 0.0;
  return static_cast<double>(perturbed_site_tags.size()) / points.size();
}

AdequacyPoint CampaignResult::adequacy() const {
  return {interaction_coverage(), fault_coverage()};
}

AdequacyRegion CampaignResult::region(const AdequacyThresholds& t) const {
  return classify(adequacy(), t);
}

std::vector<std::size_t> CampaignResult::exploitable() const {
  std::vector<std::size_t> out;
  for (std::size_t id = 0; id < injections.size(); ++id)
    if (injections[id].violated && injections[id].exploit.nonroot_feasible)
      out.push_back(id);
  return out;
}

Campaign::Campaign(Scenario scenario) : scenario_(std::move(scenario)) {
  if (!scenario_.build || !scenario_.run)
    throw std::logic_error("Campaign: scenario must define build and run");
}

CampaignResult Campaign::execute(const CampaignOptions& opts) {
  InjectionPlan plan = Planner(scenario_).plan(opts);
  ExecutorOptions eopts;
  eopts.jobs = opts.jobs;
  eopts.use_world_cache = opts.use_world_cache;
  eopts.use_redzone = opts.use_redzone;
  return Executor(scenario_).execute(plan, eopts);
}

}  // namespace ep::core
