#include "common.hpp"

#include <cstdio>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/report.hpp"
#include "vulndb/coverage.hpp"

namespace perfbench {

namespace core = ep::core;

std::string render_sweep_json(const core::SweepResult& sweep,
                              bool with_coverage) {
  std::string out = "{\n\"scenarios\": [\n";
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    out += core::render_json(sweep.results[i]);
    out += i + 1 < sweep.results.size() ? ",\n" : "\n";
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "],\n\"totals\": {\"points\": %d, \"injections\": %d, "
                "\"violations\": %d, \"exploitable\": %d, "
                "\"mean_vulnerability_score\": %.6f",
                sweep.total_points(), sweep.total_injections(),
                sweep.total_violations(), sweep.total_exploitable(),
                sweep.mean_vulnerability_score());
  out += buf;
  if (with_coverage) {
    ep::vulndb::VulnCoverage cov =
        ep::vulndb::vulnerability_coverage(sweep.results);
    std::snprintf(buf, sizeof buf,
                  ", \"vuln_classes_fired\": %zu, \"vuln_classes_total\": %d, "
                  "\"vuln_coverage_pct\": %.1f",
                  cov.fired.size(), cov.total(), 100.0 * cov.fraction());
    out += buf;
  }
  out += "}\n}\n";
  return out;
}

std::vector<core::Scenario> all_scenarios() {
  std::vector<core::Scenario> all = ep::apps::all_scenarios();
  for (const core::ScenarioFamily& fam : ep::apps::scenario_families())
    for (core::Scenario& s : ep::apps::family_scenarios(fam))
      all.push_back(std::move(s));
  return all;
}

std::set<std::string> fired_classes(
    const std::vector<core::CampaignResult>& results) {
  std::set<std::string> out;
  for (std::string& c : ep::vulndb::vulnerability_coverage(results).fired)
    out.insert(std::move(c));
  return out;
}

int count_hits(const std::set<std::string>& fired,
               const std::set<std::string>& ref) {
  int hit = 0;
  for (const std::string& c : fired) hit += ref.count(c) ? 1 : 0;
  return hit;
}

}  // namespace perfbench
