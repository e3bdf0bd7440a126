// Helpers the workloads share.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace perfbench {

/// The 21 packaged scenarios, then the members of every family in
/// listing order: the 125 scenarios the workloads draw from.
std::vector<ep::core::Scenario> all_scenarios();

/// The sweep JSON `epa_cli sweep --json` prints, byte for byte;
/// `with_coverage` adds the adequacy totals generated suites carry.
std::string render_sweep_json(const ep::core::SweepResult& sweep,
                              bool with_coverage);

/// The EAI classes the results' violations fired.
std::set<std::string> fired_classes(
    const std::vector<ep::core::CampaignResult>& results);

/// How many of `ref` also appear in `fired`.
int count_hits(const std::set<std::string>& fired,
               const std::set<std::string>& ref);

}  // namespace perfbench
