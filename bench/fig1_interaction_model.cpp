// Figure 1 — the Environment-Application Interaction model.
//
// The figure distinguishes the two ways environment faults reach a
// program: (a) indirectly, as input inherited by an internal entity, and
// (b) directly, as an environment-entity attribute the program acts on.
// This bench instruments campaigns over every target application and
// tallies detected violations by propagation medium, then holds the split
// against the vulnerability database's (Table 1) proportions.
#include <cstdio>
#include <map>

#include "apps/scenarios.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "vulndb/classifier.hpp"

int main() {
  using namespace ep;

  std::printf("=== Figure 1: interaction model, measured ===\n\n");
  std::printf(
      "(a) indirect: environment -> input -> internal entity -> violation\n"
      "(b) direct:   environment entity attribute -> violation\n\n");

  TextTable t({"target", "interaction points", "injections",
               "indirect violations", "direct violations"});
  int total_indirect = 0;
  int total_direct = 0;
  for (auto& scenario : apps::all_scenarios()) {
    std::string name = scenario.name;
    core::Campaign campaign(std::move(scenario));
    auto r = campaign.execute();
    int ind = 0, dir = 0;
    for (std::size_t id = 0; id < r.injections.size(); ++id) {
      if (!r.injections[id].violated) continue;
      (r.fault_of(id).kind == core::FaultKind::indirect ? ind : dir)++;
    }
    total_indirect += ind;
    total_direct += dir;
    t.add_row({name, std::to_string(r.points.size()),
               std::to_string(r.n()), std::to_string(ind),
               std::to_string(dir)});
  }
  std::printf("%s\n", t.render().c_str());

  int total = total_indirect + total_direct;
  std::printf("violations via internal entities (indirect): %d (%s)\n",
              total_indirect, percent(total_indirect, total).c_str());
  std::printf("violations via environment entities (direct): %d (%s)\n",
              total_direct, percent(total_direct, total).c_str());

  auto c = vulndb::classify_all(vulndb::database());
  int db_env = c.indirect + c.direct;
  std::printf(
      "\nvulnerability-database split for comparison (Table 1): "
      "indirect %s, direct %s of environment faults\n",
      percent(c.indirect, db_env).c_str(), percent(c.direct, db_env).c_str());
  std::printf(
      "shape check: both media produce violations in both the field data "
      "and the injected campaigns -> %s\n",
      (total_indirect > 0 && total_direct > 0) ? "HOLDS" : "FAILS");
  return (total_indirect > 0 && total_direct > 0) ? 0 : 1;
}
