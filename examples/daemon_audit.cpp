// Auditing network daemons: the Table 6 network/process rows in action.
//
// Runs the perturbation campaign against the vulnerable and hardened
// logind, the netcpd file server, and the IPC-fed cronhelpd, printing
// what each fault class found.
#include <cstdio>
#include <map>

#include "apps/daemons.hpp"
#include "core/report.hpp"
#include "util/table.hpp"

using namespace ep;

namespace {

void audit(core::Scenario scenario) {
  std::string name = scenario.name;
  std::printf("--- %s ---\n", name.c_str());
  core::Campaign campaign(std::move(scenario));
  auto r = campaign.execute();
  std::printf("%s\n", core::render_summary_line(r).c_str());
  std::map<std::string, int> by_fault;
  for (std::size_t id = 0; id < r.injections.size(); ++id)
    if (r.injections[id].violated) ++by_fault[r.fault_of(id).name()];
  if (by_fault.empty()) {
    std::printf("  tolerated every perturbation (%s)\n\n",
                std::string(to_string(r.region())).c_str());
    return;
  }
  for (const auto& [fault, n] : by_fault)
    std::printf("  violated under: %-26s x%d\n", fault.c_str(), n);
  std::printf("  adequacy: %s\n\n",
              std::string(to_string(r.region())).c_str());
}

}  // namespace

int main() {
  std::printf("############ Daemon audits: network & process faults "
              "############\n\n");
  std::printf(
      "The environment of a daemon is its peers: message authenticity,\n"
      "protocol order, socket exclusivity, and the availability and\n"
      "trustability of the services it consults (Table 6).\n\n");

  audit(apps::logind_scenario());
  audit(apps::logind_hardened_scenario());
  audit(apps::netcpd_scenario());
  audit(apps::cronhelpd_scenario());

  std::printf(
      "Reading the results:\n"
      "  * the vulnerable logind grants logins on spoofed messages,\n"
      "    out-of-order protocols, shared sockets, and a dead auth\n"
      "    service - every sin in the catalog;\n"
      "  * the hardened logind refuses all of it (point-4 adequacy);\n"
      "  * netcpd shows indirect network-input faults: an oversized\n"
      "    request or DNS reply smashes its fixed parse buffers;\n"
      "  * cronhelpd shows the process-entity faults on local IPC.\n");
  return 0;
}
