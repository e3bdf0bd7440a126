#include "apps/scenarios.hpp"

#include "apps/families.hpp"
#include "apps/redzone_demo.hpp"
#include "apps/spec_env.hpp"

namespace ep::apps {

std::vector<core::Scenario> all_scenarios() {
  std::vector<core::Scenario> out;
  out.push_back(lpr_scenario());
  out.push_back(turnin_scenario());
  out.push_back(turnin_hardened_scenario());
  out.push_back(mailer_scenario());
  out.push_back(logind_scenario());
  out.push_back(logind_hardened_scenario());
  out.push_back(netcpd_scenario());
  out.push_back(cronhelpd_scenario());
  out.push_back(rshd_scenario());
  out.push_back(journald_scenario());
  out.push_back(vault_scenario());
  out.push_back(vault_fixed_scenario());
  for (auto& s : nt_module_scenarios()) out.push_back(std::move(s));
  return out;
}

namespace {

/// The packaged specs behind every name resolve_spec() finds without a
/// family: the suite plus redzone-demo, built once per process.
const std::vector<core::ScenarioSpec>& packaged_specs() {
  static const std::vector<core::ScenarioSpec> specs = [] {
    std::vector<core::ScenarioSpec> out;
    out.push_back(lpr_spec());
    out.push_back(turnin_spec(/*hardened=*/false));
    out.push_back(turnin_spec(/*hardened=*/true));
    out.push_back(mailer_spec());
    out.push_back(logind_spec(/*hardened=*/false));
    out.push_back(logind_spec(/*hardened=*/true));
    out.push_back(netcpd_spec());
    out.push_back(cronhelpd_spec());
    out.push_back(rshd_spec());
    out.push_back(journald_spec());
    out.push_back(vault_spec(/*fixed=*/false));
    out.push_back(vault_spec(/*fixed=*/true));
    for (const auto& m : nt_modules()) out.push_back(nt_module_spec(m.module));
    // Reachable by name though absent from the packaged sweep: the
    // redzone oracle demo.
    out.push_back(redzone_demo_spec());
    return out;
  }();
  return specs;
}

}  // namespace

std::optional<core::Scenario> resolve_scenario(const std::string& name) {
  std::optional<core::ScenarioSpec> spec = resolve_spec(name);
  if (!spec) return std::nullopt;
  return core::compile_spec(*spec, spec_environment());
}

std::optional<core::ScenarioSpec> resolve_spec(const std::string& name) {
  for (const core::ScenarioSpec& s : packaged_specs())
    if (s.name == name) return s;
  // A generated member: materialize only the grid point whose stamped
  // name matches, exactly as expand_family() would have named it.
  for (const core::ScenarioFamily& f : scenario_families()) {
    if (name.rfind(f.name + "-", 0) != 0) continue;
    for (const core::FamilyPoint& point : core::family_grid(f)) {
      if (core::family_member_name(f, point) != name) continue;
      core::ScenarioSpec spec = f.materialize(point);
      spec.name = name;
      return spec;
    }
  }
  return std::nullopt;
}

std::string scenario_names_hint() {
  std::string out = "scenarios:";
  for (const auto& s : all_scenarios()) out += " " + s.name;
  out += " redzone-demo; families:";
  for (const auto& f : scenario_families()) {
    out += " " + f.name + "-* (" + std::to_string(core::family_size(f)) +
           " members)";
  }
  out += "; see: epa_cli scenarios";
  return out;
}

}  // namespace ep::apps
