#include "apps/scenarios.hpp"

#include <string_view>

#include "apps/families.hpp"
#include "apps/redzone_demo.hpp"
#include "apps/spec_env.hpp"

namespace ep::apps {

namespace {

/// One name resolve_spec() finds without a family, and its spec builder.
struct PackagedRow {
  std::string_view name;
  core::ScenarioSpec (*spec)();
  bool in_suite;  // listed by all_scenarios()
};

/// Every packaged name, in listing order: the suite, then redzone-demo,
/// reachable by name though absent from the packaged sweep. A lookup
/// builds only the row it names.
constexpr PackagedRow kPackaged[] = {
    {"lpr", lpr_spec, true},
    {"turnin", [] { return turnin_spec(/*hardened=*/false); }, true},
    {"turnin-hardened", [] { return turnin_spec(/*hardened=*/true); }, true},
    {"mailer", mailer_spec, true},
    {"logind", [] { return logind_spec(/*hardened=*/false); }, true},
    {"logind-hardened", [] { return logind_spec(/*hardened=*/true); }, true},
    {"netcpd", netcpd_spec, true},
    {"cronhelpd", cronhelpd_spec, true},
    {"rshd", rshd_spec, true},
    {"journald", journald_spec, true},
    {"vault", [] { return vault_spec(/*fixed=*/false); }, true},
    {"vault-fixed", [] { return vault_spec(/*fixed=*/true); }, true},
    {"nt-fontcleanup", [] { return nt_module_spec("fontcleanup"); }, true},
    {"nt-logonprofile", [] { return nt_module_spec("logonprofile"); }, true},
    {"nt-screensaver", [] { return nt_module_spec("screensaver"); }, true},
    {"nt-helpviewer", [] { return nt_module_spec("helpviewer"); }, true},
    {"nt-wallpaper", [] { return nt_module_spec("wallpaper"); }, true},
    {"nt-updater", [] { return nt_module_spec("updater"); }, true},
    {"nt-spooler", [] { return nt_module_spec("spooler"); }, true},
    {"nt-aedebug", [] { return nt_module_spec("aedebug"); }, true},
    {"nt-tempclean", [] { return nt_module_spec("tempclean"); }, true},
    {"redzone-demo", redzone_demo_spec, false},
};

}  // namespace

std::vector<core::Scenario> all_scenarios() {
  std::vector<core::Scenario> out;
  for (const PackagedRow& row : kPackaged)
    if (row.in_suite)
      out.push_back(core::compile_spec(row.spec(), spec_environment()));
  return out;
}

std::optional<core::Scenario> resolve_scenario(const std::string& name) {
  std::optional<core::ScenarioSpec> spec = resolve_spec(name);
  if (!spec) return std::nullopt;
  return core::compile_spec(*spec, spec_environment());
}

std::optional<core::ScenarioSpec> resolve_spec(const std::string& name) {
  for (const PackagedRow& row : kPackaged)
    if (row.name == name) return row.spec();
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
  for (const PackagedRow& row : kPackaged) {
    out += ' ';
    out += row.name;
  }
  out += "; families:";
  for (const auto& f : scenario_families()) {
    out += " " + f.name + "-* (" + std::to_string(core::family_size(f)) +
           " members)";
  }
  out += "; see: epa_cli scenarios";
  return out;
}

}  // namespace ep::apps
