#include "core/report.hpp"

#include <charconv>
#include <cstdio>
#include <map>

#include "core/wire.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ep::core {

namespace {

/// The JSON report's value forms, appended to one buffer.
struct JsonOut {
  std::string& out;

  void str(std::string_view s) { ep::append_json_quoted(out, s); }
  void flag(bool b) { out += b ? "true" : "false"; }
  void num(long long v) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  void fixed(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    out += buf;
  }
};

}  // namespace

std::string render_summary_line(const CampaignResult& r) {
  return r.scenario_name + ": " + std::to_string(r.points.size()) +
         " interaction points, " + std::to_string(r.n()) +
         " perturbations, " + std::to_string(r.violation_count()) +
         " violations";
}

std::string render_shard_summary(const ShardReport& s) {
  int violated = 0;
  for (const auto& o : s.outcomes) violated += o.violated ? 1 : 0;
  return s.scenario_name + " ids " + s.owned.str() + ": " +
         std::to_string(s.outcomes.size()) + " of " +
         std::to_string(s.plan_items) + " work items, " +
         std::to_string(violated) + " violations" +
         (s.complete ? "" : " [partial]");
}

std::string render_report(const CampaignResult& r) {
  std::string out;
  out += "=== Environment perturbation campaign: " + r.scenario_name +
         " ===\n\n";

  // Per-site rollup.
  struct Row {
    std::string call;
    std::string object;
    int injected = 0;
    int violated = 0;
    std::vector<std::string> violating_faults;
  };
  std::map<std::string, Row> rows;  // keyed by site tag, insertion via map
  std::vector<std::string> order;
  for (const auto& p : r.points) {
    if (!rows.count(p.site.tag)) order.push_back(p.site.tag);
    Row& row = rows[p.site.tag];
    row.call = p.call;
    row.object = p.object;
  }
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    Row& row = rows[r.point_of(id).site.tag];
    ++row.injected;
    if (r.injections[id].violated) {
      ++row.violated;
      row.violating_faults.push_back(r.fault_of(id).name());
    }
  }

  TextTable table({"interaction point", "call", "object", "faults injected",
                   "violations", "violating faults"});
  for (const auto& tag : order) {
    const Row& row = rows[tag];
    table.add_row({tag, row.call, row.object, std::to_string(row.injected),
                   std::to_string(row.violated),
                   ep::join(row.violating_faults, ", ")});
  }
  out += table.render();

  if (!r.benign_violations.empty()) {
    out += "\nWARNING: benign run already violates policy (" +
           std::to_string(r.benign_violations.size()) +
           " violations) - scenario misconfigured?\n";
  }

  out += "\nViolations:\n";
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    const InjectionOutcome& i = r.injections[id];
    if (!i.violated) continue;
    const FaultRef& fault = r.fault_of(id);
    out += "  * " + r.point_of(id).site.tag + " / " + fault.name() + " (" +
           std::string(to_string(fault.kind)) + ")\n";
    for (const auto& v : i.violations)
      out += "      [" + std::string(to_string(v.policy)) + "] " + v.detail +
             "\n";
    out += "      assumption analysis: perturbation feasible by " +
           (i.exploit.actor.empty() ? std::string("?") : i.exploit.actor) +
           (i.exploit.nonroot_feasible
                ? " -> UNREASONABLE assumption: candidate vulnerability"
                : " -> assumption reasonable (protected by default)") +
           "\n";
  }

  out += "\nMetrics (Section 3.2/3.3):\n";
  out += "  interaction points discovered : " +
         std::to_string(r.points.size()) + "\n";
  out += "  interaction points perturbed  : " +
         std::to_string(r.perturbed_site_tags.size()) + "\n";
  out += "  faults injected (n)           : " + std::to_string(r.n()) + "\n";
  out += "  faults tolerated              : " +
         std::to_string(r.tolerated_count()) + "\n";
  out += "  violations (count)            : " +
         std::to_string(r.violation_count()) + "\n";
  out += "  interaction coverage          : " +
         ep::percent(static_cast<double>(r.perturbed_site_tags.size()),
                     static_cast<double>(r.points.size())) +
         "\n";
  out += "  fault coverage                : " +
         ep::percent(r.fault_coverage(), 1.0) + "\n";
  out += "  vulnerability score (rho)     : " +
         ep::percent(r.vulnerability_score(), 1.0) + "\n";
  out += "  adequacy region (Figure 2)    : " +
         std::string(to_string(r.region())) + "\n";
  out += "    -> " + std::string(region_meaning(r.region())) + "\n";

  auto exploitable = r.exploitable();
  out += "\nCandidate vulnerabilities (unreasonable assumptions): " +
         std::to_string(exploitable.size()) + "\n";
  for (std::size_t id : exploitable) {
    const Exploitability& e = r.injections[id].exploit;
    out += "  - " + r.point_of(id).site.tag + " / " + r.fault_of(id).name() +
           " (by " + e.actor + "): " + e.note + "\n";
  }
  return out;
}

std::string render_json(const CampaignResult& r) {
  std::string out;
  out.reserve(512 + 160 * r.points.size() + 224 * r.injections.size());
  JsonOut j{out};
  out += "{\n  \"schema_version\": ";
  j.num(kPlanSchemaVersion);
  out += ",\n  \"scenario\": ";
  j.str(r.scenario_name);
  out += ",\n";

  out += "  \"interaction_points\": [\n";
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    const auto& p = r.points[i];
    out += "    {\"site\": ";
    j.str(p.site.tag);
    out += ", \"call\": ";
    j.str(p.call);
    out += ", \"object\": ";
    j.str(p.object);
    out += ", \"kind\": ";
    j.str(to_string(p.kind));
    out += ", \"has_input\": ";
    j.flag(p.has_input);
    out += ", \"hits\": ";
    j.num(p.hits);
    out += i + 1 < r.points.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";

  out += "  \"injections\": [\n";
  for (std::size_t i = 0; i < r.injections.size(); ++i) {
    const auto& inj = r.injections[i];
    const FaultRef& fault = r.fault_of(i);
    out += "    {\"site\": ";
    j.str(r.point_of(i).site.tag);
    out += ", \"fault\": ";
    j.str(fault.name());
    out += ", \"kind\": ";
    j.str(to_string(fault.kind));
    out += ", \"fired\": ";
    j.flag(inj.fired);
    out += ", \"violated\": ";
    j.flag(inj.violated);
    out += ", \"crashed\": ";
    j.flag(inj.crashed);
    out += ", \"exit_code\": ";
    j.num(inj.exit_code);
    if (inj.violated) {
      out += ", \"violations\": [";
      // Canonical violation objects (core/wire.hpp): the same shape the
      // shard-report wire format uses, so dashboards parse one schema.
      for (std::size_t v = 0; v < inj.violations.size(); ++v) {
        if (v) out += ", ";
        append_json_violation(out, inj.violations[v]);
      }
      out += "], \"exploit\": {\"nonroot_feasible\": ";
      j.flag(inj.exploit.nonroot_feasible);
      out += ", \"actor\": ";
      j.str(inj.exploit.actor);
      out += ", \"note\": ";
      j.str(inj.exploit.note);
      out += '}';
    }
    out += i + 1 < r.injections.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";

  out += "  \"metrics\": {\"points\": ";
  j.num(static_cast<long long>(r.points.size()));
  out += ", \"perturbed\": ";
  j.num(static_cast<long long>(r.perturbed_site_tags.size()));
  out += ", \"injections\": ";
  j.num(r.n());
  out += ", \"violations\": ";
  j.num(r.violation_count());
  out += ", \"tolerated\": ";
  j.num(r.tolerated_count());
  out += ", \"interaction_coverage\": ";
  j.fixed(r.interaction_coverage());
  out += ", \"fault_coverage\": ";
  j.fixed(r.fault_coverage());
  out += ", \"vulnerability_score\": ";
  j.fixed(r.vulnerability_score());
  out += ", \"adequacy_region\": ";
  j.str(to_string(r.region()));
  out += ", \"benign_violations\": ";
  j.num(static_cast<long long>(r.benign_violations.size()));
  out += "}\n}\n";
  return out;
}

}  // namespace ep::core
