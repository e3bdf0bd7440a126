#include "vulndb/coverage.hpp"

#include <algorithm>
#include <set>

#include "core/catalog.hpp"
#include "core/fault_model.hpp"

namespace ep::vulndb {
namespace {

constexpr core::IndirectCategory kCauses[] = {
    core::IndirectCategory::user_input,
    core::IndirectCategory::environment_variable,
    core::IndirectCategory::file_system_input,
    core::IndirectCategory::network_input,
    core::IndirectCategory::process_input,
};

constexpr core::EnvAttribute kAttributes[] = {
    core::EnvAttribute::file_existence,
    core::EnvAttribute::file_ownership,
    core::EnvAttribute::file_permission,
    core::EnvAttribute::symbolic_link,
    core::EnvAttribute::file_content_invariance,
    core::EnvAttribute::file_name_invariance,
    core::EnvAttribute::working_directory,
    core::EnvAttribute::net_message_authenticity,
    core::EnvAttribute::net_protocol,
    core::EnvAttribute::net_socket_share,
    core::EnvAttribute::net_service_availability,
    core::EnvAttribute::net_entity_trustability,
    core::EnvAttribute::proc_message_authenticity,
    core::EnvAttribute::proc_trustability,
    core::EnvAttribute::proc_service_availability,
};

std::string cause_label(core::IndirectCategory c) {
  return "cause: " + std::string(core::to_string(c));
}

std::string attribute_label(core::EnvAttribute a) {
  return "attribute: " + std::string(core::to_string(a));
}

}  // namespace

std::vector<std::string> coverage_universe() {
  std::vector<std::string> out;
  for (core::IndirectCategory c : kCauses) out.push_back(cause_label(c));
  for (core::EnvAttribute a : kAttributes) out.push_back(attribute_label(a));
  std::sort(out.begin(), out.end());
  return out;
}

std::string coverage_class(core::FaultKind kind,
                           const std::string& fault_name) {
  const core::FaultCatalog& catalog = core::FaultCatalog::standard();
  if (kind == core::FaultKind::indirect) {
    if (const core::IndirectFault* f = catalog.find_indirect(fault_name))
      return cause_label(f->category);
    return {};
  }
  if (const core::DirectFault* f = catalog.find_direct(fault_name))
    return attribute_label(f->attribute);
  return {};
}

VulnCoverage vulnerability_coverage(
    const std::vector<core::CampaignResult>& results) {
  std::set<std::string> fired;
  for (const core::CampaignResult& r : results)
    for (std::size_t id = 0; id < r.injections.size(); ++id) {
      if (!r.injections[id].violated) continue;
      // Classified by the fault the plan assigned to the outcome's item.
      const core::FaultRef& fault = r.fault_of(id);
      std::string label = coverage_class(fault.kind, fault.name());
      if (!label.empty()) fired.insert(label);
    }
  VulnCoverage cov;
  for (const std::string& label : coverage_universe()) {
    if (fired.count(label))
      cov.fired.push_back(label);
    else
      cov.silent.push_back(label);
  }
  return cov;
}

}  // namespace ep::vulndb
