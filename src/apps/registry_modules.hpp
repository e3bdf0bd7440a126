// The Section 4.2 case study: Windows NT registry keys and the modules
// that consume them.
//
// The paper scanned NT 4.0 SP3 for registry keys whose ACL lets everyone
// write, cross-referenced them with the OS modules that read them (static
// analysis), and perturb-tested those modules: 29 unprotected keys were
// found, the 9 with known consuming modules were all exploited, and the
// remaining 20 could not be perturbed for lack of module knowledge.
//
// Under its agreement with Microsoft the paper withholds the key names;
// we model the two modules it does describe (a font-file cleaner that
// deletes whatever file a key names, and a logon module that loads the
// user profile from a key-named directory) plus seven more of the same
// shapes, over an NT-flavored file tree.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario_spec.hpp"
#include "os/kernel.hpp"

namespace ep::apps {

/// The NT world: users (SYSTEM=0, administrator=500, mallory=666), the
/// /winnt tree (SAM, critical.ini, fonts, profiles, spool, temp), the
/// attacker staging area, all 9 module programs, and the registry with
/// 29 everyone-write keys (9 cross-referenced to modules) + 15 protected.
std::unique_ptr<core::TargetWorld> nt_registry_world();

struct NtModuleInfo {
  std::string module;  // e.g. "fontcleanup"
  std::string key;     // the registry key it consumes
  std::string what;    // one-line description of the privileged effect
};

/// Static cross-reference of the 9 testable unprotected keys.
std::vector<NtModuleInfo> nt_modules();

/// The nine module images, in nt_modules() order (spec-environment
/// entries; each reads the registry through its own kernel).
std::vector<std::pair<std::string, os::AppImage>> nt_module_images();

/// The NT flavor of the benign helper binary (distinct output site from
/// rshd's benign-cmd; same kernel name).
int nt_benign_cmd_image(os::Kernel& k, os::Pid pid);

/// The declarative spec for one module's scenario (all nine share the
/// same world; run recipe, trace filter and hints differ).
core::ScenarioSpec nt_module_spec(const std::string& module);

/// A perturbation campaign scenario for one module (by module name).
core::Scenario nt_module_scenario(const std::string& module);

inline constexpr const char* kNtSam = "/winnt/system32/config/sam";
inline constexpr const char* kNtCritical = "/winnt/system32/critical.ini";

}  // namespace ep::apps
