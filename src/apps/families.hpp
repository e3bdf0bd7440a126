// Generated scenario families: three templates that expand into 100+
// deterministic, snapshot-safe scenarios.
//
//   fam-spool    (32) — a spool helper fed by argv and the environment:
//                       path depth x spool-dir ACL x privilege x buffer
//                       guard discipline.
//   fam-relay    (36) — a store-and-forward daemon: peer-script length x
//                       fail-open/fail-closed gate x perimeter trust x
//                       receive-buffer capacity.
//   fam-regchain (36) — registry indirection chains ending in a
//                       filesystem effect: chain length x action
//                       (exec/write/read) x key ACL x invoking privilege.
//
// Every member is a plain ScenarioSpec: stably named, serializable, and
// compiled through the same spec compiler as the packaged scenarios, so
// generated names work on every epa_cli command and every data plane.
#pragma once

#include <string>
#include <vector>

#include "core/scenario_family.hpp"
#include "core/scenario_spec.hpp"

namespace ep::apps {

/// The packaged families, in listing order.
const std::vector<core::ScenarioFamily>& scenario_families();

/// Family lookup by name; nullptr when unknown.
const core::ScenarioFamily* find_family(const std::string& name);

/// Compile every member of `family` against the standard environment.
std::vector<core::Scenario> family_scenarios(
    const core::ScenarioFamily& family);

/// The family images and service handlers (used by spec_environment()).
void register_family_environment(core::SpecEnvironment& env);

}  // namespace ep::apps
