// The fault injector (procedure step 6).
//
// Armed with one (site, fault) plan per run. Direct faults fire in the
// before-hook — the environment is perturbed *before* the interaction
// point — and indirect faults fire in the after-hook, rewriting the value
// the internal entity receives from the input. Each plan fires exactly
// once: at the first execution of its site.
#pragma once

#include <string>

#include "core/catalog.hpp"
#include "os/hooks.hpp"

namespace ep::core {

class Injector : public os::Interposer {
 public:
  /// Borrows `world`, `site` and `hints`: all three must outlive the
  /// injector's use (the executor owns the world and reads the site and
  /// hints from the plan and scenario, and removes the injector from the
  /// hook chain before the run returns).
  Injector(TargetWorld& world, const os::Site& site, FaultRef fault,
           const ScenarioHints& hints);
  /// A temporary would dangle before the first hooked call.
  Injector(TargetWorld&, os::Site&&, FaultRef, const ScenarioHints&) = delete;
  Injector(TargetWorld&, const os::Site&, FaultRef, ScenarioHints&&) = delete;

  void before(os::Kernel& k, os::SyscallCtx& ctx) override;
  void after(os::Kernel& k, os::SyscallCtx& ctx, Err result) override;

  /// Did the planned site execute and the fault actually fire?
  [[nodiscard]] bool fired() const { return fired_; }
  /// Original -> perturbed value, for indirect faults (report detail).
  [[nodiscard]] const std::string& original_input() const {
    return original_;
  }
  [[nodiscard]] const std::string& injected_input() const { return injected_; }

 private:
  TargetWorld& world_;
  const os::Site& site_;
  FaultRef fault_;
  const ScenarioHints& hints_;
  bool fired_ = false;
  std::string original_;
  std::string injected_;
};

}  // namespace ep::core
