#include "core/injector.hpp"

namespace ep::core {

Injector::Injector(TargetWorld& world, const os::Site& site, FaultRef fault,
                   const ScenarioHints& hints)
    : world_(world), site_(site), fault_(fault), hints_(hints) {}

void Injector::before(os::Kernel& /*k*/, os::SyscallCtx& ctx) {
  if (fired_ || !(ctx.site == site_)) return;
  if (fault_.kind != FaultKind::direct || fault_.direct == nullptr) return;
  // Direct environment faults are injected before the interaction point
  // (Section 3.3 step 6).
  fault_.direct->perturb(world_, ctx, hints_);
  fired_ = true;
}

void Injector::after(os::Kernel& /*k*/, os::SyscallCtx& ctx, Err result) {
  if (fired_ || !(ctx.site == site_)) return;
  if (fault_.kind != FaultKind::indirect || fault_.indirect == nullptr) return;
  if (!ctx.has_input || ctx.input == nullptr) return;
  if (result != Err::ok && ctx.input->empty() && ctx.call != "getenv") return;
  // Indirect faults are injected after the interaction point: "we want to
  // change the value the internal entity receives from the input".
  original_ = *ctx.input;
  *ctx.input = fault_.indirect->mutate(original_, hints_);
  injected_ = *ctx.input;
  fired_ = true;
}

}  // namespace ep::core
