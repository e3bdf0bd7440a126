#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/injector.hpp"
#include "core/oracle.hpp"
#include "os/path.hpp"
#include "util/rng.hpp"

namespace ep::core {

Exploitability analyze_exploitability(const Scenario& scenario,
                                      const InteractionPoint& point,
                                      const FaultRef& fault) {
  auto world = scenario.build();  // judge against the *benign* world
  return analyze_exploitability(*world, point, fault);
}

Exploitability analyze_exploitability(const TargetWorld& world,
                                      const InteractionPoint& point,
                                      const FaultRef& fault) {
  Exploitability e;
  const os::Kernel& k = world.kernel;

  auto nonroot_user_who_can = [&](const std::string& p,
                                  os::Perm perm) -> std::string {
    for (const auto& [uid, info] : k.users()) {
      if (uid == os::kRootUid) continue;
      if (k.uid_can(uid, info.second, p, perm)) return info.first;
    }
    return {};
  };

  if (fault.kind == FaultKind::indirect) {
    switch (fault.indirect->category) {
      case IndirectCategory::user_input:
        e.nonroot_feasible = true;
        e.actor = "invoking user";
        e.note = "argument values are chosen by whoever runs the program";
        break;
      case IndirectCategory::environment_variable:
        e.nonroot_feasible = true;
        e.actor = "invoking user";
        e.note = "the invoker controls the process environment";
        break;
      case IndirectCategory::file_system_input: {
        std::string who = nonroot_user_who_can(point.object, os::Perm::write);
        e.nonroot_feasible = !who.empty();
        e.actor = who.empty() ? "root only" : who + " (writer of the input)";
        e.note = who.empty()
                     ? "the input file is protected; only root can seed it"
                     : "whoever writes the input file controls the value";
        break;
      }
      case IndirectCategory::network_input:
        e.nonroot_feasible = true;
        e.actor = "remote peer";
        e.note = "network input is attacker-supplied by definition";
        break;
      case IndirectCategory::process_input:
        e.nonroot_feasible = true;
        e.actor = "local peer process";
        e.note = "IPC input comes from another local process";
        break;
    }
    return e;
  }

  const DirectFault& f = *fault.direct;
  const std::string& obj = point.object;
  std::string parent = os::path::dirname(obj);

  switch (f.attribute) {
    case EnvAttribute::file_existence:
    case EnvAttribute::symbolic_link:
    case EnvAttribute::file_name_invariance: {
      if (point.call == "regread" || point.call == "regwrite") {
        const reg::Key* key = world.registry.find(obj);
        e.nonroot_feasible = key && key->acl.everyone_write;
        e.actor = e.nonroot_feasible ? "any local user" : "administrator only";
        e.note = "registry key ACL decides who can replace the value";
        break;
      }
      std::string who = nonroot_user_who_can(parent, os::Perm::write);
      e.nonroot_feasible = !who.empty();
      e.actor = who.empty() ? "root only" : who;
      e.note = who.empty()
                   ? "requires write access to " + parent +
                         ", which only root has"
                   : who + " can manipulate directory entries in " + parent;
      break;
    }
    case EnvAttribute::file_content_invariance: {
      if (point.call == "regread" || point.call == "regwrite") {
        const reg::Key* key = world.registry.find(obj);
        e.nonroot_feasible = key && key->acl.everyone_write;
        e.actor = e.nonroot_feasible ? "any local user" : "administrator only";
        e.note = "everyone-write ACL lets any user set the value";
        break;
      }
      std::string who = nonroot_user_who_can(obj, os::Perm::write);
      if (who.empty()) who = nonroot_user_who_can(parent, os::Perm::write);
      e.nonroot_feasible = !who.empty();
      e.actor = who.empty() ? "root only" : who;
      e.note = who.empty() ? "the file and its directory are protected"
                           : who + " can rewrite the content";
      break;
    }
    case EnvAttribute::file_permission: {
      auto r = k.vfs().resolve(obj, "/", os::kRootUid, os::kRootGid);
      if (r.ok()) {
        const os::Inode& node = k.vfs().inode(r.value());
        e.nonroot_feasible = node.uid != os::kRootUid;
        e.actor = e.nonroot_feasible ? "owner (" + k.user_name(node.uid) + ")"
                                     : "root only";
        e.note = "chmod requires ownership";
      } else {
        e.actor = "root only";
        e.note = "object absent in the benign world";
      }
      break;
    }
    case EnvAttribute::file_ownership:
      e.actor = "root only";
      e.note = "chown requires root privilege";
      break;
    case EnvAttribute::working_directory:
      e.nonroot_feasible = true;
      e.actor = "invoking user";
      e.note = "the invoker chooses the starting directory";
      break;
    case EnvAttribute::net_message_authenticity:
    case EnvAttribute::net_protocol:
    case EnvAttribute::net_socket_share:
    case EnvAttribute::net_service_availability:
    case EnvAttribute::net_entity_trustability:
      // The regkey-trustability extension reuses this attribute id.
      if (point.call == "regread" || point.call == "regwrite") {
        const reg::Key* key = world.registry.find(obj);
        e.nonroot_feasible = key && key->acl.everyone_write;
        e.actor = e.nonroot_feasible ? "any local user" : "administrator only";
        e.note = "whoever may write the key controls where it points";
      } else {
        e.nonroot_feasible = true;
        e.actor = "remote peer";
        e.note = "network conditions are attacker-influenced";
      }
      break;
    case EnvAttribute::proc_message_authenticity:
    case EnvAttribute::proc_trustability:
    case EnvAttribute::proc_service_availability:
      e.nonroot_feasible = true;
      e.actor = "local peer process";
      e.note = "helper-process conditions are controlled by its owner";
      break;
  }
  return e;
}

void parallel_for(std::size_t count, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::size_t workers =
      jobs < 1 ? 1 : std::min<std::size_t>(static_cast<std::size_t>(jobs),
                                           count);
  std::vector<std::exception_ptr> errors(count);
  if (workers <= 1) {
    // Same contract as the threaded path: every index is attempted, then
    // the lowest-index failure is rethrown.
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    for (auto& e : errors)
      if (e) std::rethrow_exception(e);
    return;
  }

  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(drain);
  } catch (...) {
    // Thread-resource exhaustion: let the already-spawned workers finish
    // the queue (destroying a joinable thread would terminate). A
    // collected per-index failure still wins over the transient spawn
    // error, keeping failure behavior deterministic.
    drain();
    for (auto& t : pool) t.join();
    for (auto& e : errors)
      if (e) std::rethrow_exception(e);
    throw;
  }
  drain();
  for (auto& t : pool) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

std::size_t lease_grain(std::size_t items, int workers) {
  return std::max<std::size_t>(
      1, items / (static_cast<std::size_t>(std::max(workers, 1)) * 4));
}

Executor::Executor(const Scenario& scenario) : scenario_(scenario) {
  if (!scenario_.build || !scenario_.run)
    throw std::logic_error("Executor: scenario must define build and run");
}

InjectionOutcome Executor::run_item(const InjectionPlan& plan,
                                    const WorkItem& item,
                                    const ExecutorOptions& opts) const {
  const InteractionPoint& point = plan.point_of(item);
  const WorldSnapshot* snap =
      opts.use_world_cache ? plan.snapshot.get() : nullptr;
  // Per-worker clone arena: one TargetWorld-sized allocation reused for
  // every cached-path run this thread drains. thread_local keeps the
  // thread-confinement rule — no two runs ever share the storage — and
  // the fresh-build path is untouched (build() sizes vary by scenario).
  thread_local WorldArena arena;
  TargetWorld* world = nullptr;
  std::unique_ptr<TargetWorld> owned;
  if (snap) {
    world = &arena.instantiate(*snap);
  } else {
    owned = scenario_.build();
    world = owned.get();
  }
  world->kernel.set_redzone_audit(opts.use_redzone);
  // The perturbation parameter (search-generated items): a nonzero param
  // deterministically mutates the hints this run injects with — the
  // outcome stays a pure function of (point, fault, param). Only then are
  // the hints copied; otherwise the injector reads the scenario's own.
  std::optional<ScenarioHints> mutated;
  if (item.param != 0) {
    mutated = scenario_.hints;
    Rng prng(item.param);
    mutated->long_length = std::size_t(16) << prng.below(10);
  }
  auto injector = std::make_shared<Injector>(
      *world, point.site, item.fault, mutated ? *mutated : scenario_.hints);
  auto oracle = std::make_shared<SecurityOracle>(scenario_.policy);
  // The injector borrows the hints above, so no hook outlives this call,
  // even one that throws: an arena world keeps its chain until the next
  // instantiate() otherwise.
  struct Disarm {
    os::Kernel& kernel;
    ~Disarm() { kernel.clear_interposers(); }
  } disarm{world->kernel};
  world->kernel.add_interposer(injector);
  world->kernel.add_interposer(oracle);

  InjectionOutcome out;
  out.exit_code = scenario_.run(*world);
  // Teardown redzone sweep, while this run's oracle is still installed —
  // corruption that never crossed another syscall surfaces here, into the
  // same violation list. A no-op when the audit is off.
  world->validate_redzones();
  out.fired = injector->fired();
  out.violations = oracle->violations();
  out.violated = !out.violations.empty();
  out.crashed = oracle->crash_count() > 0;
  out.overflows = oracle->overflow_count();

  std::string broken = world->kernel.vfs().check_invariants();
  if (!broken.empty())
    throw std::logic_error("VFS invariant broken after injection '" +
                           item.fault.name() + "': " + broken);

  if (out.violated)
    // The frozen prototype *is* the benign world, so the cached path
    // answers "who could effect this perturbation?" without a build.
    out.exploit = snap
                      ? analyze_exploitability(snap->prototype(), point,
                                               item.fault)
                      : analyze_exploitability(scenario_, point, item.fault);
  return out;
}

CampaignResult result_skeleton(const InjectionPlan& plan) {
  CampaignResult result;
  result.scenario_name = plan.scenario_name;
  result.points = plan.points;
  result.benign_violations = plan.benign_violations;
  result.perturbed_site_tags = plan.perturbed_site_tags;
  result.items = plan.items;
  result.injections.resize(plan.items.size());
  return result;
}

CampaignResult Executor::execute(const InjectionPlan& plan,
                                 const ExecutorOptions& opts) const {
  CampaignResult result = result_skeleton(plan);
  parallel_for(plan.items.size(), opts.jobs, [&](std::size_t i) {
    result.injections[i] = run_item(plan, plan.items[i], opts);
  });
  return result;
}

std::vector<InjectionOutcome> Executor::execute_subset_checkpointed(
    const InjectionPlan& plan, const std::vector<std::size_t>& item_ids,
    std::size_t checkpoint_every,
    const std::function<void(const std::vector<InjectionOutcome>&)>&
        on_checkpoint,
    const std::function<bool()>& stop, const ExecutorOptions& opts) const {
  const std::size_t total = item_ids.size();
  const std::size_t chunk = checkpoint_every ? checkpoint_every : total;
  std::vector<InjectionOutcome> outcomes;
  outcomes.reserve(total);
  for (std::size_t off = 0; off < total; off += chunk) {
    if (stop && stop()) break;  // preempted: keep the completed prefix
    const std::size_t n = std::min(chunk, total - off);
    std::vector<InjectionOutcome> part(n);
    parallel_for(n, opts.jobs, [&](std::size_t i) {
      part[i] = run_item(plan, plan.items.at(item_ids[off + i]), opts);
    });
    for (auto& o : part) outcomes.push_back(std::move(o));
    if (on_checkpoint && outcomes.size() < total) on_checkpoint(outcomes);
  }
  return outcomes;
}

}  // namespace ep::core
