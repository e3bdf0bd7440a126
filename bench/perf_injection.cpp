// Microbenchmarks (google-benchmark): cost of the substrate and of the
// interposition machinery. Supports the paper's automation claim — a
// full per-fault rebuild-and-rerun cycle is cheap enough to sweep entire
// catalogs.
//
// Developer tools: CI checks that they build and run, and gates no
// figure they print. End-to-end figures (real epa_cli processes on every
// data plane, medians over repeated runs) come from the repository
// benchmark, perfbench/.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>

#include "apps/families.hpp"
#include "apps/lpr.hpp"
#include "apps/scenarios.hpp"
#include "apps/turnin.hpp"
#include "core/executor.hpp"
#include "core/injector.hpp"
#include "core/planner.hpp"
#include "core/scheduler.hpp"
#include "core/snapshot.hpp"
#include "os/world.hpp"

namespace {

using namespace ep;

const os::Site kS{"perf.c", 1, "probe"};

void BM_VfsResolveDeepPath(benchmark::State& state) {
  os::Kernel k;
  os::world::mkdirs(k, "/a/b/c/d/e/f/g");
  os::world::put_file(k, "/a/b/c/d/e/f/g/leaf", "x");
  for (auto _ : state) {
    auto r = k.vfs().resolve("/a/b/c/d/e/f/g/leaf", "/", os::kRootUid, 0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_VfsResolveDeepPath);

void BM_VfsSymlinkChainResolve(benchmark::State& state) {
  os::Kernel k;
  os::world::put_file(k, "/end", "x");
  std::string prev = "/end";
  for (int i = 0; i < 6; ++i) {
    std::string name = "/l" + std::to_string(i);
    os::world::put_symlink(k, name, prev);
    prev = name;
  }
  for (auto _ : state) {
    auto r = k.vfs().resolve(prev, "/", os::kRootUid, 0);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_VfsSymlinkChainResolve);

void BM_OpenReadClose(benchmark::State& state) {
  os::Kernel k;
  os::world::standard_unix(k);
  os::world::put_file(k, "/data/f", std::string(1024, 'x'), os::kRootUid, 0,
                      0644);
  os::Pid pid = k.make_process(os::kRootUid, 0, "/");
  for (auto _ : state) {
    auto fd = k.open(kS, pid, "/data/f", os::OpenFlag::rd);
    auto data = k.read(kS, pid, fd.value());
    benchmark::DoNotOptimize(data);
    (void)k.close(pid, fd.value());
  }
}
BENCHMARK(BM_OpenReadClose);

void BM_SyscallNoHooks(benchmark::State& state) {
  os::Kernel k;
  os::world::put_file(k, "/f", "x");
  os::Pid pid = k.make_process(os::kRootUid, 0, "/");
  for (auto _ : state) {
    auto r = k.stat(kS, pid, "/f");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SyscallNoHooks);

void BM_SyscallWithHookChain(benchmark::State& state) {
  os::Kernel k;
  os::world::put_file(k, "/f", "x");
  os::Pid pid = k.make_process(os::kRootUid, 0, "/");
  struct Nop : os::Interposer {};
  for (int i = 0; i < state.range(0); ++i)
    k.add_interposer(std::make_shared<Nop>());
  for (auto _ : state) {
    auto r = k.stat(kS, pid, "/f");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SyscallWithHookChain)->Arg(1)->Arg(4)->Arg(16);

void BM_WorldBuildLpr(benchmark::State& state) {
  auto scenario = apps::lpr_scenario();
  for (auto _ : state) {
    auto w = scenario.build();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldBuildLpr);

void BM_WorldBuildTurnin(benchmark::State& state) {
  auto scenario = apps::turnin_scenario();
  for (auto _ : state) {
    auto w = scenario.build();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldBuildTurnin);

void BM_WorldCloneLpr(benchmark::State& state) {
  // The number the snapshot layer lives on: clone() vs BM_WorldBuildLpr.
  auto snap = core::WorldSnapshot::freeze(apps::lpr_scenario().build());
  for (auto _ : state) {
    auto w = snap->instantiate();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldCloneLpr);

void BM_WorldCloneTurnin(benchmark::State& state) {
  auto snap = core::WorldSnapshot::freeze(apps::turnin_scenario().build());
  for (auto _ : state) {
    auto w = snap->instantiate();
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldCloneTurnin);

void BM_WorldCloneThenPerturb(benchmark::State& state) {
  // Clone plus a representative perturbation (unshares the touched node):
  // the realistic per-run cost of the cached path.
  auto snap = core::WorldSnapshot::freeze(apps::lpr_scenario().build());
  for (auto _ : state) {
    auto w = snap->instantiate();
    auto r = w->kernel.vfs().resolve("/etc/passwd", "/", os::kRootUid, 0);
    w->kernel.vfs().mutate(r.value()).mode = 0666;
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_WorldCloneThenPerturb);

void BM_SingleInjectionRun(benchmark::State& state) {
  // One complete procedure step 4-8 cycle: fresh world, armed injector,
  // oracle, target execution.
  auto scenario = apps::lpr_scenario();
  core::FaultRef fault;
  fault.kind = core::FaultKind::direct;
  fault.direct = core::FaultCatalog::standard().find_direct("symbolic-link");
  const os::Site site{"lpr.c", 42, apps::kLprCreateTag};  // borrowed
  for (auto _ : state) {
    auto w = scenario.build();
    auto injector =
        std::make_shared<core::Injector>(*w, site, fault, scenario.hints);
    auto oracle = std::make_shared<core::SecurityOracle>(scenario.policy);
    w->kernel.add_interposer(injector);
    w->kernel.add_interposer(oracle);
    int rc = scenario.run(*w);
    benchmark::DoNotOptimize(rc);
  }
}
BENCHMARK(BM_SingleInjectionRun);

void BM_FullTurninCampaign(benchmark::State& state) {
  // All 41 injections + trace run: the complete Section 4.1 experiment.
  for (auto _ : state) {
    core::Campaign c(apps::turnin_scenario());
    auto r = c.execute();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullTurninCampaign)->Unit(benchmark::kMillisecond);

void BM_ExecutorDrainTurnin(benchmark::State& state) {
  // Steps 4-8 only (plan prepared once): the parallel engine's hot loop.
  auto scenario = apps::turnin_scenario();
  auto plan = core::Planner(scenario).plan();
  core::Executor executor(scenario);
  core::ExecutorOptions opts;
  opts.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = executor.execute(plan, opts);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.items.size()));
}
BENCHMARK(BM_ExecutorDrainTurnin)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SuiteSweep(benchmark::State& state) {
  // One MultiCampaign::run over the 125 scenarios (the packaged suite and
  // every family member), planning included: the scheduler's scenario
  // leases at jobs 1 and 4.
  core::MultiCampaign suite;
  for (auto& s : apps::all_scenarios()) suite.add(std::move(s));
  for (const core::ScenarioFamily& family : apps::scenario_families())
    for (core::Scenario& s : apps::family_scenarios(family))
      suite.add(std::move(s));
  core::SweepOptions opts;
  opts.jobs = static_cast<int>(state.range(0));
  std::int64_t runs = 0;
  for (auto _ : state) {
    core::SweepResult r = suite.run(opts);
    runs += r.total_injections();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(runs);
}
BENCHMARK(BM_SuiteSweep)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
