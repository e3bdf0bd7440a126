// The per-run allocation budget as an exact gate. A campaign costs its run
// count times the cost of one run, and on this engine most of a run's
// cost is heap traffic: cloning the world, walking paths, judging the
// run. This counts global operator new calls over a second
// Executor::execute of every packaged scenario's cached plan at jobs 1
// (the first drain warms the per-thread clone arena) and holds the mean
// per injection run to a fixed budget.
//
// It is its own executable because it replaces the global operator new:
// linked into ep_tests, the counter would sit under every other test.
// Under a sanitizer runtime, which owns operator new itself, it skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define EP_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EP_ALLOC_SANITIZED 1
#endif
#endif

#ifndef EP_ALLOC_SANITIZED

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

// The array, nothrow and sized forms of the standard library forward to
// these, so every allocation the engine makes is counted once.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // EP_ALLOC_SANITIZED

namespace ep::core {
namespace {

#ifndef EP_ALLOC_SANITIZED

constexpr double kBudgetPerRun = 100.0;

struct Drain {
  std::size_t runs = 0;
  std::size_t allocations = 0;
  [[nodiscard]] double per_run() const {
    return runs ? static_cast<double>(allocations) / runs : 0.0;
  }
};

/// Plan every scenario with the world cache on, drain each plan once to
/// warm this thread's clone arena, then count the allocations of a second
/// drain of every plan.
Drain count_second_drain(const std::vector<Scenario>& scenarios) {
  std::vector<InjectionPlan> plans;
  plans.reserve(scenarios.size());
  for (const Scenario& s : scenarios) plans.push_back(Planner(s).plan());
  ExecutorOptions opts;
  opts.jobs = 1;
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    (void)Executor(scenarios[i]).execute(plans[i], opts);

  Drain d;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Executor executor(scenarios[i]);
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    CampaignResult r = executor.execute(plans[i], opts);
    g_counting.store(false, std::memory_order_relaxed);
    d.allocations += g_allocations.load(std::memory_order_relaxed);
    d.runs += r.injections.size();
  }
  return d;
}

#endif  // EP_ALLOC_SANITIZED

TEST(AllocationBudget, PackagedSuiteStaysWithinOneHundredPerRun) {
#ifdef EP_ALLOC_SANITIZED
  GTEST_SKIP() << "a sanitizer runtime owns operator new; allocations are "
                  "counted in plain builds only";
#else
  const std::vector<Scenario> packaged = apps::all_scenarios();
  ASSERT_EQ(packaged.size(), 21u);
  const Drain p = count_second_drain(packaged);
  ASSERT_GT(p.runs, 0u);

  std::vector<Scenario> all = apps::all_scenarios();
  for (const ScenarioFamily& family : apps::scenario_families())
    for (Scenario& s : apps::family_scenarios(family))
      all.push_back(std::move(s));
  ASSERT_EQ(all.size(), 125u);
  const Drain a = count_second_drain(all);

  std::printf("allocations per run: packaged %.1f (%zu runs), all 125 %.1f "
              "(%zu runs)\n",
              p.per_run(), p.runs, a.per_run(), a.runs);
  EXPECT_LE(p.per_run(), kBudgetPerRun)
      << p.allocations << " allocations over " << p.runs
      << " packaged runs";
#endif
}

}  // namespace
}  // namespace ep::core
