// Work stealing (core/orchestrator.hpp): when the only remaining work is
// a straggler's in-flight lease, the orchestrator sends STEAL, the
// worker answers YIELD with a split point, and the surrendered tail is
// granted to an idle worker as a fresh lease. The partition stays a
// disjoint cover, so the merge reproduces the single-process bytes no
// matter how many times a lease was carved up.
#include "core/orchestrator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

/// Every worker is a straggler that cooperates with theft: a granted
/// lease sits in flight until either a STEAL arrives — answered by
/// yielding everything past the first item, as a worker at its first
/// checkpoint boundary would — or wait_any finds no theft to arbitrate
/// and lets the oldest busy worker finish via run_lease.
class StragglerFleet : public Transport {
 public:
  StragglerFleet(const Scenario& scenario, const InjectionPlan& plan)
      : plan_(plan), executor_(scenario) {}

  std::size_t steals_sent = 0;
  bool honor_steals = true;  // false: workers just finish (steal is moot)

  std::optional<std::size_t> spawn() override {
    workers_.push_back({});
    return workers_.size() - 1;
  }

  void submit(std::size_t worker, const Lease& lease) override {
    workers_[worker].lease = lease;
    workers_[worker].busy = true;
    grant_order_.push_back(worker);
  }

  void steal(std::size_t worker) override {
    ++steals_sent;
    if (honor_steals) workers_[worker].yield_asked = true;
  }

  void shutdown(std::size_t worker) override {
    workers_[worker].exit_asked = true;
  }

  void kill(std::size_t worker) override { workers_[worker].busy = false; }

  std::optional<WorkerEvent> wait_any(long timeout_ms) override {
    (void)timeout_ms;
    // YIELDs drain before DONEs: the steal answer arrives at the first
    // checkpoint boundary, well before the straggler's lease completes.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      Worker& wk = workers_[w];
      if (!wk.busy || !wk.yield_asked) continue;
      wk.yield_asked = false;
      WorkerEvent ev;
      ev.kind = WorkerEvent::Kind::lease_yielded;
      ev.worker = w;
      ev.lease = wk.lease;
      ev.yield_mid = wk.lease.begin + 1;  // first checkpoint boundary
      wk.lease.end = ev.yield_mid;        // the worker keeps the head
      return ev;
    }
    // Oldest grant finishes first, like a fleet of equal-speed workers.
    for (auto it = grant_order_.begin(); it != grant_order_.end(); ++it) {
      Worker& wk = workers_[*it];
      if (!wk.busy) continue;
      std::size_t w = *it;
      grant_order_.erase(it);
      wk.busy = false;
      WorkerEvent ev;
      ev.kind = WorkerEvent::Kind::lease_done;
      ev.worker = w;
      ev.lease = wk.lease;
      ShardReport report = run_lease(
          executor_, plan_, {wk.lease.begin, wk.lease.end}, {});
      ev.report = shard_report_from_json(report.to_json());
      ev.label = "lease" + std::to_string(wk.lease.seq) + ".json";
      return ev;
    }
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].exit_asked) continue;
      workers_[w].exit_asked = false;
      WorkerEvent ev;
      ev.kind = WorkerEvent::Kind::exited;
      ev.worker = w;
      ev.status = 0;
      return ev;
    }
    throw std::logic_error("wait_any with nothing outstanding");
  }

 private:
  struct Worker {
    Lease lease;
    bool busy = false;
    bool yield_asked = false;
    bool exit_asked = false;
  };

  const InjectionPlan& plan_;
  Executor executor_;
  std::vector<Worker> workers_;
  std::vector<std::size_t> grant_order_;
};

InjectionPlan planned_toy() {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.use_world_cache = true;
  return Planner(s).plan(opts);
}

TEST(LeaseSplit, StolenTailsMergeByteIdentically) {
  // One lease covering the whole plan, two workers: the idle worker can
  // only ever be fed by theft. The yielded partitions — head kept by the
  // straggler, tail re-granted — must merge to the single-process bytes.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  ASSERT_GE(plan.items.size(), 4u);
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  StragglerFleet fleet(s, plan);
  OrchestratorOptions opts;
  opts.workers = 2;
  opts.lease_items = plan.items.size();
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, fleet, opts, &stats);

  expect_identical(single, merged);
  EXPECT_EQ(render_json(single), render_json(merged));
  EXPECT_EQ(stats.leases_total, 1u);
  EXPECT_GE(stats.leases_split, 2u);  // the tail got re-stolen in turn
  EXPECT_LE(stats.leases_split, kMaxLeaseSplits);
  EXPECT_EQ(stats.leases_granted, stats.leases_total + stats.leases_split);
  EXPECT_EQ(stats.workers_preempted, 0u);
}

TEST(LeaseSplit, SplitCountIsCappedAtKMaxLeaseSplits) {
  // Transports pre-allocate per-lease resources (the shm arena reserves
  // exactly kMaxLeaseSplits spare segments), so the orchestrator must
  // never split more often than that even when every steal would stick.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  if (plan.items.size() < kMaxLeaseSplits + 2)
    GTEST_SKIP() << "toy plan too small to exhaust the split budget";
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  StragglerFleet fleet(s, plan);
  OrchestratorOptions opts;
  opts.workers = 2;
  opts.lease_items = plan.items.size();
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, fleet, opts, &stats);

  expect_identical(single, merged);
  EXPECT_EQ(stats.leases_split, kMaxLeaseSplits);
}

TEST(LeaseSplit, AWorkerThatFinishesFirstMakesTheStealMoot) {
  // STEAL is best-effort: a worker whose DONE races past the steal just
  // completes the whole lease, and no split is recorded.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  StragglerFleet fleet(s, plan);
  fleet.honor_steals = false;
  OrchestratorOptions opts;
  opts.workers = 2;
  opts.lease_items = plan.items.size();
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, fleet, opts, &stats);

  expect_identical(single, merged);
  EXPECT_GE(fleet.steals_sent, 1u);  // the orchestrator did ask...
  EXPECT_EQ(stats.leases_split, 0u);  // ...and took no for an answer
}

TEST(LeaseSplit, SingleItemLeasesAreNeverStolenFrom) {
  // There is no point splitting a lease the worker is one checkpoint
  // from finishing; [b, b+1) leases are skipped by steal issuance.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  StragglerFleet fleet(s, plan);
  OrchestratorOptions opts;
  opts.workers = 4;
  opts.lease_items = 1;
  OrchestratorStats stats;
  (void)orchestrate(plan, fleet, opts, &stats);
  EXPECT_EQ(fleet.steals_sent, 0u);
  EXPECT_EQ(stats.leases_split, 0u);
}

TEST(LeaseSplit, UnsolicitedYieldIsAProtocolViolation) {
  // A YIELD the orchestrator never asked for means a confused worker;
  // re-leasing around it could double-drain ids, so it must abort.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();

  class RogueFleet : public StragglerFleet {
   public:
    using StragglerFleet::StragglerFleet;
    void submit(std::size_t worker, const Lease& lease) override {
      StragglerFleet::submit(worker, lease);
      // Claim a steal was asked even though none ever will be.
      steal(worker);
    }
  };

  RogueFleet fleet(s, plan);
  OrchestratorOptions opts;
  opts.workers = 1;  // one worker, ample pending: no legitimate steal
  opts.lease_items = plan.items.size();
  try {
    (void)orchestrate(plan, fleet, opts);
    FAIL() << "expected OrchestratorError";
  } catch (const OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "not asked to steal"));
  }
}

}  // namespace
}  // namespace ep::core
