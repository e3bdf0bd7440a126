// The dynamic-lease orchestrator (core/orchestrator.hpp) over an
// in-process fake Transport: scheduling, preemption re-lease, replacement
// spawning, and failure handling are all deterministic here — the real
// process transport is exercised by the CLI pipeline tests and the CI
// orchestrate smoke.
#include "core/orchestrator.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

/// An in-process worker fleet: submit() queues work, wait_any() "runs"
/// the oldest queued submission through run_lease (every report passes
/// through its JSON encoding, like the wire would) — unless the worker's
/// scripted behavior says it dies first.
class FakeTransport : public Transport {
 public:
  /// Per-spawn-order behavior. preempt_after = -1: faithful worker.
  /// preempt_after = k >= 0: serves k leases, then dies preempted when
  /// handed the next. fail_status != 0: hard-fails (that exit status)
  /// when handed its first lease.
  struct Behavior {
    long long preempt_after = -1;
    int fail_status = 0;
  };

  FakeTransport(const Scenario& scenario, const InjectionPlan& plan)
      : plan_(plan), executor_(scenario) {}

  std::vector<Behavior> script;  // indexed by spawn order; default beyond
  int jobs = 1;

  std::optional<std::size_t> spawn() override {
    workers_.push_back({behavior_at(workers_.size()), 0, true});
    return workers_.size() - 1;
  }

  void submit(std::size_t worker, const Lease& lease) override {
    queue_.push_back({worker, lease, false});
  }

  void shutdown(std::size_t worker) override {
    queue_.push_back({worker, {}, true});
  }

  void kill(std::size_t worker) override {
    workers_[worker].alive = false;
    for (auto it = queue_.begin(); it != queue_.end();)
      it = it->worker == worker ? queue_.erase(it) : it + 1;
  }

  std::optional<WorkerEvent> wait_any(long timeout_ms) override {
    (void)timeout_ms;  // everything here is instantaneous
    if (queue_.empty())
      throw std::logic_error("wait_any with nothing outstanding");
    Pending p = queue_.front();
    queue_.pop_front();
    Worker& w = workers_[p.worker];
    WorkerEvent ev;
    ev.worker = p.worker;
    if (p.is_shutdown) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::exited;
      ev.status = 0;
      return ev;
    }
    if (w.behavior.fail_status != 0) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::died;
      ev.status = w.behavior.fail_status;
      return ev;
    }
    if (w.behavior.preempt_after >= 0 &&
        w.served >= w.behavior.preempt_after) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::preempted;
      ev.status = 4;
      return ev;
    }
    ExecutorOptions opts;
    opts.jobs = jobs;
    ShardReport report =
        run_lease(executor_, plan_, {p.lease.begin, p.lease.end}, opts);
    ev.kind = WorkerEvent::Kind::lease_done;
    ev.lease = p.lease;
    ev.report = shard_report_from_json(report.to_json());
    ev.label = "lease" + std::to_string(p.lease.seq) + ".json";
    ++w.served;
    return ev;
  }

 private:
  struct Worker {
    Behavior behavior;
    long long served = 0;
    bool alive = true;
  };
  struct Pending {
    std::size_t worker = 0;
    Lease lease;
    bool is_shutdown = false;
  };

  Behavior behavior_at(std::size_t i) const {
    return i < script.size() ? script[i] : Behavior{};
  }

  const InjectionPlan& plan_;
  Executor executor_;
  std::deque<Pending> queue_;
  std::vector<Worker> workers_;
};

InjectionPlan planned_toy() {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.use_world_cache = true;
  return Planner(s).plan(opts);
}

TEST(Orchestrator, MatchesSingleProcessForAnyWorkerCountAndLeaseSize) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);
  std::string single_json = render_json(single);

  for (int workers : {1, 2, 3, 7}) {
    for (std::size_t lease_items : {std::size_t{0}, std::size_t{1},
                                    std::size_t{5}, plan.items.size()}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " lease=" + std::to_string(lease_items));
      FakeTransport transport(s, plan);
      OrchestratorOptions opts;
      opts.workers = workers;
      opts.lease_items = lease_items;
      OrchestratorStats stats;
      CampaignResult merged = orchestrate(plan, transport, opts, &stats);
      expect_identical(single, merged);
      EXPECT_EQ(single_json, render_json(merged));
      EXPECT_GE(stats.leases_total, 1u);
      EXPECT_EQ(stats.leases_granted, stats.leases_total);
      EXPECT_EQ(stats.workers_preempted, 0u);
    }
  }
}

TEST(Orchestrator, ParallelWorkersDrainConcurrentLeases) {
  // The worker side drains each lease through the shared executor pool —
  // the TSan matrix runs this to watch the lease drain under threads.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);
  FakeTransport transport(s, plan);
  transport.jobs = 2;
  OrchestratorOptions opts;
  opts.workers = 3;
  expect_identical(single, orchestrate(plan, transport, opts));
}

TEST(Orchestrator, PreemptedWorkerIsReLeasedAndReplaced) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  FakeTransport transport(s, plan);
  // First worker dies after serving one lease; its in-flight lease must
  // be re-leased and a replacement spawned, with no effect on output.
  transport.script = {{1, 0}};
  OrchestratorOptions opts;
  opts.workers = 2;
  opts.lease_items = 1;
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, transport, opts, &stats);
  expect_identical(single, merged);
  EXPECT_EQ(render_json(single), render_json(merged));
  EXPECT_EQ(stats.workers_preempted, 1u);
  EXPECT_EQ(stats.leases_released, 1u);
  EXPECT_EQ(stats.workers_spawned, 3u);  // 2 initial + 1 replacement
  EXPECT_EQ(stats.leases_granted, stats.leases_total + 1);
}

TEST(Orchestrator, SurvivesEveryWorkerBeingPreemptedRepeatedly) {
  // The CI forced-preemption shape: every worker (replacements included)
  // dies after a single lease. Progress is one lease per spawn, so the
  // campaign still finishes and still matches the single process.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  FakeTransport transport(s, plan);
  transport.script.assign(64, {1, 0});
  OrchestratorOptions opts;
  opts.workers = 3;
  opts.lease_items = 2;
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, transport, opts, &stats);
  expect_identical(single, merged);
  EXPECT_GT(stats.workers_preempted, 0u);
}

TEST(Orchestrator, EmptyPlanYieldsTheEmptyResultWithoutWorkers) {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.only_sites = {"--none--"};  // discovery only: zero work items
  InjectionPlan plan = Planner(s).plan(opts);
  ASSERT_TRUE(plan.items.empty());
  FakeTransport transport(s, plan);
  OrchestratorStats stats;
  CampaignResult r = orchestrate(plan, transport, {}, &stats);
  EXPECT_EQ(r.n(), 0);
  EXPECT_EQ(stats.workers_spawned, 0u);
}

TEST(OrchestratorErrors, HardWorkerFailureAbortsInsteadOfReLeasing) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  FakeTransport transport(s, plan);
  transport.script = {{-1, 9}};  // first worker hard-fails (exit 9)
  OrchestratorOptions opts;
  opts.workers = 2;
  try {
    (void)orchestrate(plan, transport, opts);
    FAIL() << "expected OrchestratorError";
  } catch (const OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "exit status 9"));
    EXPECT_TRUE(contains(e.what(), "failed"));
  }
}

TEST(OrchestratorErrors, RespawnBudgetBoundsAPreemptionStorm) {
  // Workers that die before serving anything make no progress; the
  // budget (the leases dealt plus twice the worker count) must stop the
  // spawn loop with a diagnostic, not spin.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  FakeTransport transport(s, plan);
  transport.script.assign(64, {0, 0});  // everyone dies on the first lease
  OrchestratorOptions opts;
  opts.workers = 2;
  const std::size_t leases = lease_partition(plan.items.size(), opts).size();
  ASSERT_EQ(leases, 8u);
  try {
    (void)orchestrate(plan, transport, opts);
    FAIL() << "expected OrchestratorError";
  } catch (const OrchestratorError& e) {
    EXPECT_EQ(std::string(e.what()),
              "orchestrate: worker respawn budget (" +
                  std::to_string(leases + 2 * 2) + ") exhausted with " +
                  std::to_string(leases) +
                  " lease(s) outstanding — workers are being preempted "
                  "faster than they drain");
  }
}

TEST(OrchestratorErrors, RejectsAWorkerCountBelowOne) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  FakeTransport transport(s, plan);
  OrchestratorOptions opts;
  opts.workers = 0;
  EXPECT_THROW((void)orchestrate(plan, transport, opts), OrchestratorError);
}

TEST(Orchestrator, LeasePartitionIsContiguousAscending) {
  OrchestratorOptions oopts;
  oopts.workers = 3;
  std::vector<Lease> leases = lease_partition(26, oopts);
  ASSERT_FALSE(leases.empty());
  std::size_t expect_begin = 0;
  for (std::size_t i = 0; i < leases.size(); ++i) {
    EXPECT_EQ(leases[i].seq, i);
    EXPECT_EQ(leases[i].begin, expect_begin);
    EXPECT_GT(leases[i].end, leases[i].begin);
    expect_begin = leases[i].end;
  }
  EXPECT_EQ(expect_begin, 26u);
  // auto grain: roughly four leases per worker.
  EXPECT_EQ(leases.size(), 13u);  // 26 / max(1, 26/(3*4)=2) = 13

  oopts.lease_items = 100;  // one big lease swallows the plan
  EXPECT_EQ(lease_partition(26, oopts).size(), 1u);
  EXPECT_TRUE(lease_partition(0, oopts).empty());
  oopts.workers = 0;
  EXPECT_THROW((void)lease_partition(26, oopts), OrchestratorError);
}

TEST(Orchestrator, LeaseGrainAtTheEdges) {
  // The default grain: four leases per worker, never below one item.
  EXPECT_EQ(lease_grain(0, 3), 1u);  // an empty plan
  EXPECT_EQ(lease_grain(26, 3), 2u);
  EXPECT_EQ(lease_grain(3, 8), 1u);  // more workers than items
  EXPECT_EQ(lease_grain(26, 0), 6u);  // no workers counts as one
  // --lease auto: the cost-sized lease, capped by the default grain.
  EXPECT_EQ(auto_lease_items(0, 3, 10.0), 1u);
  EXPECT_EQ(auto_lease_items(100, 1, 0.0), 25u);  // no cost sample
  EXPECT_EQ(auto_lease_items(100, 1, 2.0), 25u);  // cheap: the grain wins
  EXPECT_EQ(auto_lease_items(100, 1, 40.0), 12u);  // 250 ms / 20 ms
  EXPECT_EQ(auto_lease_items(100, 1, 1000.0), 1u);  // one item > 250 ms
  EXPECT_EQ(auto_lease_items(3, 8, 40.0), 1u);  // more workers than items
}

TEST(Orchestrator, EveryScenarioMatchesSingleProcessIncludingPreemption) {
  // The ISSUE's acceptance bar: for every packaged scenario, the
  // orchestrated drain — leases through the wire, one worker preempted
  // mid-campaign and its lease re-granted — reproduces the
  // single-process run byte for byte at worker counts {2, 3, 7}.
  for (auto& scenario : apps::all_scenarios()) {
    SCOPED_TRACE(scenario.name);
    InjectionPlan plan = Planner(scenario).plan();
    Executor ex(scenario);
    CampaignResult single = ex.execute(plan);
    std::string single_json = render_json(single);
    for (int workers : {2, 3, 7}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      FakeTransport transport(scenario, plan);
      transport.script = {{1, 0}};  // first worker dies after one lease
      OrchestratorOptions opts;
      opts.workers = workers;
      opts.lease_items = 2;
      CampaignResult merged = orchestrate(plan, transport, opts);
      expect_identical(single, merged);
      EXPECT_EQ(single_json, render_json(merged));
    }
  }
}

}  // namespace
}  // namespace ep::core
