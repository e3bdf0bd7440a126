// A Fleet (core/orchestrator.hpp) outlives a plan: one set of workers
// drains several plans in turn, each kept worker switching plans in place
// when the transport sends it PLAN. These tests drive a scripted
// in-process fleet through two plans and count spawns and PLAN lines
// exactly — the real transports are exercised by the CLI pipeline tests.
#include "core/orchestrator.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "core/work_source.hpp"

namespace ep::core {
namespace {

/// In-process workers that hold one plan at a time, like `epa_cli
/// worker`. load_plan() makes a plan current; a submit() to a worker
/// still on an older plan first "sends" PLAN (counted per worker) and
/// switches it. New workers start on the current plan. A worker scripted
/// with `die_on_plan = k` is preempted when handed its first lease of the
/// k-th loaded plan (1-based).
class PlanSwitchingFleet : public Transport {
 public:
  /// `scenarios` are looked up by the loaded plan's scenario name.
  explicit PlanSwitchingFleet(std::vector<const Scenario*> scenarios) {
    for (const Scenario* s : scenarios) scenarios_[s->name] = s;
  }

  std::vector<std::size_t> die_on_plan;  // indexed by spawn order; 0 = never

  void load_plan(const InjectionPlan& plan,
                 const std::vector<Lease>& leases) override {
    (void)leases;
    plans_.push_back(plan);
    executors_.push_back(
        std::make_unique<Executor>(*scenarios_.at(plan.scenario_name)));
  }

  std::optional<std::size_t> spawn() override {
    const std::size_t id = workers_.size();
    Worker w;
    w.plan = plans_.size() - 1;
    w.die_on_plan = id < die_on_plan.size() ? die_on_plan[id] : 0;
    workers_.push_back(w);
    return id;
  }

  void submit(std::size_t worker, const Lease& lease) override {
    Worker& w = workers_.at(worker);
    if (w.plan + 1 != plans_.size()) {
      ++w.plan_lines;
      w.plan = plans_.size() - 1;
    }
    queue_.push_back({worker, lease, false});
  }

  void shutdown(std::size_t worker) override {
    queue_.push_back({worker, {}, true});
  }

  void kill(std::size_t worker) override { workers_.at(worker).alive = false; }

  std::optional<WorkerEvent> wait_any(long timeout_ms) override {
    (void)timeout_ms;
    if (queue_.empty())
      throw std::logic_error("wait_any with nothing outstanding");
    Pending p = queue_.front();
    queue_.pop_front();
    Worker& w = workers_.at(p.worker);
    WorkerEvent ev;
    ev.worker = p.worker;
    if (p.is_shutdown) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::exited;
      return ev;
    }
    if (w.die_on_plan == w.plan + 1) {
      w.alive = false;
      ev.kind = WorkerEvent::Kind::preempted;
      ev.status = 4;
      return ev;
    }
    ShardReport report = run_lease(*executors_.at(w.plan), plans_.at(w.plan),
                                   {p.lease.begin, p.lease.end}, {});
    ev.kind = WorkerEvent::Kind::lease_done;
    ev.lease = p.lease;
    ev.report = shard_report_from_json(report.to_json());
    ++w.leases;
    return ev;
  }

  std::size_t spawned() const { return workers_.size(); }
  std::size_t plan_lines(std::size_t worker) const {
    return workers_.at(worker).plan_lines;
  }
  std::size_t leases(std::size_t worker) const {
    return workers_.at(worker).leases;
  }
  bool alive(std::size_t worker) const { return workers_.at(worker).alive; }

 private:
  struct Worker {
    std::size_t plan = 0;  // index into plans_
    std::size_t die_on_plan = 0;
    std::size_t plan_lines = 0;
    std::size_t leases = 0;
    bool alive = true;
  };
  struct Pending {
    std::size_t worker = 0;
    Lease lease;
    bool is_shutdown = false;
  };

  std::map<std::string, const Scenario*> scenarios_;
  std::vector<InjectionPlan> plans_;
  std::vector<std::unique_ptr<Executor>> executors_;
  std::vector<Worker> workers_;
  std::deque<Pending> queue_;
};

struct TwoPlans {
  Scenario open = toy_scenario("toy");
  Scenario locked = toy_scenario("toy-locked", /*hardened=*/true);
  InjectionPlan open_plan = Planner(open).plan();
  InjectionPlan locked_plan = Planner(locked).plan();
};

TEST(OrchestratorFleet, DrainsTwoPlansWithOneSpawnPerWorker) {
  TwoPlans t;
  PlanSwitchingFleet transport({&t.open, &t.locked});
  OrchestratorOptions opts;
  opts.workers = 2;
  Fleet fleet(transport, opts);

  transport.load_plan(t.open_plan, {});
  PlanWorkSource first(t.open_plan);
  OrchestratorStats s1;
  CampaignResult r1 = fleet.drain(first, t.open_plan.items.size(), 1, &s1);

  transport.load_plan(t.locked_plan, {});
  PlanWorkSource second(t.locked_plan);
  OrchestratorStats s2;
  CampaignResult r2 = fleet.drain(second, t.locked_plan.items.size(), 1, &s2);
  fleet.close(&s2);

  EXPECT_EQ(render_json(r1),
            render_json(Executor(t.open).execute(t.open_plan)));
  EXPECT_EQ(render_json(r2),
            render_json(Executor(t.locked).execute(t.locked_plan)));
  // The fleet came up once: the second drain spawned nobody, and each
  // worker switched plans exactly once, before its first lease of it.
  EXPECT_EQ(transport.spawned(), 2u);
  EXPECT_EQ(s1.workers_spawned, 2u);
  EXPECT_EQ(s2.workers_spawned, 0u);
  EXPECT_EQ(s2.leases_total, t.locked_plan.items.size());
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(transport.plan_lines(w), 1u) << "worker " << w;
    EXPECT_FALSE(transport.alive(w)) << "close() reaps worker " << w;
  }
}

TEST(OrchestratorFleet, WorkerPreemptedInTheSecondDrainIsReplacedOnItsPlan) {
  TwoPlans t;
  PlanSwitchingFleet transport({&t.open, &t.locked});
  transport.die_on_plan = {2};  // worker 0 dies on its first plan-2 lease
  OrchestratorOptions opts;
  opts.workers = 2;
  Fleet fleet(transport, opts);

  transport.load_plan(t.open_plan, {});
  PlanWorkSource first(t.open_plan);
  OrchestratorStats s1;
  CampaignResult r1 = fleet.drain(first, t.open_plan.items.size(), 1, &s1);
  EXPECT_EQ(s1.workers_preempted, 0u);

  transport.load_plan(t.locked_plan, {});
  PlanWorkSource second(t.locked_plan);
  OrchestratorStats s2;
  CampaignResult r2 = fleet.drain(second, t.locked_plan.items.size(), 1, &s2);
  fleet.close(&s2);

  EXPECT_EQ(render_json(r1),
            render_json(Executor(t.open).execute(t.open_plan)));
  EXPECT_EQ(render_json(r2),
            render_json(Executor(t.locked).execute(t.locked_plan)));
  EXPECT_EQ(s2.workers_preempted, 1u);
  EXPECT_EQ(s2.leases_released, 1u);
  EXPECT_EQ(s2.workers_spawned, 1u);
  ASSERT_EQ(transport.spawned(), 3u);
  // The replacement started on the current plan: it drained leases of
  // plan 2 without ever being sent PLAN.
  EXPECT_EQ(transport.plan_lines(2), 0u);
  EXPECT_GT(transport.leases(2), 0u);
}

TEST(OrchestratorFleet, OrchestrateIsOneDrainOfAFreshFleet) {
  // orchestrate() = open, drain, close: a single-plan run never sends a
  // worker PLAN, so its conversation is the one before protocol v4.
  TwoPlans t;
  PlanSwitchingFleet transport({&t.open});
  transport.load_plan(t.open_plan, {});
  OrchestratorOptions opts;
  opts.workers = 3;
  OrchestratorStats stats;
  CampaignResult r = orchestrate(t.open_plan, transport, opts, &stats);
  EXPECT_EQ(render_json(r),
            render_json(Executor(t.open).execute(t.open_plan)));
  EXPECT_EQ(stats.workers_spawned, 3u);
  for (std::size_t w = 0; w < 3; ++w) EXPECT_EQ(transport.plan_lines(w), 0u);
}

TEST(OrchestratorFleet, AClosedFleetRefusesAnotherDrain) {
  TwoPlans t;
  PlanSwitchingFleet transport({&t.open});
  transport.load_plan(t.open_plan, {});
  OrchestratorOptions opts;
  opts.workers = 1;
  Fleet fleet(transport, opts);
  PlanWorkSource source(t.open_plan);
  (void)fleet.drain(source, t.open_plan.items.size(), 0);
  fleet.close();
  PlanWorkSource again(t.open_plan);
  EXPECT_THROW((void)fleet.drain(again, t.open_plan.items.size(), 0),
               OrchestratorError);
}

}  // namespace
}  // namespace ep::core
