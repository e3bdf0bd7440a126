// The deadman timer (core/orchestrator.hpp, OrchestratorOptions::
// deadman_ms): a busy worker that goes silent — no PING, no DONE, no
// YIELD — is killed through the transport and its lease re-leased. The
// clock is injected, so expiry is driven here in fake time; the wall-
// clock version (SIGSTOPped tcp worker) lives in the CLI pipeline tests.
#include "core/orchestrator.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"

namespace ep::core {
namespace {

/// A fleet where time only moves when the transport says so. Each
/// worker's script: emit `pings` heartbeats (one per wait_any, the fake
/// clock stepping `tick` ms before each), then either complete the lease
/// through run_lease or — when `wedge` — fall silent forever. Silence is
/// modeled honestly: wait_any advances the clock past the requested
/// timeout and returns nullopt, exactly what a poll(2) timeout does.
class SilentFleet : public Transport {
 public:
  struct Behavior {
    long long pings = 0;
    bool wedge = false;
  };

  SilentFleet(const Scenario& scenario, const InjectionPlan& plan,
              long long* clock)
      : plan_(plan), executor_(scenario), clock_(clock) {}

  std::vector<Behavior> script;  // by spawn order; default beyond
  long long tick = 0;            // clock step per delivered event
  std::vector<std::size_t> killed;

  std::optional<std::size_t> spawn() override {
    std::size_t i = workers_.size();
    workers_.push_back(
        {i < script.size() ? script[i] : Behavior{}, {}, false, true});
    return i;
  }

  void submit(std::size_t worker, const Lease& lease) override {
    workers_[worker].lease = lease;
    workers_[worker].busy = true;
    grant_order_.push_back(worker);
  }

  void shutdown(std::size_t worker) override {
    exits_.push_back(worker);
  }

  void kill(std::size_t worker) override {
    workers_[worker].alive = false;
    workers_[worker].busy = false;
    killed.push_back(worker);
  }

  std::optional<WorkerEvent> wait_any(long timeout_ms) override {
    // Heartbeats drain before completions: a pinging worker is heard
    // from even while another worker is mid-lease.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      Worker& wk = workers_[w];
      if (!wk.alive || !wk.busy || wk.behavior.pings <= 0) continue;
      --wk.behavior.pings;
      *clock_ += tick;
      WorkerEvent ev;
      ev.kind = WorkerEvent::Kind::heartbeat;
      ev.worker = w;
      return ev;
    }
    // Completions land oldest grant first, like a fleet of equal-speed
    // workers — no worker is starved behind a chattier neighbor.
    for (auto it = grant_order_.begin(); it != grant_order_.end();) {
      Worker& wk = workers_[*it];
      if (!wk.alive || !wk.busy) {
        it = grant_order_.erase(it);  // killed since its grant
        continue;
      }
      if (wk.behavior.wedge) {
        ++it;
        continue;
      }
      std::size_t w = *it;
      grant_order_.erase(it);
      wk.busy = false;
      *clock_ += tick;
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
    for (auto it = exits_.begin(); it != exits_.end(); ++it) {
      if (!workers_[*it].alive) continue;
      std::size_t w = *it;
      exits_.erase(it);
      workers_[w].alive = false;
      WorkerEvent ev;
      ev.kind = WorkerEvent::Kind::exited;
      ev.worker = w;
      ev.status = 0;
      return ev;
    }
    // Only wedged workers are left holding work: silence. Step the clock
    // past the caller's poll window so the next reap pass sees expiry.
    if (timeout_ms < 0)
      throw std::logic_error("wait_any blocking forever on a silent fleet");
    *clock_ += timeout_ms + 1;
    return std::nullopt;
  }

 private:
  struct Worker {
    Behavior behavior;
    Lease lease;
    bool busy = false;
    bool alive = true;
  };

  const InjectionPlan& plan_;
  Executor executor_;
  long long* clock_;
  std::vector<Worker> workers_;
  std::deque<std::size_t> grant_order_;
  std::deque<std::size_t> exits_;
};

InjectionPlan planned_toy() {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.use_world_cache = true;
  return Planner(s).plan(opts);
}

TEST(Deadman, SilentBusyWorkerIsKilledReLeasedAndReplaced) {
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  long long clock = 0;
  SilentFleet fleet(s, plan, &clock);
  fleet.tick = 10;
  // Worker 0 wedges on its first lease without a single heartbeat;
  // worker 1 pings twice first, so the clock crosses worker 0's window
  // while plenty of leases are still pending — the re-lease and the
  // replacement spawn both have to happen mid-campaign.
  fleet.script = {{0, true}, {2, false}};
  OrchestratorOptions opts;
  opts.workers = 2;
  opts.lease_items = 1;
  opts.deadman_ms = 25;
  opts.now_ms = [&clock] { return clock; };
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, fleet, opts, &stats);

  expect_identical(single, merged);
  EXPECT_EQ(render_json(single), render_json(merged));
  EXPECT_EQ(stats.deadman_expiries, 1u);
  EXPECT_EQ(stats.workers_preempted, 1u);
  EXPECT_EQ(stats.leases_released, 1u);
  ASSERT_EQ(fleet.killed.size(), 1u);
  EXPECT_EQ(fleet.killed[0], 0u);  // the wedged worker, nobody else
  EXPECT_EQ(stats.workers_spawned, 3u);  // 2 initial + 1 replacement
}

TEST(Deadman, HeartbeatsKeepASlowWorkerAliveAcrossTheWindow) {
  // Liveness bookkeeping: every PING resets last_heard. A worker whose
  // lease takes several windows of wall time survives as long as no
  // single silent gap reaches deadman_ms.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  long long clock = 0;
  SilentFleet fleet(s, plan, &clock);
  fleet.tick = 80;  // each gap is 80ms against a 100ms deadman...
  fleet.script.assign(1, {3, false});  // ...and each lease pings 3 times
  OrchestratorOptions opts;
  opts.workers = 1;
  opts.lease_items = plan.items.size();
  opts.deadman_ms = 100;
  opts.now_ms = [&clock] { return clock; };
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, fleet, opts, &stats);

  expect_identical(single, merged);
  EXPECT_EQ(stats.deadman_expiries, 0u);
  EXPECT_EQ(stats.workers_preempted, 0u);
  EXPECT_TRUE(fleet.killed.empty());
  // The lease outlived the window several times over; only the pings
  // kept the worker off the deadman's list.
  EXPECT_GT(clock, opts.deadman_ms * 3);
}

TEST(Deadman, IdleWorkersAreExemptFromExpiry) {
  // An idle worker holds no work worth recovering: a fleet larger than
  // the lease count leaves workers idle for the whole campaign, and the
  // deadman must not shoot them no matter how long it takes.
  Scenario s = toy_scenario();
  InjectionPlan plan = planned_toy();
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  long long clock = 0;
  SilentFleet fleet(s, plan, &clock);
  fleet.tick = 400;  // every event is most of a deadman window...
  fleet.script = {{2, false}};  // ...and the one busy worker pings twice,
                                // so the idle workers sit silent past
                                // t=1200 with last_heard stuck at 0
  OrchestratorOptions opts;
  opts.workers = 3;
  opts.lease_items = plan.items.size();  // one lease; two workers idle
  opts.deadman_ms = 500;
  opts.now_ms = [&clock] { return clock; };
  OrchestratorStats stats;
  CampaignResult merged = orchestrate(plan, fleet, opts, &stats);

  expect_identical(single, merged);
  EXPECT_EQ(stats.deadman_expiries, 0u);
  EXPECT_TRUE(fleet.killed.empty());
}

}  // namespace
}  // namespace ep::core
