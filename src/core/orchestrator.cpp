#include "core/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <utility>
#include <vector>

namespace ep::core {

namespace {

std::string describe_exit(const WorkerEvent& ev) {
  if (ev.status == -1) return "connection lost";
  return ev.status < 0
             ? "killed by signal " + std::to_string(-ev.status)
             : "exit status " + std::to_string(ev.status);
}

long long steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<Lease> lease_partition(std::size_t plan_items,
                                   const OrchestratorOptions& opts) {
  if (opts.workers < 1)
    throw OrchestratorError("orchestrate: workers must be >= 1");
  const auto workers = static_cast<std::size_t>(opts.workers);
  std::size_t lease_items = opts.lease_items;
  if (lease_items == 0)
    lease_items = std::max<std::size_t>(1, plan_items / (workers * 4));
  std::vector<Lease> leases;
  for (std::size_t begin = 0; begin < plan_items; begin += lease_items)
    leases.push_back(
        {leases.size(), begin, std::min(begin + lease_items, plan_items)});
  return leases;
}

CampaignResult orchestrate(const InjectionPlan& plan, Transport& transport,
                           const OrchestratorOptions& opts,
                           OrchestratorStats* stats) {
  // The exhaustive path as one client of the WorkSource seam: a single
  // wave covering the whole fixed plan, partitioned exactly like
  // lease_partition(). known_items = the full plan, so FEEDBACK is never
  // sent and the scheduling (and merged bytes) are the pre-seam ones.
  PlanWorkSource source(plan);
  return orchestrate_source(source, transport, opts, stats,
                            plan.items.size());
}

CampaignResult orchestrate_source(WorkSource& source, Transport& transport,
                                  const OrchestratorOptions& opts,
                                  OrchestratorStats* stats,
                                  std::size_t known_items) {
  Fleet fleet(transport, opts);
  CampaignResult result =
      fleet.drain(source, known_items, opts.lease_items, stats);
  fleet.close(stats);
  return result;
}

Fleet::Fleet(Transport& transport, OrchestratorOptions opts)
    : transport_(transport), opts_(std::move(opts)) {
  if (opts_.workers < 1)
    throw OrchestratorError("orchestrate: workers must be >= 1");
  if (!opts_.now_ms) opts_.now_ms = steady_now_ms;
}

CampaignResult Fleet::drain(WorkSource& source, std::size_t known_items,
                            std::size_t lease_items,
                            OrchestratorStats* stats) {
  if (closed_) throw OrchestratorError("orchestrate: the fleet is closed");
  OrchestratorStats local_stats;
  OrchestratorStats& st = stats ? *stats : local_stats;
  st = {};
  const auto workers = static_cast<std::size_t>(opts_.workers);
  const std::function<long long()>& now = opts_.now_ms;

  // Workers kept from an earlier drain hold that drain's plan. The
  // transport sends them PLAN before their next FEEDBACK or LEASE, so
  // from here on every worker, old or new, starts from known_items.
  for (auto& [w, slot] : slots_) slot.known = known_items;

  // Checkpoint-replayed reports (search --resume): waves already drained
  // in a previous run, owed to the final merge but never re-executed.
  std::vector<ShardReport> reports;
  std::vector<std::string> labels;
  for (ShardReport& r : source.take_replayed_reports()) {
    reports.push_back(std::move(r));
    labels.emplace_back("resumed checkpoint");
  }

  std::pair<std::size_t, std::size_t> wave = source.next_wave();
  if (wave.first == wave.second && reports.empty())
    return result_skeleton(source.plan());  // nothing to lease out

  // Leases across all waves share one seq space: each wave's partition
  // takes the next positions in grant order and stolen tails take fresh
  // seqs, so a seq names the same id range for the whole drain. The
  // split budget (kMaxLeaseSplits) is likewise drain-global — it is
  // what transports pre-allocated for.
  std::deque<Lease> pending;
  std::size_t next_seq = 0;
  std::size_t splits_used = 0;
  std::size_t respawns_used = 0;

  auto spawn_one = [&]() -> bool {
    std::optional<std::size_t> w = transport_.spawn();
    if (!w) return false;
    // A fresh worker starts on the transport's current plan — known_items
    // items — no matter which wave it joins.
    if (!slots_.emplace(*w, Slot{true, false, false, {}, now(), known_items})
             .second)
      throw OrchestratorError("orchestrate: transport reused worker id " +
                              std::to_string(*w));
    ++st.workers_spawned;
    ++live_;
    return true;
  };

  auto busy_count = [&] {
    std::size_t c = 0;
    for (auto& [w, slot] : slots_)
      if (slot.live && slot.busy) ++c;
    return c;
  };

  // Refill the fleet while there is more work than live workers can
  // hold, within the respawn budget. Budget exhausted (or no worker
  // available) with none left is fatal; with some left, the fleet just
  // runs smaller. The auto budget tracks leases dealt so far, which for
  // the single-wave exhaustive path is the classic partition size.
  auto refill = [&] {
    const std::size_t remaining = pending.size() + busy_count();
    const std::size_t respawn_budget =
        opts_.max_respawns ? opts_.max_respawns
                           : st.leases_total + 2 * workers;
    while (live_ < std::min(workers, remaining)) {
      if (respawns_used >= respawn_budget) {
        if (live_ == 0)
          throw OrchestratorError(
              "orchestrate: worker respawn budget (" +
              std::to_string(respawn_budget) + ") exhausted with " +
              std::to_string(remaining) +
              " lease(s) outstanding — workers are being preempted "
              "faster than they drain");
        break;
      }
      if (!spawn_one()) {
        if (live_ == 0)
          throw OrchestratorError(
              "orchestrate: every worker is gone and the transport has "
              "no replacement, with " + std::to_string(remaining) +
              " lease(s) outstanding");
        break;
      }
      ++respawns_used;
    }
  };

  // A busy worker heard from too long ago is dead to us: kill it through
  // the transport (no further events), take its lease back, and let
  // refill() replace it. Returns true when anyone expired.
  auto reap_expired = [&]() -> bool {
    if (opts_.deadman_ms <= 0) return false;
    bool any = false;
    const long long t = now();
    for (auto& [w, slot] : slots_) {
      if (!slot.live || !slot.busy) continue;
      if (t - slot.last_heard < opts_.deadman_ms) continue;
      transport_.kill(w);
      slot.live = false;
      --live_;
      pending.push_front(slot.lease);
      slot.busy = false;
      slot.steal_pending = false;
      ++st.leases_released;
      ++st.workers_preempted;
      ++st.deadman_expiries;
      any = true;
    }
    return any;
  };

  // How long wait_any may block: until the earliest possible deadman
  // expiry among busy workers (so silence is noticed on time), forever
  // when the deadman is off.
  auto poll_timeout = [&]() -> long {
    if (opts_.deadman_ms <= 0) return -1;
    long long earliest = -1;
    const long long t = now();
    for (auto& [w, slot] : slots_) {
      if (!slot.live || !slot.busy) continue;
      long long left = slot.last_heard + opts_.deadman_ms - t;
      if (left < 1) left = 1;
      if (earliest < 0 || left < earliest) earliest = left;
    }
    return static_cast<long>(earliest);
  };

  while (wave.first != wave.second) {
    // Partition this wave into leases with lease_partition()'s grain
    // rule applied to the wave size — identical ranges (and seqs) to
    // the classic partition for the single full-plan wave. pending is
    // empty here: the previous wave's barrier collected every lease.
    {
      const std::size_t wave_items = wave.second - wave.first;
      std::size_t grain = lease_items;
      if (grain == 0)
        grain = std::max<std::size_t>(1, wave_items / (workers * 4));
      for (std::size_t b = wave.first; b < wave.second; b += grain) {
        pending.push_back({next_seq++, b, std::min(b + grain, wave.second)});
        ++st.leases_total;
      }
    }

    if (!spawned_) {
      // Spawn against the item count, not the lease count: a one-lease
      // wave still wants idle workers around, because work stealing can
      // split that lease across them.
      const std::size_t first_wave_items = wave.second - wave.first;
      for (std::size_t i = 0; i < std::min(workers, first_wave_items); ++i)
        if (!spawn_one()) break;
      if (live_ == 0)
        throw OrchestratorError(
            "orchestrate: transport produced no workers (is the fleet "
            "connected?)");
      spawned_ = true;
    } else {
      refill();
    }

    while (!pending.empty() || busy_count() > 0) {
      if (reap_expired()) {
        refill();
        continue;
      }

      // Keep every idle live worker fed before blocking for events.
      for (auto& [w, slot] : slots_) {
        if (pending.empty()) break;
        if (!slot.live || slot.busy) continue;
        slot.busy = true;
        slot.lease = pending.front();
        pending.pop_front();
        slot.last_heard = now();
        ++st.leases_granted;
        // Ship any plan items this worker has never seen before granting a
        // lease that reaches into them. Never fires on the exhaustive path
        // (known == the whole plan).
        if (slot.known < slot.lease.end) {
          transport_.feedback(w, source.plan(), slot.known,
                              source.plan().items.size());
          slot.known = source.plan().items.size();
        }
        transport_.submit(w, slot.lease);
      }

      // Work stealing: nothing left to grant but idle workers exist, so
      // ask stragglers to yield the undrained tails of their leases — one
      // outstanding STEAL per busy worker, at most one per idle worker,
      // bounded by the split budget transports pre-allocated for.
      if (pending.empty()) {
        std::size_t idle = 0, outstanding = 0;
        for (auto& [w, slot] : slots_) {
          if (!slot.live) continue;
          if (!slot.busy) ++idle;
          else if (slot.steal_pending) ++outstanding;
        }
        for (auto& [w, slot] : slots_) {
          if (idle <= outstanding) break;
          if (splits_used + outstanding >= kMaxLeaseSplits) break;
          if (!slot.live || !slot.busy || slot.steal_pending) continue;
          if (slot.lease.end - slot.lease.begin < 2) continue;
          transport_.steal(w);
          slot.steal_pending = true;
          ++outstanding;
        }
      }

      std::optional<WorkerEvent> maybe = transport_.wait_any(poll_timeout());
      if (!maybe) continue;  // timed out: the top of the loop reaps
      WorkerEvent ev = std::move(*maybe);
      auto it = slots_.find(ev.worker);
      if (it == slots_.end() || !it->second.live)
        throw OrchestratorError("orchestrate: event from unknown worker " +
                                std::to_string(ev.worker));
      Slot& slot = it->second;
      slot.last_heard = now();

      if (ev.kind == WorkerEvent::Kind::heartbeat) continue;

      if (ev.kind == WorkerEvent::Kind::lease_yielded) {
        if (!slot.busy || !slot.steal_pending ||
            slot.lease.seq != ev.lease.seq ||
            ev.yield_mid <= slot.lease.begin ||
            ev.yield_mid >= slot.lease.end)
          throw OrchestratorError(
              "orchestrate: worker " + std::to_string(ev.worker) +
              " yielded a range it was not asked to steal from");
        // The straggler keeps [begin, mid); the tail becomes a brand-new
        // lease at the front of the queue, which the feeding pass above
        // hands to an idle worker next iteration.
        Lease stolen{next_seq++, ev.yield_mid, slot.lease.end};
        slot.lease.end = ev.yield_mid;
        slot.steal_pending = false;
        pending.push_front(stolen);
        ++splits_used;
        ++st.leases_split;
        continue;
      }

      if (ev.kind == WorkerEvent::Kind::lease_done) {
        if (!slot.busy || slot.lease.seq != ev.lease.seq ||
            slot.lease.begin != ev.lease.begin ||
            slot.lease.end != ev.lease.end)
          throw OrchestratorError(
              "orchestrate: worker " + std::to_string(ev.worker) +
              " reported a lease it was not granted");
        // Light shape check here; the merge re-validates everything. A
        // report that is not the lease it claims means a broken worker,
        // and failing now names it.
        const ShardReport& r = ev.report;
        if (!r.leased || !r.complete ||
            r.assigned_ids.size() != ev.lease.end - ev.lease.begin ||
            (!r.assigned_ids.empty() &&
             (r.assigned_ids.front() != ev.lease.begin ||
              r.assigned_ids.back() + 1 != ev.lease.end)))
          throw OrchestratorError(
              "orchestrate: worker " + std::to_string(ev.worker) +
              "'s report does not match lease [" +
              std::to_string(ev.lease.begin) + ", " +
              std::to_string(ev.lease.end) + ")" +
              (ev.label.empty() ? "" : " (" + ev.label + ")"));
        // Feedback: the source scores this wave's outcomes before it
        // generates the next wave (a no-op for the exhaustive path).
        source.absorb(ev.report);
        reports.push_back(std::move(ev.report));
        labels.push_back(std::move(ev.label));
        slot.busy = false;
        slot.steal_pending = false;
        continue;
      }

      // Worker gone. Its unfinished lease (if any) goes back to the front
      // of the queue — finish what was started before opening new ranges.
      slot.live = false;
      --live_;
      slot.steal_pending = false;
      if (slot.busy) {
        pending.push_front(slot.lease);
        slot.busy = false;
        ++st.leases_released;
      }
      if (ev.kind == WorkerEvent::Kind::died)
        throw OrchestratorError("orchestrate: worker " +
                                std::to_string(ev.worker) + " failed (" +
                                describe_exit(ev) +
                                "); a deterministic failure would only "
                                "repeat, not re-leasing");
      if (ev.kind == WorkerEvent::Kind::exited)
        throw OrchestratorError(
            "orchestrate: worker " + std::to_string(ev.worker) +
            " exited cleanly with work outstanding — protocol violation");
      ++st.workers_preempted;
      refill();
    }

    // Wave barrier: every lease of this wave is collected and absorbed;
    // only now may the source decide the next wave, so generation sees
    // a deterministic (stable-id-ordered) view of all prior outcomes
    // regardless of lease scheduling.
    wave = source.next_wave();
  }

  // Reports from earlier waves (and resumed checkpoints) were written
  // against a shorter plan; the drain grew it. Their leases and
  // outcomes are unchanged — rebase the plan_items header on the final
  // size so the merge's consistency checks see one plan. A no-op for
  // the exhaustive path (every report already carries the full size).
  const std::size_t n = source.plan().items.size();
  for (ShardReport& r : reports) r.plan_items = n;
  return merge_shard_reports(source.plan(), reports, labels);
}

void Fleet::close(OrchestratorStats* stats) {
  if (closed_) return;
  closed_ = true;
  // Every drain collected its leases: release the fleet and reap every
  // exit. A worker may exit 4 here (preempted while idle) — harmless
  // now. With the deadman on, a worker that neither exits nor heartbeats
  // within the window is killed rather than waited on forever.
  for (auto& [w, slot] : slots_)
    if (slot.live) transport_.shutdown(w);
  while (live_ > 0) {
    std::optional<WorkerEvent> maybe = transport_.wait_any(
        opts_.deadman_ms > 0 ? static_cast<long>(opts_.deadman_ms) : -1);
    if (!maybe) {
      for (auto& [w, slot] : slots_)
        if (slot.live) {
          transport_.kill(w);
          slot.live = false;
          --live_;
          if (stats) ++stats->deadman_expiries;
        }
      break;
    }
    const WorkerEvent& ev = *maybe;
    if (ev.kind == WorkerEvent::Kind::heartbeat) continue;
    if (ev.kind == WorkerEvent::Kind::lease_done ||
        ev.kind == WorkerEvent::Kind::lease_yielded)
      throw OrchestratorError(
          "orchestrate: worker " + std::to_string(ev.worker) +
          " reported a lease after every lease was collected");
    auto it = slots_.find(ev.worker);
    if (it != slots_.end() && it->second.live) {
      it->second.live = false;
      --live_;
    }
  }
}

}  // namespace ep::core
