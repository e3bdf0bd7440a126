// The per-layer ledger: every per-layer metric, derived from the traced
// run's spans (spans.hpp) and op records. A layer a workload bypasses
// reads 0 — the benchmark's prediction for that pairing.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/orchestrator.hpp"

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

namespace {

constexpr int kPlaneCount = 3;
const char* const kPlaneNames[kPlaneCount] = {"pipe", "shm", "tcp"};
const std::int64_t kLeaseDone =
    static_cast<std::int64_t>(ep::core::WorkerEvent::Kind::lease_done);

bool is(const Span* s, const char* name) {
  return std::string(s->name) == name;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Spans of one traced op, in start order.
struct OpSpans {
  const OpRecord* op = nullptr;
  std::vector<const Span*> spans;
};

/// apps.build / apps.run: counts, latency percentiles, contention.
void apps_metrics(const std::vector<OpSpans>& ops, std::uint32_t count_slots,
                  int primary_lane, bool suite, Metrics& m) {
  std::vector<double> build_us, run_us, run_serial, run_primary;
  double builds = 0, runs = 0, counted = 0;
  for (const OpSpans& o : ops) {
    const bool count = o.op->slot < count_slots;
    counted += count ? 1 : 0;
    for (const Span* s : o.spans) {
      if (is(s, "apps.build")) {
        build_us.push_back(s->dur_ns() / 1e3);
        builds += count ? 1 : 0;
      } else if (is(s, "apps.run")) {
        run_us.push_back(s->dur_ns() / 1e3);
        runs += count ? 1 : 0;
        if (suite && o.op->lane == 1) run_serial.push_back(s->dur_ns() / 1e3);
        if (suite && o.op->lane == primary_lane && primary_lane > 1)
          run_primary.push_back(s->dur_ns() / 1e3);
      }
    }
  }
  m["apps.build.count"] = {ratio(builds, counted), "count"};
  m["apps.build.us_p50"] = {median(build_us), "us"};
  m["apps.run.count"] = {ratio(runs, counted), "count"};
  m["apps.run.us_p50"] = {median(run_us), "us"};
  m["apps.run.us_p90"] = {quantile(run_us, 0.9), "us"};
  m["apps.run.contention_ratio"] = {
      ratio(median(run_primary), median(run_serial)), "ratio"};
}

/// The suite drain, seen from the apps spans: MultiCampaign::run plans
/// first (every build happens there — the world cache makes none in the
/// drain), so the drain starts at the last build's end. A pool thread is
/// busy from its first drained run to its last; busy time the run
/// callbacks do not cover is the executor's own (clone, interposers,
/// redzone sweep, invariant check, exploitability).
void drain_metrics(const std::vector<OpSpans>& ops, int primary_lane,
                   Metrics& m, std::vector<double>& plan_ms) {
  double self_ns = 0, drained = 0, busy_primary = 0, capacity = 0;
  for (const OpSpans& o : ops) {
    const Span* run = nullptr;
    std::int64_t drain_start = 0;
    for (const Span* s : o.spans) {
      if (is(s, "scheduler.run") && !run) run = s;
      if (is(s, "apps.build")) drain_start = std::max(drain_start, s->end_ns);
    }
    if (!run) continue;
    drain_start = std::max(drain_start, run->start_ns);
    struct Lane {
      std::int64_t first = 0, last = 0, covered = 0;
      bool seen = false;
    };
    std::map<std::uint32_t, Lane> threads;
    for (const Span* s : o.spans) {
      if (!is(s, "apps.run") || s->start_ns < drain_start) continue;
      Lane& t = threads[s->thread];
      if (!t.seen) t.first = s->start_ns;
      t.seen = true;
      t.last = std::max(t.last, s->end_ns);
      t.covered += s->dur_ns();
      drained += 1;
    }
    double busy = 0;
    for (const auto& [id, t] : threads) {
      busy += static_cast<double>(t.last - t.first);
      self_ns += static_cast<double>(t.last - t.first - t.covered);
    }
    if (o.op->lane == primary_lane) {
      busy_primary += busy;
      capacity += static_cast<double>(o.op->lane) *
                  static_cast<double>(run->end_ns - drain_start);
    }
    plan_ms.push_back((drain_start - run->start_ns) / 1e6);
  }
  m["executor.self_us_per_run"] = {ratio(self_ns / 1e3, drained), "us"};
  m["scheduler.busy_ratio"] = {ratio(busy_primary, capacity), "ratio"};
}

/// Wire, transport and orchestrator metrics for the fleet workloads.
void fleet_metrics(const std::vector<OpSpans>& ops, std::uint32_t count_slots,
                   bool lanes_are_planes, Metrics& m) {
  struct Plane {
    std::vector<double> encode_us, spawn_ms, ready_ms, rtt_ms, feedback_us;
    double bytes = 0, counted = 0, wait_ns = 0, orchestrate_ns = 0;
  };
  Plane planes[kPlaneCount];
  std::vector<double> self_ms;
  double granted = 0, spawned = 0, split = 0, counted = 0;
  for (const OpSpans& o : ops) {
    Plane& p = planes[lanes_are_planes ? o.op->lane : 0];
    const bool count = o.op->slot < count_slots;
    p.counted += count ? 1 : 0;
    counted += count ? 1 : 0;
    double orchestrate_ns = 0, transport_ns = 0;
    for (std::size_t i = 0; i < o.spans.size(); ++i) {
      const Span* s = o.spans[i];
      const std::string name = s->name;
      if (name == "wire.encode") {
        p.encode_us.push_back(s->dur_ns() / 1e3);
        p.bytes += count ? static_cast<double>(s->a) : 0;
      } else if (name == "orchestrator.orchestrate") {
        orchestrate_ns += static_cast<double>(s->dur_ns());
      } else if (name == "orchestrator.stats" && count) {
        granted += static_cast<double>(s->a);
        spawned += static_cast<double>(s->b);
        split += static_cast<double>(s->c);
      } else if (name.rfind("transport.", 0) == 0) {
        transport_ns += static_cast<double>(s->dur_ns());
        if (name == "transport.wait_any") p.wait_ns += s->dur_ns();
        if (name == "transport.feedback")
          p.feedback_us.push_back(s->dur_ns() / 1e3);
        if (name == "transport.spawn") p.spawn_ms.push_back(s->dur_ns() / 1e6);
        // Readiness and lease round trips: the first matching wait_any
        // event after the spawn / submit.
        const bool spawn = name == "transport.spawn" && s->a >= 0;
        const bool submit = name == "transport.submit";
        if (!spawn && !submit) continue;
        for (std::size_t j = i + 1; j < o.spans.size(); ++j) {
          const Span* e = o.spans[j];
          if (!is(e, "transport.wait_any") || e->a != s->a) continue;
          if (submit && (e->b != kLeaseDone || e->c != s->b)) continue;
          (spawn ? p.ready_ms : p.rtt_ms)
              .push_back((e->end_ns - s->start_ns) / 1e6);
          break;
        }
      }
    }
    p.orchestrate_ns += orchestrate_ns;
    self_ms.push_back((orchestrate_ns - transport_ns) / 1e6);
  }
  for (int i = 0; i < kPlaneCount; ++i) {
    const Plane& p = planes[i];
    const std::string wire = std::string("wire.") + kPlaneNames[i];
    const std::string tr = std::string("transport.") + kPlaneNames[i];
    m[wire + ".plan_bytes"] = {ratio(p.bytes, p.counted), "bytes"};
    m[wire + ".plan_encode_us"] = {median(p.encode_us), "us"};
    m[tr + ".spawn_ms"] = {median(p.spawn_ms), "ms"};
    m[tr + ".ready_ms"] = {median(p.ready_ms), "ms"};
    m[tr + ".lease_rtt_ms_p50"] = {median(p.rtt_ms), "ms"};
    m[tr + ".wait_share"] = {ratio(p.wait_ns, p.orchestrate_ns), "ratio"};
    m[tr + ".feedback_us"] = {median(p.feedback_us), "us"};
  }
  m["orchestrator.self_ms"] = {median(self_ms), "ms"};
  m["orchestrator.leases_granted"] = {ratio(granted, counted), "count"};
  m["orchestrator.workers_spawned"] = {ratio(spawned, counted), "count"};
  m["orchestrator.leases_split"] = {ratio(split, counted), "count"};
}

void search_metrics(const std::vector<OpSpans>& ops,
                    std::uint32_t count_slots, Metrics& m) {
  std::vector<double> next_us, absorb_us;
  double waves = 0, items = 0, counted = 0;
  for (const OpSpans& o : ops) {
    const bool count = o.op->slot < count_slots;
    counted += count ? 1 : 0;
    for (const Span* s : o.spans) {
      if (is(s, "search.next_wave")) {
        next_us.push_back(s->dur_ns() / 1e3);
        if (count && s->b > s->a) {
          waves += 1;
          items += static_cast<double>(s->b - s->a);
        }
      } else if (is(s, "search.absorb")) {
        absorb_us.push_back(s->dur_ns() / 1e3);
      }
    }
  }
  m["search.waves"] = {ratio(waves, counted), "count"};
  m["search.items"] = {ratio(items, counted), "count"};
  m["search.next_wave_us_p50"] = {median(next_us), "us"};
  m["search.absorb_us_p50"] = {median(absorb_us), "us"};
}

}  // namespace

Metrics derive_layer_metrics(const std::string& workload,
                             const std::vector<Span>& spans,
                             const std::vector<OpRecord>& ops,
                             std::uint32_t count_slots) {
  const bool suite = workload == "suite-sweep";
  int primary_lane = 0;
  for (const OpRecord& o : ops) primary_lane = std::max(primary_lane, o.lane);

  std::map<std::uint32_t, OpSpans> by_index;
  for (const OpRecord& o : ops)
    if (o.traced) by_index[o.index].op = &o;
  for (const Span& s : spans) {
    auto it = by_index.find(s.op);
    if (it != by_index.end()) it->second.spans.push_back(&s);
  }
  std::vector<OpSpans> traced;
  for (auto& [index, o] : by_index) traced.push_back(std::move(o));

  Metrics m;
  apps_metrics(traced, count_slots, primary_lane, suite, m);

  std::vector<double> plan_ms, render_ms;
  if (suite) {
    drain_metrics(traced, primary_lane, m, plan_ms);
  } else {
    m["executor.self_us_per_run"] = {0, "us"};
    m["scheduler.busy_ratio"] = {0, "ratio"};
    for (const OpSpans& o : traced) {
      double ms = 0;
      for (const Span* s : o.spans)
        if (is(s, "planner.plan")) ms += s->dur_ns() / 1e6;
      plan_ms.push_back(ms);
    }
  }
  for (const OpSpans& o : traced) {
    double ms = 0;
    for (const Span* s : o.spans)
      if (is(s, "report.render")) ms += s->dur_ns() / 1e6;
    render_ms.push_back(ms);
  }
  m["planner.plan_ms"] = {median(plan_ms), "ms"};
  m["report.render_ms"] = {median(render_ms), "ms"};

  fleet_metrics(traced, count_slots, !suite, m);
  search_metrics(traced, count_slots, m);

  // Tracing overhead: the same slots with the decorators bypassed, on the
  // lane the end-to-end op_ms_p50 is reported for (suite-sweep: jobs=N).
  std::vector<double> with, without;
  for (const OpRecord& o : ops) {
    if (suite && o.lane != primary_lane) continue;
    (o.traced ? with : without).push_back(o.ms());
  }
  m["trace.overhead_pct"] = {
      without.empty() ? 0 : 100.0 * (median(with) / median(without) - 1),
      "pct"};
  return m;
}

}  // namespace perfbench
