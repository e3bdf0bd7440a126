// The two fleet workloads: real epa_cli coordinator and worker processes.
//
// fleet-campaigns: each op is `epa_cli orchestrate NAME --workers 1
// --json` on one data plane; slots rotate pipe -> shm -> tcp, and the
// three slots of a round run the same seed-drawn scenario. On tcp the
// driver starts the `epa_cli worker --connect` process as soon as the
// port file appears, inside the op's time. Stdout and exit code must equal
// `epa_cli run NAME --json`.
//
// search-fleet: each op is `epa_cli search --family fam-relay --budget 150
// --batch 16 --workers 1 --data-plane shm --seed S --json`, S drawn from a
// seed-derived pool; stdout must equal the in-process search. The shm
// plane keeps the op off the disk: the pipe plane's ~190 plan and lease
// files per op made its time swing with the host's disk (README.md).
//
// The traced run drives the same ops through core::orchestrate /
// orchestrate_source in this process, with real `epa_cli worker`
// processes behind the decorated transports, alternating with the same
// op with the decorators bypassed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/families.hpp"
#include "bench.hpp"
#include "common.hpp"
#include "core/orchestrator.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/search.hpp"
#include "core/transport.hpp"
#include "core/wire.hpp"
#include "decorators.hpp"
#include "net/transport_tcp.hpp"
#include "procs.hpp"
#include "vulndb/coverage.hpp"

namespace perfbench {

namespace core = ep::core;

namespace {

// One worker per fleet. With three, every barrier waited on the slowest of
// three fresh processes, and a neighbour's load on the shared host moved
// the search-fleet median by up to half from run to run (README.md).
constexpr int kWorkers = 1;
constexpr std::int64_t kSecond = 1000000000;
constexpr std::int64_t kOpTimeout = 30 * kSecond;
constexpr std::int64_t kExitTimeout = 10 * kSecond;
const char* const kPlanes[] = {"pipe", "shm", "tcp"};

/// epa_cli's `--lease auto` grain, so in-process fleets lease exactly
/// like the CLI's: items/(workers*4), capped at ~250 ms of work per lease
/// by the planning time.
std::size_t auto_lease_items(std::size_t plan_items, int workers,
                             double plan_ms) {
  const std::size_t grain = std::max<std::size_t>(
      1, plan_items / (static_cast<std::size_t>(workers) * 4));
  const double per_item_ms = plan_ms / 2.0;
  if (per_item_ms <= 0.0) return grain;
  const double by_cost = 250.0 / per_item_ms;
  if (by_cost >= static_cast<double>(grain)) return grain;
  return std::max<std::size_t>(1, static_cast<std::size_t>(by_cost));
}

/// The classes a coordinator listed on stderr ("<prefix> fired <class>").
std::set<std::string> fired_lines(const std::string& err,
                                  const std::string& prefix) {
  std::set<std::string> out;
  const std::string key = prefix + " fired ";
  std::size_t pos = 0;
  while (pos < err.size()) {
    std::size_t nl = err.find('\n', pos);
    if (nl == std::string::npos) nl = err.size();
    if (err.compare(pos, key.size(), key) == 0)
      out.insert(err.substr(pos + key.size(), nl - pos - key.size()));
    pos = nl + 1;
  }
  return out;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// Reference output of one command: stdout bytes and exit code.
struct Reference {
  std::string out;
  int status = 0;
  long long runs = 0;
  std::set<std::string> classes;
};

Reference capture_reference(const std::vector<std::string>& argv,
                            const Options& o) {
  Captured c = run_capture(argv, o.tmp_dir, 60 * kSecond);
  if (c.result.timed_out || (c.result.status != 0 && c.result.status != 3))
    throw std::runtime_error("reference command failed (" + argv[1] +
                             "): " + c.err);
  Reference r;
  r.out = std::move(c.out);
  r.status = c.result.status;
  return r;
}

/// What one op produced, however it ran.
struct Produced {
  std::string out;
  int status = 0;
  std::set<std::string> classes;
};

void judge(OpRecord& rec, const Produced& got, const Reference& ref) {
  rec.classes_ref = static_cast<int>(ref.classes.size());
  rec.classes_hit = count_hits(got.classes, ref.classes);
  if (!rec.ok) return;
  if (got.status != ref.status) {
    rec.ok = false;
    rec.failure = "exit code " + std::to_string(got.status) + ", expected " +
                  std::to_string(ref.status);
  } else if (got.out != ref.out) {
    rec.ok = false;
    rec.failure = "stdout differs from the reference bytes";
  }
}

/// One coordinator process, plus — on tcp — the workers the driver
/// launches once the port file appears. The op's time runs from the
/// coordinator's spawn to its exit.
void run_coordinator(const Options& o, std::vector<std::string> argv,
                     bool tcp, const std::string& dir, OpRecord& rec,
                     Produced& got) {
  ChildGroup group;
  const std::string out = dir + "/stdout";
  const std::string err = dir + "/stderr";
  const std::string port_file = dir + "/port";
  if (tcp) {
    argv.insert(argv.end(), {"--data-plane", "tcp", "--listen", "0",
                             "--port-file", port_file});
  }
  rec.start_ns = now_ns();
  const std::int64_t deadline = rec.start_ns + kOpTimeout;
  const pid_t coord = group.start({argv, out, err});
  std::vector<pid_t> workers;
  if (tcp) {
    if (!group.wait_for_file(port_file, coord, deadline)) {
      rec.end_ns = now_ns();
      rec.ok = false;
      rec.failure = "tcp coordinator never published its port";
      return;  // the group's destructor kills and reaps it
    }
    std::string port = read_file(port_file);
    while (!port.empty() && (port.back() == '\n' || port.back() == ' '))
      port.pop_back();
    for (int k = 0; k < kWorkers; ++k)
      workers.push_back(group.start(
          {{o.epa_cli, "worker", "--connect", "127.0.0.1:" + port}, "", ""}));
  }
  ChildResult c = group.wait(coord, deadline);
  rec.end_ns = now_ns();
  if (c.timed_out) {
    rec.ok = false;
    rec.failure = "coordinator timed out";
    return;
  }
  got.status = c.status;
  rec.maxrss_kb = c.maxrss_kb;
  for (pid_t w : workers) {
    ChildResult wr = group.wait(w, now_ns() + kExitTimeout);
    if (wr.timed_out) {
      rec.ok = false;
      rec.failure = "tcp worker did not exit after the coordinator";
    }
    rec.maxrss_kb = std::max(rec.maxrss_kb, wr.maxrss_kb);
  }
  got.out = read_file(out);
  const std::string errs = read_file(err);
  got.classes = fired_lines(
      errs, argv[1] == "orchestrate" ? "epa orchestrate:" : "epa search:");
  if (got.status != 0 && got.status != 3) {
    rec.ok = false;
    rec.failure = "coordinator exited " + std::to_string(got.status) + ": " +
                  errs.substr(errs.size() > 400 ? errs.size() - 400 : 0);
  }
}

/// The shared in-process fleet: a transport over real worker processes,
/// decorated when traced.
class InProcessFleet {
 public:
  /// `arena_leases` sizes the shm plane's arena (one segment per lease
  /// seq); the other planes ignore it.
  InProcessFleet(const Options& o, int plane, const std::string& dir,
                 const std::string& prefix, const core::InjectionPlan& plan,
                 const std::vector<core::Lease>& arena_leases, bool traced) {
    core::LocalProcessConfig cfg;
    cfg.epa_cli = o.epa_cli;
    cfg.out_dir = dir;
    cfg.file_prefix = prefix;
    if (plane == 0) {
      std::string wire;
      {
        Scope span("wire.encode");
        wire = plan.to_json();
        span.set(static_cast<std::int64_t>(wire.size()));
      }
      cfg.plan_path = dir + "/" + prefix + ".plan.json";
      write_text(cfg.plan_path, wire);
      transport_ = std::make_unique<core::LocalProcessTransport>(cfg);
    } else {
      if (traced) {  // the transports encode internally; size it here
        Scope span("wire.encode");
        span.set(static_cast<std::int64_t>(core::plan_to_binary(plan).size()));
      }
      if (plane == 1) {
        transport_ = std::make_unique<core::ShmLocalTransport>(
            cfg, plan, arena_leases);
      } else {
        ep::net::TcpTransportConfig tcfg;
        tcfg.workers = kWorkers;
        auto t = std::make_unique<ep::net::TcpTransport>(tcfg, plan);
        const std::string port = std::to_string(t->port());
        for (int k = 0; k < kWorkers; ++k)
          workers_.push_back(tcp_group_.start(
              {{o.epa_cli, "worker", "--connect", "127.0.0.1:" + port},
               "",
               ""}));
        transport_ = std::move(t);
      }
    }
    if (traced) decorated_ = std::make_unique<TracedTransport>(*transport_);
  }

  core::Transport& transport() {
    return decorated_ ? static_cast<core::Transport&>(*decorated_)
                      : *transport_;
  }

  /// Tear the fleet down; false when a tcp worker outlived its
  /// coordinator.
  bool close() {
    decorated_.reset();
    transport_.reset();
    bool clean = true;
    for (pid_t w : workers_)
      clean = !tcp_group_.wait(w, now_ns() + kExitTimeout).timed_out && clean;
    workers_.clear();
    return clean;
  }

 private:
  ChildGroup tcp_group_;  // outlives the transport: destroyed last
  std::vector<pid_t> workers_;
  std::unique_ptr<core::Transport> transport_;
  std::unique_ptr<TracedTransport> decorated_;
};

void record_stats(const core::OrchestratorStats& st) {
  Scope span("orchestrator.stats",
             static_cast<std::int64_t>(st.leases_granted),
             static_cast<std::int64_t>(st.workers_spawned),
             static_cast<std::int64_t>(st.leases_split));
}

// --- fleet-campaigns ---------------------------------------------------------

class FleetCampaigns : public Workload {
 public:
  explicit FleetCampaigns(const Options& opts) : opts_(opts) {}

  void setup() override {
    scenarios_ = all_scenarios();
    traced_.clear();
    if (opts_.trace)
      for (const core::Scenario& s : scenarios_)
        traced_.push_back(traced_scenario(s));
    TempDir dir(opts_.tmp_dir + "/warmup");
    OpRecord rec;
    Produced got;
    run_coordinator(opts_,
                    {opts_.epa_cli, "orchestrate", scenarios_.front().name,
                     "--workers", std::to_string(kWorkers), "--json", "--dir",
                     dir.path()},
                    false, dir.path(), rec, got);
  }

  /// Draw the basket — one scenario per distinct plan size, so every
  /// seed's basket has the same plan sizes (and so the same lease counts
  /// and wire volumes) — and compute each member's reference.
  void reference() override {
    std::map<std::size_t, std::vector<std::size_t>> by_size;
    for (std::size_t i = 0; i < scenarios_.size(); ++i) {
      core::CampaignOptions popts;
      popts.use_world_cache = false;
      by_size[core::Planner(scenarios_[i]).plan(popts).items.size()]
          .push_back(i);
    }
    basket_.clear();
    for (const auto& [items, members] : by_size)
      basket_.push_back(
          members[mix64(opts_.seed * 7919 + items) % members.size()]);
    for (std::size_t i = basket_.size(); i > 1; --i)
      std::swap(basket_[i - 1], basket_[mix64(opts_.seed * 104723 + i) % i]);
    refs_.clear();
    for (std::size_t si : basket_) {
      const core::Scenario& sc = scenarios_[si];
      Reference r = capture_reference(
          {opts_.epa_cli, "run", sc.name, "--json"}, opts_);
      core::CampaignResult local = core::Campaign(sc).execute();
      r.runs = local.n();
      r.classes = fired_classes({local});
      refs_.push_back(std::move(r));
    }
  }

  OpRecord op(std::uint32_t index, std::uint32_t slot, bool traced) override {
    OpRecord rec;
    rec.lane = static_cast<int>(slot % 3);
    const std::size_t round = (slot / 3) % basket_.size();
    const std::size_t si = basket_[round];
    const core::Scenario& sc = scenarios_[si];
    TempDir dir(opts_.tmp_dir + "/op" + std::to_string(index));
    Produced got;
    if (!opts_.trace) {
      std::vector<std::string> argv = {opts_.epa_cli, "orchestrate",
                                       sc.name,       "--workers",
                                       std::to_string(kWorkers), "--json"};
      if (rec.lane != 2) {
        argv.insert(argv.end(), {"--data-plane", kPlanes[rec.lane], "--dir",
                                 dir.path()});
      }
      run_coordinator(opts_, argv, rec.lane == 2, dir.path(), rec, got);
    } else {
      in_process(traced ? traced_[si] : sc, rec.lane, dir.path(), traced, rec,
                 got);
    }
    rec.runs = refs_[round].runs;
    judge(rec, got, refs_[round]);
    return rec;
  }

  [[nodiscard]] std::uint32_t cycle_slots() const override {
    return static_cast<std::uint32_t>(3 * basket_.size());
  }
  [[nodiscard]] std::uint32_t count_slots() const override { return 3; }
  [[nodiscard]] std::string lane_name(int lane) const override {
    return kPlanes[lane];
  }

 private:
  void in_process(const core::Scenario& sc, int plane,
                  const std::string& dir, bool traced, OpRecord& rec,
                  Produced& got) {
    rec.start_ns = now_ns();
    try {
      core::CampaignOptions popts;
      popts.use_world_cache = false;  // the plan ships without a snapshot
      core::InjectionPlan plan;
      std::int64_t t0 = now_ns();
      {
        Scope span("planner.plan");
        plan = core::Planner(sc).plan(popts);
      }
      const double plan_ms = (now_ns() - t0) / 1e6;
      core::OrchestratorOptions oopts;
      oopts.workers = kWorkers;
      oopts.lease_items = auto_lease_items(plan.items.size(), kWorkers,
                                           plan_ms);
      InProcessFleet fleet(opts_, plane, dir, sc.name, plan,
                           core::lease_partition(plan.items.size(), oopts),
                           traced);
      core::OrchestratorStats stats;
      core::CampaignResult result;
      {
        Scope span("orchestrator.orchestrate");
        result = core::orchestrate(plan, fleet.transport(), oopts, &stats);
      }
      record_stats(stats);
      {
        Scope span("report.render");
        got.out = core::render_json(result);
        span.set(static_cast<std::int64_t>(got.out.size()));
      }
      got.status = result.exploitable().empty() ? 0 : 3;
      const bool clean = fleet.close();
      rec.end_ns = now_ns();
      got.classes = fired_classes({result});
      if (!clean) {
        rec.ok = false;
        rec.failure = "tcp worker did not exit after the coordinator";
      }
    } catch (const Interrupted&) {
      throw;
    } catch (const std::exception& e) {
      rec.end_ns = now_ns();
      rec.ok = false;
      rec.failure = e.what();
    }
  }

  Options opts_;
  std::vector<core::Scenario> scenarios_;
  std::vector<core::Scenario> traced_;
  std::vector<std::size_t> basket_;  // scenario indexes, in round order
  std::vector<Reference> refs_;      // parallel to basket_
};

// --- search-fleet ------------------------------------------------------------

constexpr std::size_t kSeedPool = 4;
constexpr int kShm = 1;  // search-fleet's data plane
constexpr std::size_t kBudget = 150;
constexpr std::size_t kBatch = 16;
const char* const kFamily = "fam-relay";

class SearchFleet : public Workload {
 public:
  explicit SearchFleet(const Options& opts) : opts_(opts) {
    for (std::size_t j = 0; j < kSeedPool; ++j)
      seeds_.push_back(1 + mix64(opts_.seed * 104729 + j) % 1000000);
  }

  void setup() override {
    const core::ScenarioFamily* fam = ep::apps::find_family(kFamily);
    if (!fam) throw std::runtime_error(std::string("no family ") + kFamily);
    members_ = ep::apps::family_scenarios(*fam);
    traced_.clear();
    if (opts_.trace)
      for (const core::Scenario& s : members_)
        traced_.push_back(traced_scenario(s));
    TempDir dir(opts_.tmp_dir + "/warmup");
    OpRecord rec;
    Produced got;
    run_coordinator(opts_, fleet_argv(seeds_[0], dir.path()), false,
                    dir.path(), rec, got);
  }

  void reference() override {
    // The exhaustive drain of the family: the coverage denominator.
    core::MultiCampaign suite;
    for (const core::Scenario& s : members_) suite.add(s);
    std::set<std::string> exhaustive = fired_classes(suite.run().results);
    for (std::uint64_t s : seeds_) {
      Reference r = capture_reference(search_argv(s), opts_);
      const std::string key = "\"injections\": ";
      const std::size_t totals = r.out.rfind("\"totals\"");
      const std::size_t at =
          totals == std::string::npos ? totals : r.out.find(key, totals);
      if (at == std::string::npos)
        throw std::runtime_error("search reference has no totals");
      r.runs = std::strtoll(r.out.c_str() + at + key.size(), nullptr, 10);
      r.classes = exhaustive;
      refs_.push_back(std::move(r));
    }
  }

  OpRecord op(std::uint32_t index, std::uint32_t slot, bool traced) override {
    OpRecord rec;
    rec.lane = kShm;
    const std::size_t j = slot % kSeedPool;
    TempDir dir(opts_.tmp_dir + "/op" + std::to_string(index));
    Produced got;
    if (!opts_.trace) {
      run_coordinator(opts_, fleet_argv(seeds_[j], dir.path()), false,
                      dir.path(), rec, got);
    } else {
      in_process(seeds_[j], dir.path(), traced, rec, got);
    }
    rec.runs = refs_[j].runs;
    judge(rec, got, refs_[j]);
    return rec;
  }

  [[nodiscard]] std::uint32_t cycle_slots() const override {
    return kSeedPool;
  }
  [[nodiscard]] std::uint32_t count_slots() const override {
    return kSeedPool;
  }
  [[nodiscard]] std::string lane_name(int) const override { return "shm"; }

 private:
  std::vector<std::string> search_argv(std::uint64_t seed) const {
    return {opts_.epa_cli, "search",  "--family",
            kFamily,       "--budget", std::to_string(kBudget),
            "--batch",     std::to_string(kBatch), "--seed",
            std::to_string(seed), "--json"};
  }

  std::vector<std::string> fleet_argv(std::uint64_t seed,
                                      const std::string& dir) const {
    std::vector<std::string> argv = search_argv(seed);
    argv.insert(argv.end(), {"--workers", std::to_string(kWorkers),
                             "--data-plane", "shm", "--dir", dir});
    return argv;
  }

  /// epa_cli search's orchestrated drive, member by member through one
  /// shared NoveltyScorer, on the shm plane.
  void in_process(std::uint64_t seed, const std::string& dir, bool traced,
                  OpRecord& rec, Produced& got) {
    const std::vector<core::Scenario>& members = traced ? traced_ : members_;
    rec.start_ns = now_ns();
    try {
      core::NoveltyScorer scorer;
      core::SweepResult sweep;
      for (std::size_t m = 0; m < members.size(); ++m) {
        const core::Scenario& sc = members[m];
        const std::size_t member_budget =
            kBudget / members.size() + (m == 0 ? kBudget % members.size() : 0);
        core::CampaignOptions popts;
        popts.use_world_cache = false;
        core::InjectionPlan base;
        std::int64_t t0 = now_ns();
        {
          Scope span("planner.plan");
          base = core::Planner(sc).plan(popts);
        }
        const double plan_ms = (now_ns() - t0) / 1e6;
        core::SearchOptions sopts;
        sopts.seed = seed;
        sopts.budget = member_budget;
        sopts.batch = kBatch;
        sopts.classify = [](core::FaultKind kind, const std::string& name) {
          return ep::vulndb::coverage_class(kind, name);
        };
        core::SearchWorkSource source(std::move(base), sopts, &scorer);
        core::OrchestratorOptions oopts;
        oopts.workers = kWorkers;
        oopts.lease_items = auto_lease_items(kBatch, kWorkers, plan_ms);
        const std::size_t known = source.plan().items.size();
        // epa_cli search's arena sizing: leases are cut per wave, so the
        // seq space is bounded instead of enumerated — every lease covers
        // at least one item and the stream is capped at the budget.
        const std::size_t seqs = std::max<std::size_t>(member_budget, 1);
        const std::size_t max_lease = std::max<std::size_t>(
            1, std::min(oopts.lease_items, std::min(kBatch, seqs)));
        std::vector<core::Lease> arena_leases;
        for (std::size_t q = 0; q < seqs; ++q)
          arena_leases.push_back({q, 0, max_lease});
        InProcessFleet fleet(opts_, kShm, dir, sc.name, source.plan(),
                             arena_leases, traced);
        core::OrchestratorStats stats;
        {
          Scope span("orchestrator.orchestrate");
          if (traced) {
            TracedWorkSource decorated(source);
            sweep.results.push_back(core::orchestrate_source(
                decorated, fleet.transport(), oopts, &stats, known));
          } else {
            sweep.results.push_back(core::orchestrate_source(
                source, fleet.transport(), oopts, &stats, known));
          }
        }
        record_stats(stats);
        fleet.close();
      }
      {
        Scope span("report.render");
        got.out = render_sweep_json(sweep, true);
        span.set(static_cast<std::int64_t>(got.out.size()));
      }
      got.status = sweep.total_exploitable() == 0 ? 0 : 3;
      rec.end_ns = now_ns();
      got.classes = fired_classes(sweep.results);
    } catch (const Interrupted&) {
      throw;
    } catch (const std::exception& e) {
      rec.end_ns = now_ns();
      rec.ok = false;
      rec.failure = e.what();
    }
  }

  Options opts_;
  std::vector<std::uint64_t> seeds_;
  std::vector<core::Scenario> members_;
  std::vector<core::Scenario> traced_;
  std::vector<Reference> refs_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_campaigns(const Options& opts) {
  return std::make_unique<FleetCampaigns>(opts);
}

std::unique_ptr<Workload> make_search_fleet(const Options& opts) {
  return std::make_unique<SearchFleet>(opts);
}

}  // namespace perfbench
