// The distribution wire format (core/wire.hpp, docs/WIRE_FORMAT.md):
// canonical plan/shard-report round trips, the one ownership rule (a
// strided lease), the deterministic merge, and one test per validation
// error path — a malformed or partial file must raise WireError naming
// what broke.
#include "core/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

InjectionPlan toy_plan(bool with_snapshot = false) {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.use_world_cache = with_snapshot;
  return Planner(s).plan(opts);
}

/// The ids `r` owns, ascending, enumerated by stride.
std::vector<std::size_t> ids_of(const IdRange& r) {
  std::vector<std::size_t> ids;
  for (std::size_t k = 0; k < r.size(); ++k)
    ids.push_back(r.begin + k * r.stride);
  return ids;
}

/// `run-shard --shard K/N` over `plan` (0-based k).
ShardReport run_static_shard(const Executor& ex, const InjectionPlan& plan,
                             std::size_t k, std::size_t n,
                             const ExecutorOptions& opts = {},
                             const ShardDrainHooks& hooks = {}) {
  return run_lease(ex, plan, static_shard(plan.items.size(), k, n), opts,
                   hooks);
}

/// The message of the WireError `fn` must throw.
template <typename Fn>
std::string wire_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const WireError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected WireError";
  return {};
}

void expect_plans_equal(const InjectionPlan& a, const InjectionPlan& b) {
  EXPECT_EQ(a.scenario_name, b.scenario_name);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].site, b.points[i].site) << i;
    EXPECT_EQ(a.points[i].call, b.points[i].call) << i;
    EXPECT_EQ(a.points[i].object, b.points[i].object) << i;
    EXPECT_EQ(a.points[i].kind, b.points[i].kind) << i;
    EXPECT_EQ(a.points[i].semantic, b.points[i].semantic) << i;
    EXPECT_EQ(a.points[i].channel_kind, b.points[i].channel_kind) << i;
    EXPECT_EQ(a.points[i].has_input, b.points[i].has_input) << i;
    EXPECT_EQ(a.points[i].hits, b.points[i].hits) << i;
  }
  ASSERT_EQ(a.benign_violations.size(), b.benign_violations.size());
  EXPECT_EQ(a.perturbed_site_tags, b.perturbed_site_tags);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].point_index, b.items[i].point_index) << i;
    EXPECT_EQ(a.items[i].fault.kind, b.items[i].fault.kind) << i;
    EXPECT_EQ(a.items[i].fault.name(), b.items[i].fault.name()) << i;
  }
}

TEST(Wire, PlanRoundTripsThroughJson) {
  InjectionPlan plan = toy_plan();
  std::string json = plan.to_json();
  EXPECT_TRUE(contains(json, "\"schema_version\": 2"));
  EXPECT_TRUE(contains(json, "\"kind\": \"injection-plan\""));

  InjectionPlan parsed = plan_from_json(json);
  expect_plans_equal(plan, parsed);
  EXPECT_EQ(parsed.snapshot, nullptr);  // never on the wire

  // Canonical form: parse -> re-serialize reproduces the bytes verbatim
  // (what lets docs/WIRE_FORMAT.md pin the example literally).
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(Wire, RoundTrippedPlanExecutesIdentically) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  InjectionPlan parsed = plan_from_json(plan.to_json());
  Executor ex(s);
  ExecutorOptions opts;
  opts.use_world_cache = false;
  expect_identical(ex.execute(plan, opts), ex.execute(parsed, opts));
}

TEST(Wire, RefreezeRestoresTheCowPath) {
  Scenario s = toy_scenario();
  InjectionPlan parsed = plan_from_json(toy_plan().to_json());
  ASSERT_EQ(parsed.snapshot, nullptr);
  refreeze_snapshot(parsed, s);
  ASSERT_NE(parsed.snapshot, nullptr);
  // Re-freezing is idempotent, and cached == uncached still holds for the
  // rebuilt plan.
  auto snap = parsed.snapshot;
  refreeze_snapshot(parsed, s);
  EXPECT_EQ(parsed.snapshot, snap);
  Executor ex(s);
  ExecutorOptions cached, uncached;
  uncached.use_world_cache = false;
  expect_identical(ex.execute(parsed, cached), ex.execute(parsed, uncached));
}

TEST(Wire, ShardItemIdsPartitionThePlan) {
  EXPECT_EQ(ids_of(static_shard(10, 0, 3)),
            (std::vector<std::size_t>{0, 3, 6, 9}));
  EXPECT_EQ(ids_of(static_shard(10, 1, 3)),
            (std::vector<std::size_t>{1, 4, 7}));
  EXPECT_EQ(ids_of(static_shard(10, 2, 3)),
            (std::vector<std::size_t>{2, 5, 8}));
  // More shards than items: trailing shards legitimately drain nothing.
  EXPECT_EQ(ids_of(static_shard(2, 2, 5)), std::vector<std::size_t>{});
  // Every id lands in exactly one shard for any count.
  for (std::size_t n = 1; n <= 8; ++n) {
    std::vector<std::size_t> all;
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t id : ids_of(static_shard(41, k, n))) all.push_back(id);
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), 41u) << n;
    for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
  }
  EXPECT_THROW((void)static_shard(10, 3, 3), WireError);
  EXPECT_THROW((void)static_shard(10, 0, 0), WireError);

  // `--shard K/N` is the strided lease [K-1, n) stride N, which must own
  // exactly { id | id % N == K-1 } — the set the modulo rule owned — for
  // every count up to past the plan, including shards that own nothing.
  for (std::size_t items : {0u, 1u, 10u, 41u}) {
    for (std::size_t n = 1; n <= items + 2; ++n) {
      for (std::size_t k = 0; k < n; ++k) {
        IdRange r = static_shard(items, k, n);
        EXPECT_LE(r.end, items);
        std::vector<std::size_t> want;
        for (std::size_t id = 0; id < items; ++id)
          if (id % n == k) want.push_back(id);
        EXPECT_EQ(ids_of(r), want) << items << " items, shard " << k + 1
                                   << "/" << n;
        EXPECT_EQ(r.size(), want.size());
        for (std::size_t id = 0; id < items + 3; ++id)
          EXPECT_EQ(r.contains(id), id < items && id % n == k)
              << items << " items, shard " << k + 1 << "/" << n << ", id "
              << id;
      }
    }
  }
}

TEST(Wire, ShardReportRoundTripsThroughJson) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  ShardReport report = run_static_shard(Executor(s), plan, 1, 3);
  EXPECT_EQ(report.scenario_name, "toy");
  EXPECT_EQ(report.plan_items, plan.items.size());
  EXPECT_EQ(report.item_ids, ids_of(static_shard(plan.items.size(), 1, 3)));
  EXPECT_TRUE(report.complete);

  std::string json = report.to_json();
  EXPECT_TRUE(contains(json, "\"schema_version\": 4"));
  EXPECT_TRUE(contains(json, "\"begin\": 1,\n  \"end\": " +
                                 std::to_string(plan.items.size()) +
                                 ",\n  \"stride\": 3,"));
  EXPECT_TRUE(contains(json, "\"complete\": true"));
  EXPECT_TRUE(contains(json, "\"completed_ids\": ["));
  // An outcome holds no plan names, so none reach the wire (violation
  // objects still carry their own sites — those are run output, not plan
  // echo).
  EXPECT_FALSE(contains(json, "\"fault\":"));

  ShardReport parsed = shard_report_from_json(json);
  EXPECT_EQ(parsed.scenario_name, report.scenario_name);
  EXPECT_EQ(parsed.owned, report.owned);
  EXPECT_EQ(parsed.plan_items, report.plan_items);
  EXPECT_EQ(parsed.item_ids, report.item_ids);
  EXPECT_TRUE(parsed.complete);
  ASSERT_EQ(parsed.outcomes.size(), report.outcomes.size());
  for (std::size_t i = 0; i < parsed.outcomes.size(); ++i) {
    // An outcome holds only what its run decided, all of which crosses
    // the wire: the parsed report equals the in-memory one.
    const InjectionOutcome& x = parsed.outcomes[i];
    const InjectionOutcome& y = report.outcomes[i];
    EXPECT_EQ(x.fired, y.fired) << i;
    EXPECT_EQ(x.violated, y.violated) << i;
    EXPECT_EQ(x.crashed, y.crashed) << i;
    EXPECT_EQ(x.overflows, y.overflows) << i;
    EXPECT_EQ(x.exit_code, y.exit_code) << i;
    ASSERT_EQ(x.violations.size(), y.violations.size()) << i;
    for (std::size_t v = 0; v < x.violations.size(); ++v) {
      EXPECT_EQ(x.violations[v].site, y.violations[v].site) << i;
      EXPECT_EQ(x.violations[v].detail, y.violations[v].detail) << i;
    }
    EXPECT_EQ(x.exploit.nonroot_feasible, y.exploit.nonroot_feasible) << i;
    EXPECT_EQ(x.exploit.actor, y.exploit.actor) << i;
    EXPECT_EQ(x.exploit.note, y.exploit.note) << i;
  }
  EXPECT_EQ(parsed.to_json(), json);  // canonical round trip
}

TEST(Wire, PartialShardReportRoundTripsThroughJson) {
  // A preempted drain's flush: a strict subset of the owned ids, marked
  // complete=false, is a valid wire file that parses and round-trips.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  ShardReport full = run_static_shard(Executor(s), plan, 0, 2);
  ASSERT_GE(full.item_ids.size(), 2u);

  ShardReport partial = full;
  partial.item_ids.resize(2);
  partial.outcomes.resize(2);
  partial.complete = false;
  std::string json = partial.to_json();
  EXPECT_TRUE(contains(json, "\"complete\": false"));

  ShardReport parsed = shard_report_from_json(json);
  EXPECT_FALSE(parsed.complete);
  EXPECT_EQ(parsed.item_ids, partial.item_ids);
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(Wire, MergeReassemblesThePlanOrderResult) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  for (std::size_t n : {2u, 3u, 7u}) {
    std::vector<ShardReport> shards;
    for (std::size_t k = 0; k < n; ++k)
      shards.push_back(run_static_shard(ex, plan, k, n));
    // Arrival order must not matter.
    std::reverse(shards.begin(), shards.end());
    CampaignResult merged = merge_shard_reports(plan, shards);
    expect_identical(single, merged);
    EXPECT_EQ(render_report(single), render_report(merged)) << n;
    EXPECT_EQ(render_json(single), render_json(merged)) << n;
  }
}

TEST(Wire, MergeSurvivesTheWireRoundTrip) {
  // The full cross-process pipeline in miniature: every byte of shard
  // state passes through JSON, and the merged report still matches the
  // in-process drain bit for bit.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  InjectionPlan parsed = plan_from_json(plan.to_json());
  refreeze_snapshot(parsed, s);
  Executor ex(s);
  std::vector<ShardReport> shards;
  for (std::size_t k = 0; k < 3; ++k)
    shards.push_back(shard_report_from_json(
        run_static_shard(ex, parsed, k, 3).to_json()));
  CampaignResult merged = merge_shard_reports(parsed, shards);
  ExecutorOptions opts;
  opts.jobs = 4;
  expect_identical(ex.execute(plan, opts), merged);
}

// --- stride-1 leases and mixed partitions ----------------------------------

TEST(WireLease, LeaseReportRoundTripsThroughJson) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  ASSERT_GE(plan.items.size(), 5u);
  ShardReport report = run_lease(Executor(s), plan, {1, 4});
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(ids_of(report.owned), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(report.item_ids, ids_of(report.owned));
  EXPECT_EQ(report.owned.stride, 1u);

  std::string json = report.to_json();
  EXPECT_TRUE(contains(
      json, "\"begin\": 1,\n  \"end\": 4,\n  \"stride\": 1,"));
  ShardReport parsed = shard_report_from_json(json);
  EXPECT_TRUE(parsed.complete);
  EXPECT_EQ(parsed.owned, report.owned);
  EXPECT_EQ(parsed.item_ids, report.item_ids);
  EXPECT_EQ(parsed.to_json(), json);  // canonical round trip
}

TEST(WireLease, ModuloReportsStayByteIdenticalWithoutALease) {
  // One rule, one encoding: `--shard 1/1` is the whole-plan lease, so the
  // static shard and the stride-1 lease of the same ids are the same
  // bytes — there is no second ownership field to tell them apart.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  Executor ex(s);
  std::string json = run_static_shard(ex, plan, 0, 1).to_json();
  EXPECT_EQ(json, run_lease(ex, plan, {0, plan.items.size()}).to_json());
  EXPECT_EQ(shard_report_from_json(json).to_json(), json);
}

TEST(WireLease, MergeAcceptsAnyDisjointLeasePartition) {
  // Dynamic leases are arbitrary contiguous ranges — nothing modulo
  // about them. Any disjoint partition covering the plan must merge
  // byte-identically to the single process, in any arrival order.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  Executor ex(s);
  CampaignResult single = ex.execute(plan);
  const std::size_t n = plan.items.size();
  ASSERT_GE(n, 8u);

  std::vector<ShardReport> leases;
  leases.push_back(shard_report_from_json(
      run_lease(ex, plan, {5, 7}).to_json()));  // arrival order != id order
  leases.push_back(shard_report_from_json(
      run_lease(ex, plan, {0, 5}).to_json()));
  leases.push_back(shard_report_from_json(
      run_lease(ex, plan, {7, n}).to_json()));
  CampaignResult merged = merge_shard_reports(plan, leases);
  expect_identical(single, merged);
  EXPECT_EQ(render_json(single), render_json(merged));
}

TEST(WireLease, ResumeCompletesAPartialLeaseReport) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  Executor ex(s);
  ShardReport full = run_lease(ex, plan, {0, 4});
  ShardReport partial = full;
  partial.item_ids.resize(2);
  partial.outcomes.resize(2);
  partial.complete = false;
  std::string json = partial.to_json();
  EXPECT_TRUE(contains(json, "\"complete\": false"));
  ShardReport resumed =
      resume_shard(ex, plan, shard_report_from_json(json));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.to_json(), full.to_json());
}

TEST(WireLeaseErrors, RunLeaseRejectsARangeBeyondThePlan) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  Executor ex(s);
  std::string msg = wire_error_of(
      [&] { (void)run_lease(ex, plan, {0, plan.items.size() + 1}); });
  EXPECT_TRUE(contains(msg, "does not fit the plan"));
  msg = wire_error_of([&] { (void)run_lease(ex, plan, {3, 2}); });
  EXPECT_TRUE(contains(msg, "does not fit the plan"));
  msg = wire_error_of([&] { (void)run_lease(ex, plan, {0, 2, 0}); });
  EXPECT_TRUE(contains(msg, "stride must be >= 1"));
}

TEST(WireLeaseErrors, RejectsCompletedIdOutsideTheLease) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  ASSERT_GE(plan.items.size(), 5u);
  std::string json =
      replace_all(run_lease(Executor(s), plan, {1, 3}).to_json(),
                  "\"completed_ids\": [1, 2]", "\"completed_ids\": [1, 4]");
  EXPECT_TRUE(
      contains(wire_error_of([&] { (void)shard_report_from_json(json); }),
               "work-item id 4 is not owned by this report (ids [1, 3))"));
}

TEST(WireLeaseErrors, RejectsAssignedIdsOutOfOrderOrDuplicate) {
  // The assigned ids are the range now: a range whose ends are out of
  // order, whose stride repeats an id forever, or which runs past the
  // plan is rejected before any id is read.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  std::string json = run_lease(Executor(s), plan, {1, 3}).to_json();
  EXPECT_TRUE(contains(
      wire_error_of([&] {
        (void)shard_report_from_json(
            replace_all(json, "\"begin\": 1,", "\"begin\": 4,"));
      }),
      "range [4, 3) does not fit the plan"));
  EXPECT_TRUE(contains(
      wire_error_of([&] {
        (void)shard_report_from_json(
            replace_all(json, "\"stride\": 1,", "\"stride\": 0,"));
      }),
      "stride must be >= 1"));
  EXPECT_TRUE(contains(
      wire_error_of([&] {
        (void)shard_report_from_json(
            replace_all(json, "\"end\": 3,", "\"end\": 99999,"));
      }),
      "does not fit the plan"));
}

TEST(WireLeaseErrors, RejectsALeaseMasqueradingAsAModuloShard) {
  // A lease file whose stride is doctored into a static shard's no
  // longer owns the ids it holds: the range and the ids cannot disagree.
  Scenario s = toy_scenario();
  std::string json = run_lease(Executor(s), toy_plan(), {1, 3}).to_json();
  EXPECT_TRUE(contains(
      wire_error_of([&] {
        (void)shard_report_from_json(
            replace_all(json, "\"stride\": 1,", "\"stride\": 3,"));
      }),
      "work-item id 2 is not owned by this report (ids [1, 3) stride 3)"));
}

TEST(WireLeaseErrors, ResumeRejectsALeaseWithModuloShardFields) {
  // The parser holds wire files to their range; resume must hold
  // in-memory callers to the same invariant, or the resumed report would
  // serialize into a file its own reader rejects.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  Executor ex(s);
  ShardReport bad = run_lease(ex, plan, {0, 2});
  bad.owned.stride = 5;
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)resume_shard(ex, plan, bad); }),
      "resume: work-item id 1 is not owned by this report"));
  bad.owned = {0, plan.items.size() + 1};
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)resume_shard(ex, plan, bad); }),
      "resume: range [0, " + std::to_string(plan.items.size() + 1) +
          ") does not fit the plan"));
}

TEST(WireLeaseErrors, MergeRejectsOverlappingLeases) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  Executor ex(s);
  std::vector<ShardReport> leases;
  leases.push_back(run_lease(ex, plan, {0, 5}));
  leases.push_back(run_lease(ex, plan, {4, plan.items.size()}));
  std::string msg = wire_error_of(
      [&] { (void)merge_shard_reports(plan, leases, {"a.json", "b.json"}); });
  EXPECT_TRUE(contains(msg, "work item 4 is leased to both"));
  EXPECT_TRUE(contains(msg, "(a.json)"));
  EXPECT_TRUE(contains(msg, "(b.json)"));
}

TEST(WireLeaseErrors, MergeRejectsANonCoveringLeaseSet) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  Executor ex(s);
  std::vector<ShardReport> leases;
  leases.push_back(run_lease(ex, plan, {0, 5}));
  leases.push_back(run_lease(ex, plan, {6, plan.items.size()}));  // gap: 5
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan, leases); }),
      "work item 5 is not covered by any lease"));
}

TEST(WireLease, MergeAcceptsAStaticShardPlusSingleIdLeases) {
  // One ownership rule for every report: a `--shard 1/2` file (stride 2,
  // the even ids) and one single-id lease per odd id partition the plan,
  // so they merge byte-identically to the single process — through the
  // JSON and binary wire alike.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  Executor ex(s);
  CampaignResult single = ex.execute(plan);
  const std::size_t n = plan.items.size();
  ASSERT_GE(n, 4u);

  std::vector<ShardReport> mixed;
  std::vector<std::string> labels;
  mixed.push_back(shard_report_from_json(
      run_static_shard(ex, plan, 0, 2).to_json()));
  labels.push_back("even.json");
  for (std::size_t id = 1; id < n; id += 2) {
    mixed.push_back(shard_report_from_binary(
        shard_report_to_binary(run_lease(ex, plan, {id, id + 1}))));
    labels.push_back("odd" + std::to_string(id) + ".json");
  }
  std::vector<ShardReport> arrived(mixed.rbegin(), mixed.rend());
  std::vector<std::string> arrived_labels(labels.rbegin(), labels.rend());
  CampaignResult merged = merge_shard_reports(plan, arrived, arrived_labels);
  expect_identical(single, merged);
  EXPECT_EQ(render_json(single), render_json(merged));
  EXPECT_EQ(render_report(single), render_report(merged));

  // An extra lease over an even id overlaps the static shard: rejected,
  // naming both files.
  std::vector<ShardReport> overlap = mixed;
  std::vector<std::string> overlap_labels = labels;
  overlap.push_back(run_lease(ex, plan, {2, 3}));
  overlap_labels.push_back("extra.json");
  std::string msg = wire_error_of(
      [&] { (void)merge_shard_reports(plan, overlap, overlap_labels); });
  EXPECT_TRUE(contains(msg, "work item 2 is leased to both"));
  EXPECT_TRUE(contains(msg, "(even.json)"));
  EXPECT_TRUE(contains(msg, "(extra.json)"));

  // Dropping the lease over id 1 leaves a gap...
  std::vector<ShardReport> gap = mixed;
  gap.erase(gap.begin() + 1);  // the lease over id 1
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan, gap); }),
      "work item 1 is not covered by any lease"));

  // ...and a partial static shard is still a partial report.
  std::vector<ShardReport> partial = mixed;
  partial.front().item_ids.pop_back();  // the static shard
  partial.front().outcomes.pop_back();
  msg = wire_error_of(
      [&] { (void)merge_shard_reports(plan, partial, labels); });
  EXPECT_TRUE(contains(msg, "has no outcome"));
  EXPECT_TRUE(contains(msg, "(even.json)"));
  EXPECT_TRUE(contains(msg, "--resume"));
}

TEST(WireLeaseErrors, MergeRejectsAPartialLeaseReport) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  Executor ex(s);
  std::vector<ShardReport> leases;
  leases.push_back(run_lease(ex, plan, {0, 5}));
  leases.push_back(run_lease(ex, plan, {5, plan.items.size()}));
  leases[1].item_ids.pop_back();
  leases[1].outcomes.pop_back();
  std::string msg = wire_error_of([&] {
    (void)merge_shard_reports(plan, leases, {"a.json", "b.json"});
  });
  EXPECT_TRUE(contains(msg, "partial lease report"));
  EXPECT_TRUE(contains(msg, "(b.json)"));
  EXPECT_TRUE(contains(msg, "--resume"));
}

TEST(Wire, MergeScalesToLargeShardCountsWithEmptyTrailingShards) {
  // Merge with a shard count well beyond the item count (trailing shards
  // own nothing and arrive as empty-but-complete reports) must resolve
  // owners through the id-indexed owner map, not a per-item rescan of
  // the shard list — and a partial report in the pile is still
  // attributed to its file.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  Executor ex(s);
  CampaignResult single = ex.execute(plan);
  const std::size_t count = plan.items.size() * 2;

  std::vector<ShardReport> shards;
  std::vector<std::string> labels;
  for (std::size_t k = 0; k < count; ++k) {
    shards.push_back(run_static_shard(ex, plan, k, count));
    labels.push_back("s" + std::to_string(k) + ".json");
  }
  expect_identical(single, merge_shard_reports(plan, shards, labels));

  // Hollow out the shard owning the last item; the diagnostic must name
  // that shard's file without scanning shards per missing item.
  const std::size_t victim_id = plan.items.size() - 1;
  const std::size_t owner = victim_id % count;
  shards[owner].item_ids.clear();
  shards[owner].outcomes.clear();
  std::string msg = wire_error_of(
      [&] { (void)merge_shard_reports(plan, shards, labels); });
  EXPECT_TRUE(contains(msg, "work item " + std::to_string(victim_id) +
                                " has no outcome"));
  EXPECT_TRUE(contains(msg, "(s" + std::to_string(owner) + ".json)"));
}

// --- plan_from_json error paths ---------------------------------------------

TEST(WireErrors, PlanRejectsMalformedJson) {
  EXPECT_TRUE(contains(
      wire_error_of([] { (void)plan_from_json("{\"schema_version\": 1,"); }),
      "not valid JSON"));
}

TEST(WireErrors, PlanRejectsNonObject) {
  EXPECT_TRUE(contains(wire_error_of([] { (void)plan_from_json("[]"); }),
                       "must be an object"));
}

TEST(WireErrors, PlanRejectsMissingSchemaVersion) {
  EXPECT_TRUE(contains(wire_error_of([] { (void)plan_from_json("{}"); }),
                       "schema_version"));
}

TEST(WireErrors, PlanRejectsFutureSchemaVersion) {
  std::string msg = wire_error_of([] {
    (void)plan_from_json("{\"schema_version\": 99, \"kind\": "
                         "\"injection-plan\"}");
  });
  EXPECT_TRUE(contains(msg, "unsupported schema_version 99"));
  EXPECT_TRUE(contains(msg, "(this build reads version 2)"));
}

TEST(WireErrors, PlanRejectsForeignKind) {
  Scenario s = toy_scenario();
  ShardReport report = run_static_shard(Executor(s), toy_plan(), 0, 2);
  std::string msg =
      wire_error_of([&] { (void)plan_from_json(report.to_json()); });
  EXPECT_TRUE(contains(msg, "'shard-report'"));
  EXPECT_TRUE(contains(msg, "'injection-plan'"));
}

TEST(WireErrors, PlanRejectsMissingFieldWithContext) {
  std::string json =
      replace_all(toy_plan().to_json(), "\"call\": \"open\", ", "");
  std::string msg = wire_error_of([&] { (void)plan_from_json(json); });
  EXPECT_TRUE(contains(msg, "points["));
  EXPECT_TRUE(contains(msg, "missing key 'call'"));
}

TEST(WireErrors, PlanRejectsUnknownEnumString) {
  std::string json = replace_all(toy_plan().to_json(), "\"kind\": \"file\"",
                                 "\"kind\": \"flurb\"");
  EXPECT_TRUE(contains(wire_error_of([&] { (void)plan_from_json(json); }),
                       "unknown object kind 'flurb'"));
}

TEST(WireErrors, PlanRejectsOutOfOrderIds) {
  std::string json =
      replace_all(toy_plan().to_json(), "{\"id\": 1, ", "{\"id\": 41, ");
  EXPECT_TRUE(contains(wire_error_of([&] { (void)plan_from_json(json); }),
                       "stable id 41 out of order (expected 1)"));
}

TEST(WireErrors, PlanRejectsPointIndexOutOfRange) {
  std::string json = replace_all(toy_plan().to_json(), "\"point\": 0,",
                                 "\"point\": 99,");
  EXPECT_TRUE(contains(wire_error_of([&] { (void)plan_from_json(json); }),
                       "point index 99 out of range"));
}

TEST(WireErrors, PlanRejectsSitePointMismatch) {
  InjectionPlan plan = toy_plan();
  const std::string& tag0 = plan.points[0].site.tag;
  // Repoint every item naming site tag0 at point 1: tag and index now
  // disagree.
  std::string json = replace_all(
      plan.to_json(), "\"point\": 0, \"site\": " + json_quote(tag0),
      "\"point\": 1, \"site\": " + json_quote(tag0));
  EXPECT_TRUE(contains(wire_error_of([&] { (void)plan_from_json(json); }),
                       "does not match point 1's site"));
}

TEST(WireErrors, PlanRejectsUnknownFault) {
  std::string json = replace_all(toy_plan().to_json(),
                                 "\"fault\": \"file-existence\"",
                                 "\"fault\": \"quantum-flip\"");
  std::string msg = wire_error_of([&] { (void)plan_from_json(json); });
  EXPECT_TRUE(contains(msg, "unknown direct fault 'quantum-flip'"));
  // The error names the item that referenced the fault, not just the
  // fault — a plan has hundreds of items.
  EXPECT_TRUE(contains(msg, "items["));
}

TEST(WireErrors, PlanRejectsIntFieldBeyondInt32) {
  // Silent long-long -> int truncation would accept a corrupt file and
  // break the verbatim re-serialization contract.
  std::string json = replace_all(toy_plan().to_json(), "\"line\": 10",
                                 "\"line\": 21474836480000");
  std::string msg = wire_error_of([&] { (void)plan_from_json(json); });
  EXPECT_TRUE(contains(msg, "does not fit a 32-bit int"));
  EXPECT_TRUE(contains(msg, "points[0]"));
}

TEST(WireErrors, PlanRejectsEmptyScenarioName) {
  std::string json = replace_all(toy_plan().to_json(),
                                 "\"scenario\": \"toy\"",
                                 "\"scenario\": \"\"");
  EXPECT_TRUE(contains(wire_error_of([&] { (void)plan_from_json(json); }),
                       "scenario name is empty"));
}

// --- shard_report_from_json error paths -------------------------------------

TEST(WireErrors, ShardReportRejectsForeignKind) {
  std::string msg = wire_error_of(
      [] { (void)shard_report_from_json(toy_plan().to_json()); });
  EXPECT_TRUE(contains(msg, "'injection-plan'"));
  EXPECT_TRUE(contains(msg, "'shard-report'"));
}

TEST(WireErrors, ShardReportRejectsIndexOutOfRange) {
  // A range that starts past its end is no range at all.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  const std::string n = std::to_string(plan.items.size());
  std::string json =
      replace_all(run_static_shard(Executor(s), plan, 2, 3).to_json(),
                  "\"begin\": 2", "\"begin\": " + n + "1");
  EXPECT_TRUE(
      contains(wire_error_of([&] { (void)shard_report_from_json(json); }),
               "range [" + n + "1, " + n + ") stride 3 does not fit"));
}

TEST(WireErrors, ShardReportRejectsForeignItemId) {
  Scenario s = toy_scenario();
  // Shard 0 of 3 owns ids 0, 3, 6, ...; retagging the first completed id
  // as 1 hands it an item of shard 2/3.
  InjectionPlan plan = toy_plan();
  std::string json =
      replace_all(run_static_shard(Executor(s), plan, 0, 3).to_json(),
                  "\"completed_ids\": [0, ", "\"completed_ids\": [1, ");
  EXPECT_TRUE(
      contains(wire_error_of([&] { (void)shard_report_from_json(json); }),
               "work-item id 1 is not owned by this report (ids [0, " +
                   std::to_string(plan.items.size()) + ") stride 3)"));
}

TEST(WireErrors, ShardReportRejectsIdBeyondPlan) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  std::size_t last = plan.items.size() - 1;
  // Anchor on the "outcomes" key that follows so a small column value
  // equal to `last` cannot match.
  std::string json = replace_all(
      run_static_shard(Executor(s), plan, 0, 1).to_json(),
      ", " + std::to_string(last) + "],\n  \"outcomes\"",
      ", " + std::to_string(plan.items.size()) + "],\n  \"outcomes\"");
  EXPECT_TRUE(
      contains(wire_error_of([&] { (void)shard_report_from_json(json); }),
               "out of range"));
}

TEST(WireErrors, ShardReportRejectsDuplicateIds) {
  Scenario s = toy_scenario();
  // Shard 2/2 owns ids 1, 3, 5, ...; its first two completed ids both
  // claiming 1 is a duplicate.
  std::string json =
      replace_all(run_static_shard(Executor(s), toy_plan(), 1, 2).to_json(),
                  "\"completed_ids\": [1, 3", "\"completed_ids\": [1, 1");
  EXPECT_TRUE(
      contains(wire_error_of([&] { (void)shard_report_from_json(json); }),
               "duplicate outcome for work item 1"));
}

TEST(WireErrors, ShardReportRejectsOutOfOrderIds) {
  Scenario s = toy_scenario();
  // Version 2 is canonical: completed_ids must ascend, or the resumed
  // report could not be byte-identical to an uninterrupted run.
  std::string json =
      replace_all(run_static_shard(Executor(s), toy_plan(), 1, 2).to_json(),
                  "\"completed_ids\": [1, 3", "\"completed_ids\": [3, 1");
  EXPECT_TRUE(
      contains(wire_error_of([&] { (void)shard_report_from_json(json); }),
               "completed_ids out of order (1 after 3)"));
}

TEST(WireErrors, ShardReportRejectsCompleteFlagContradictions) {
  Scenario s = toy_scenario();
  std::string json = run_static_shard(Executor(s), toy_plan(), 0, 2).to_json();
  // A full report claiming to be partial...
  EXPECT_TRUE(contains(
      wire_error_of([&] {
        (void)shard_report_from_json(replace_all(
            json, "\"complete\": true", "\"complete\": false"));
      }),
      "'complete' is false but completed_ids covers every id"));
  // ...and a truncated one claiming to be complete. Drop the first id and
  // the first entry of every column.
  ShardReport full = shard_report_from_json(json);
  ShardReport truncated = full;
  truncated.item_ids.erase(truncated.item_ids.begin());
  truncated.outcomes.erase(truncated.outcomes.begin());
  truncated.complete = false;  // to_json writes the stored flag
  std::string lying = replace_all(truncated.to_json(), "\"complete\": false",
                                  "\"complete\": true");
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)shard_report_from_json(lying); }),
      "'complete' is true but completed_ids covers"));
}

TEST(WireErrors, ShardReportRejectsColumnLengthMismatch) {
  Scenario s = toy_scenario();
  std::string json = run_static_shard(Executor(s), toy_plan(), 0, 3).to_json();
  // Empty out the fired column: its length no longer matches the ids.
  std::size_t at = json.find("\"fired\": [");
  ASSERT_NE(at, std::string::npos);
  std::size_t close = json.find(']', at);
  std::string doctored = json.substr(0, at + 10) + json.substr(close);
  std::string msg =
      wire_error_of([&] { (void)shard_report_from_json(doctored); });
  EXPECT_TRUE(contains(msg, "outcomes.fired has 0 entries"));
}

TEST(WireErrors, ShardReportRejectsExploitViolationsDisagreement) {
  // Canonical form: the exploit analysis exists exactly for violated
  // outcomes. The toy scenario has at least one of each, so flipping one
  // side of the pairing must fail.
  Scenario s = toy_scenario();
  std::string json = run_static_shard(Executor(s), toy_plan(), 0, 1).to_json();
  ASSERT_TRUE(contains(json, "null"));  // at least one non-violated outcome
  std::size_t at = json.find("\"exploit\": [");
  ASSERT_NE(at, std::string::npos);
  std::size_t null_at = json.find("null", at);
  ASSERT_NE(null_at, std::string::npos);
  std::string doctored =
      json.substr(0, null_at) +
      "{\"nonroot_feasible\": true, \"actor\": \"x\", \"note\": \"y\"}" +
      json.substr(null_at + 4);
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)shard_report_from_json(doctored); }),
      "exploit present for an outcome with no violations"));
}

// --- merge_shard_reports error paths ----------------------------------------

class WireMergeErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = toy_scenario();
    plan_ = Planner(scenario_).plan();
    Executor ex(scenario_);
    for (std::size_t k = 0; k < 3; ++k)
      shards_.push_back(run_static_shard(ex, plan_, k, 3));
  }

  Scenario scenario_;
  InjectionPlan plan_;
  std::vector<ShardReport> shards_;
};

TEST_F(WireMergeErrors, RejectsEmptyShardList) {
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, {}); }),
      "no shard reports"));
}

TEST_F(WireMergeErrors, RejectsMissingShard) {
  shards_.pop_back();  // shard 3/3 owns id 2 first
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, shards_); }),
      "work item 2 is not covered by any lease"));
}

TEST_F(WireMergeErrors, RejectsImplausibleShardCountWithoutAllocating) {
  // The range is untrusted: a crafted end or stride must fail fast, never
  // size an allocation (a 7e11 count once zero-filled ~87GB here) or walk
  // an id list that long.
  for (auto& s : shards_) s.owned.end = 700000000000ull;
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, shards_); }),
      "700000000000) stride 3 does not fit the plan"));
  shards_.clear();
  SetUp();  // fresh shards
  for (auto& s : shards_) s.owned.stride = 700000000000ull;
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, shards_); }),
      "is not owned by this report"));
}

TEST_F(WireMergeErrors, RejectsDuplicateShard) {
  shards_[2] = shards_[0];
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, shards_); }),
      "work item 0 is leased to both"));
}

TEST_F(WireMergeErrors, RejectsForeignScenario) {
  shards_[1].scenario_name = "other";
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, shards_); }),
      "scenario 'other' does not match the plan's 'toy'"));
}

TEST_F(WireMergeErrors, RejectsForeignPlanSize) {
  shards_[1].plan_items = plan_.items.size() + 5;
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, shards_); }),
      "written against a plan with"));
}

TEST_F(WireMergeErrors, RejectsInconsistentShardCounts) {
  // Shard 2/3 restrided as if cut 4 ways owns 1, 5, 9, ... — not the
  // 1, 4, 7, ... it holds.
  shards_[1].owned.stride = 4;
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, shards_); }),
      "work-item id 4 is not owned by this report"));
}

TEST_F(WireMergeErrors, RejectsPartialShardFile) {
  shards_[1].item_ids.pop_back();
  shards_[1].outcomes.pop_back();
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)merge_shard_reports(plan_, shards_); }),
      "has no outcome"));
}

TEST_F(WireMergeErrors, NamesTheOffendingFileWhenLabelsAreGiven) {
  // The CLI passes shard file paths as labels: a 7-shard failure must
  // name the file to fix, not just "shard 2/3".
  std::vector<std::string> labels = {"a.json", "b.json", "c.json"};
  const std::string n = std::to_string(plan_.items.size());
  shards_[1].scenario_name = "other";
  std::string msg = wire_error_of(
      [&] { (void)merge_shard_reports(plan_, shards_, labels); });
  EXPECT_TRUE(contains(msg, "report [1, " + n + ") stride 3 (b.json)"));

  shards_.clear();
  SetUp();  // fresh shards
  shards_[2] = shards_[0];
  msg = wire_error_of(
      [&] { (void)merge_shard_reports(plan_, shards_, labels); });
  // Both claimants named: the duplicate and the report it collides with.
  EXPECT_TRUE(contains(msg, "report [0, " + n + ") stride 3 (c.json)"));
  EXPECT_TRUE(contains(msg, "(a.json)"));
}

TEST_F(WireMergeErrors, AttributesPartialFileToItsShard) {
  shards_[1].item_ids.pop_back();
  shards_[1].outcomes.pop_back();
  std::string msg = wire_error_of([&] {
    (void)merge_shard_reports(plan_, shards_,
                              {"a.json", "b.json", "c.json"});
  });
  EXPECT_TRUE(contains(msg, "has no outcome"));
  EXPECT_TRUE(contains(msg, "(b.json)"));
  EXPECT_TRUE(contains(msg, "--resume"));
}

// --- checkpointed drains and resume -----------------------------------------

TEST(WireResume, MergeAcceptsAMixOfWireVersionsAndResumedShards) {
  // One shard straight from memory, one through the JSON wire, one
  // preempted + resumed through the wire: the merge must not care.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  Executor ex(s);
  CampaignResult single = ex.execute(plan);

  std::vector<ShardReport> shards;
  shards.push_back(run_static_shard(ex, plan, 0, 3));
  shards.push_back(
      shard_report_from_json(run_static_shard(ex, plan, 1, 3).to_json()));

  ShardDrainHooks hooks;
  hooks.checkpoint_every = 1;
  std::string last_flush;
  hooks.on_checkpoint = [&](const ShardReport& r) {
    EXPECT_FALSE(r.complete);
    last_flush = r.to_json();
  };
  int polls = 0;
  hooks.interrupted = [&] { return ++polls > 2; };  // stop after 2 items
  ShardReport preempted = run_static_shard(ex, plan, 2, 3, {}, hooks);
  EXPECT_FALSE(preempted.complete);
  EXPECT_FALSE(last_flush.empty());

  ShardReport resumed = resume_shard(
      ex, plan, shard_report_from_json(preempted.to_json()));
  EXPECT_TRUE(resumed.complete);
  // Byte-identical to a never-preempted drain of the same shard.
  EXPECT_EQ(resumed.to_json(), run_static_shard(ex, plan, 2, 3).to_json());

  shards.push_back(shard_report_from_json(resumed.to_json()));
  expect_identical(single, merge_shard_reports(plan, shards));
}

TEST(WireResume, ResumeOfACompleteReportDrainsNothing) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  Executor ex(s);
  ShardReport full = run_static_shard(ex, plan, 0, 2);
  ShardReport resumed = resume_shard(ex, plan, full);
  EXPECT_EQ(resumed.to_json(), full.to_json());
}

TEST(WireResume, ResumeRejectsAForeignPartialReport) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  Executor ex(s);
  ShardReport partial = run_static_shard(ex, plan, 0, 2);
  partial.item_ids.resize(1);
  partial.outcomes.resize(1);
  partial.complete = false;

  ShardReport foreign = partial;
  foreign.scenario_name = "other";
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)resume_shard(ex, plan, foreign); }),
      "scenario 'other' does not match"));

  foreign = partial;
  foreign.plan_items = plan.items.size() + 1;
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)resume_shard(ex, plan, foreign); }),
      "written against a plan with"));

  foreign = partial;
  foreign.item_ids[0] = 1;  // shard 2/2 owns id 1, not shard 1/2
  EXPECT_TRUE(contains(
      wire_error_of([&] { (void)resume_shard(ex, plan, foreign); }),
      "work-item id 1 is not owned by this report"));
}

TEST(WireResume, CheckpointedSubsetDrainMatchesPlainDrain) {
  // The executor-level contract: any chunk size, any job count, same
  // prefix bytes; stop() keeps exactly the completed chunks.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  Executor ex(s);
  std::vector<std::size_t> ids = ids_of({0, plan.items.size()});
  auto plain = ex.execute_subset_checkpointed(plan, ids, 0, nullptr, nullptr);
  for (int jobs : {1, 2}) {
    ExecutorOptions opts;
    opts.jobs = jobs;
    for (std::size_t every : {1u, 2u, 5u}) {
      std::size_t checkpoints = 0;
      auto chunked = ex.execute_subset_checkpointed(
          plan, ids, every,
          [&](const std::vector<InjectionOutcome>& prefix) {
            ++checkpoints;
            EXPECT_LT(prefix.size(), ids.size());
            EXPECT_EQ(prefix.size() % every, 0u);
          },
          nullptr, opts);
      ASSERT_EQ(chunked.size(), plain.size()) << every;
      for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(chunked[i].violated, plain[i].violated) << i;
        EXPECT_EQ(chunked[i].exit_code, plain[i].exit_code) << i;
      }
      EXPECT_EQ(checkpoints, (ids.size() - 1) / every);
    }
  }
}

}  // namespace
}  // namespace ep::core
