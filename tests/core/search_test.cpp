// Coverage-guided search tests: the novelty scorer's term arithmetic,
// the determinism contract (same seed + budget => identical generated
// stream and merged report for any job count), the search-state wire
// document, checkpoint/resume equivalence — the property the kill -9
// integration tests lean on — and FEEDBACK's work-items frame.
#include "core/search.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/executor.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

InjectionOutcome outcome_stub(bool fired, bool violated, int exit_code) {
  InjectionOutcome o;
  o.fired = fired;
  o.violated = violated;
  o.exit_code = exit_code;
  return o;
}

TEST(SearchScorer, TermsAddUpLargestFirst) {
  NoveltyScorer scorer;
  // A fresh scorer has seen nothing: class (+8), site (+2), fault (+1),
  // stock hints (+1).
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 0), 12);
  // A mutated param forfeits only the stock-hints point.
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 77), 11);
  // An empty class label mutes the class term entirely.
  EXPECT_EQ(scorer.score("", "toy-read", "d:missing", 0), 4);
}

TEST(SearchScorer, AttemptsAndOutcomesRetireTheirTerms) {
  NoveltyScorer scorer;
  scorer.note_attempt("d:missing");
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 0), 11);

  // A fired + violated outcome retires the class and site terms too.
  scorer.note_outcome("file", "toy-read", "d:missing",
                      outcome_stub(true, true, 1));
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 0), 1);
  // Other classes and sites keep their novelty.
  EXPECT_EQ(scorer.score("dns", "toy-read", "d:missing", 0), 9);
  EXPECT_EQ(scorer.score("file", "toy-arg", "d:missing", 0), 3);
}

TEST(SearchScorer, SilentOutcomesRetireNeitherClassNorSite) {
  NoveltyScorer scorer;
  scorer.note_outcome("file", "toy-read", "d:missing",
                      outcome_stub(false, false, 0));
  EXPECT_EQ(scorer.score("file", "toy-read", "d:missing", 0), 12);
  EXPECT_TRUE(scorer.fired_classes().empty());
}

TEST(SearchScorer, VerdictSignatureNoveltyIsPerShape) {
  NoveltyScorer scorer;
  EXPECT_TRUE(scorer.note_outcome("file", "a", "d:missing",
                                  outcome_stub(true, false, 1)));
  // The same shape again is old news.
  EXPECT_FALSE(scorer.note_outcome("file", "b", "d:missing",
                                   outcome_stub(true, false, 1)));
  // A different exit code is a new shape.
  EXPECT_TRUE(scorer.note_outcome("file", "c", "d:missing",
                                  outcome_stub(true, false, 2)));
}

// --- the source -------------------------------------------------------------

SearchOptions toy_search_options(std::size_t budget, std::size_t batch = 4) {
  SearchOptions o;
  o.seed = 7;
  o.budget = budget;
  o.batch = batch;
  o.classify = [](FaultKind kind, const std::string& name) {
    return std::string(kind == FaultKind::direct ? "d:" : "i:") + name;
  };
  return o;
}

TEST(SearchSource, SpendsExactlyTheBudgetInBatchSizedWaves) {
  Scenario s = toy_scenario();
  InjectionPlan base = Planner(s).plan();
  ASSERT_GT(base.items.size(), 6u);

  SearchWorkSource source(Planner(s).plan(), toy_search_options(6, 4));
  Executor executor(s);
  CampaignResult result = drain_in_process(executor, source);
  EXPECT_FALSE(source.stopped());
  EXPECT_EQ(source.plan().items.size(), 6u);
  EXPECT_EQ(source.waves_generated(), 2u);  // 4 + 2
  EXPECT_EQ(result.injections.size(), 6u);
}

TEST(SearchSource, StopsWhenTheFrontierRunsDry) {
  // Silent outcomes earn no mutation children, so the frontier is only
  // ever the base candidates — a budget far past them must end the wave
  // stream at the frontier, not loop. Driven by hand (no executor): the
  // source's contract is wave generation against absorbed feedback.
  Scenario s = toy_scenario();
  InjectionPlan base = Planner(s).plan();
  const std::size_t n = base.items.size();
  ASSERT_GT(n, 0u);
  SearchWorkSource source(std::move(base), toy_search_options(100000, 4));
  std::size_t total = 0;
  for (;;) {
    auto [begin, end] = source.next_wave();
    if (begin == end) break;
    total += end - begin;
    ShardReport r;
    r.scenario_name = source.plan().scenario_name;
    for (std::size_t id = begin; id < end; ++id) {
      r.item_ids.push_back(id);
      r.outcomes.push_back(outcome_stub(false, false, 0));
    }
    source.absorb(r);
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(source.plan().items.size(), n);
}

TEST(SearchSource, SameSeedIsByteIdenticalAcrossJobCounts) {
  Scenario s = toy_scenario();
  Executor executor(s);

  SearchWorkSource a(Planner(s).plan(), toy_search_options(10));
  CampaignResult ra = drain_in_process(executor, a, {1});

  for (int jobs : {2, 4}) {
    SearchWorkSource b(Planner(s).plan(), toy_search_options(10));
    ExecutorOptions opts;
    opts.jobs = jobs;
    CampaignResult rb = drain_in_process(executor, b, opts);
    EXPECT_EQ(a.plan().to_json(), b.plan().to_json()) << jobs << " jobs";
    expect_identical(ra, rb);
  }
}

TEST(SearchSource, DifferentSeedsDiverge) {
  // The seed feeds parameter mutation, so divergence shows up once the
  // budget reaches past the base frontier into mutation children.
  Scenario s = toy_scenario();
  Executor executor(s);
  const std::size_t n = Planner(s).plan().items.size();
  SearchOptions o1 = toy_search_options(n + 8, 8);
  SearchOptions o2 = toy_search_options(n + 8, 8);
  o2.seed = 8;
  SearchWorkSource a(Planner(s).plan(), o1);
  SearchWorkSource b(Planner(s).plan(), o2);
  drain_in_process(executor, a);
  drain_in_process(executor, b);
  EXPECT_NE(a.plan().to_json(), b.plan().to_json());
}

TEST(SearchSource, SharedScorerMakesALaterSearchSpendElsewhere) {
  // Family semantics: a class fired in the first member is no longer
  // novel in the second, so the second member's stream differs from what
  // it would have generated with a fresh scorer.
  Scenario s = toy_scenario();
  Executor executor(s);

  NoveltyScorer shared;
  SearchWorkSource first(Planner(s).plan(), toy_search_options(8), &shared);
  drain_in_process(executor, first);
  ASSERT_FALSE(shared.fired_classes().empty());

  SearchWorkSource cumulative(Planner(s).plan(), toy_search_options(8),
                              &shared);
  SearchWorkSource fresh(Planner(s).plan(), toy_search_options(8));
  drain_in_process(executor, cumulative);
  drain_in_process(executor, fresh);
  EXPECT_NE(cumulative.plan().to_json(), fresh.plan().to_json());
}

// --- the search-state document ----------------------------------------------

SearchState sample_state(const Scenario& s) {
  Executor executor(s);
  SearchWorkSource source(Planner(s).plan(), toy_search_options(6, 4));
  drain_in_process(executor, source);
  return source.state();
}

TEST(SearchState, JsonRoundTripIsByteIdentical) {
  SearchState st = sample_state(toy_scenario());
  ASSERT_FALSE(st.plan.items.empty());
  ASSERT_FALSE(st.report.item_ids.empty());
  const std::string json = search_state_to_json(st);
  EXPECT_EQ(search_state_to_json(search_state_from_json(json)), json);
}

TEST(SearchState, ParseRecoversEveryField) {
  // The plan and the report are their own wire documents, embedded: a
  // round trip gives back each one's canonical bytes.
  SearchState st = sample_state(toy_scenario());
  SearchState rt = search_state_from_json(search_state_to_json(st));
  EXPECT_EQ(rt.seed, st.seed);
  EXPECT_EQ(rt.budget, st.budget);
  EXPECT_EQ(rt.batch, st.batch);
  EXPECT_EQ(rt.wave_ends, st.wave_ends);
  EXPECT_EQ(rt.plan.to_json(), st.plan.to_json());
  EXPECT_EQ(rt.report.to_json(), st.report.to_json());
  EXPECT_EQ(rt.plan.scenario_name, "toy");
  EXPECT_TRUE(rt.report.complete);
  EXPECT_EQ(rt.report.owned, (IdRange{0, st.plan.items.size()}));
}

TEST(SearchState, RejectsForeignAndMalformedDocuments) {
  SearchState st = sample_state(toy_scenario());
  const std::string good = search_state_to_json(st);

  auto error_of = [](const std::string& text) -> std::string {
    try {
      (void)search_state_from_json(text);
    } catch (const WireError& e) {
      return e.what();
    }
    return "accepted";
  };
  auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string bad = good;
    const auto pos = bad.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos == std::string::npos) return std::string();
    bad.replace(pos, from.size(), to);
    return error_of(bad);
  };
  EXPECT_NE(corrupt("\"kind\": \"search-state\"",
                    "\"kind\": \"campaign-report\""),
            "accepted");
  // One version per kind: a v1 state is refused, naming both versions.
  EXPECT_EQ(corrupt("\"schema_version\": 2,\n  \"kind\": \"search-state\"",
                    "\"schema_version\": 1,\n  \"kind\": \"search-state\""),
            "search state: unsupported schema_version 1 (this build reads "
            "version 2)");
  EXPECT_NE(error_of("not json"), "accepted");
  EXPECT_NE(error_of("{}"), "accepted");
  // The embedded documents go through their own readers: an unknown
  // fault is resolved against the catalog, a site against its point.
  EXPECT_NE(corrupt("\"fault\": \"", "\"fault\": \"no-such-"), "accepted");
  EXPECT_NE(corrupt("\"site\": \"toy-", "\"site\": \"elsewhere-"),
            "accepted");

  // Wave boundaries must be ascending and end at the item count.
  SearchState bad_waves = st;
  ASSERT_FALSE(bad_waves.wave_ends.empty());
  bad_waves.wave_ends.back() += 1;
  EXPECT_THROW(
      search_state_from_json(search_state_to_json(bad_waves)), WireError);

  // The report must own exactly the plan's items.
  SearchState bad_owner = st;
  bad_owner.report.owned.begin = 1;
  bad_owner.report.item_ids.erase(bad_owner.report.item_ids.begin());
  bad_owner.report.outcomes.erase(bad_owner.report.outcomes.begin());
  EXPECT_THROW(
      search_state_from_json(search_state_to_json(bad_owner)), WireError);
}

TEST(SearchState, SeedSpansTheUnsigned64BitRange) {
  // --seed takes any unsigned 64-bit value, so the state must give each
  // one back; a negative seed, one past 2^64 - 1 or a fraction is
  // refused with a diagnostic naming the field.
  SearchState st = sample_state(toy_scenario());
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1} << 63,
                             std::uint64_t{UINT64_MAX}}) {
    st.seed = seed;
    EXPECT_EQ(search_state_from_json(search_state_to_json(st)).seed, seed);
  }
  st.seed = 7;
  const std::string good = search_state_to_json(st);
  for (const std::string bad : {"-1", "18446744073709551616", "1.5"}) {
    std::string text = good;
    const std::string field = "\"seed\": 7,";
    ASSERT_NE(text.find(field), std::string::npos);
    text.replace(text.find(field), field.size(), "\"seed\": " + bad + ",");
    try {
      (void)search_state_from_json(text);
      ADD_FAILURE() << "seed " << bad << " accepted";
    } catch (const WireError& e) {
      EXPECT_TRUE(contains(e.what(), "search state: seed: ")) << e.what();
    }
  }
}

// --- checkpoint / resume ----------------------------------------------------

TEST(SearchResume, ResumedSearchMatchesTheUninterruptedOne) {
  Scenario s = toy_scenario();
  Executor executor(s);

  // The control: one uninterrupted search, checkpointing every barrier.
  std::vector<SearchState> barriers;
  SearchWorkSource control(Planner(s).plan(), toy_search_options(10, 4));
  control.set_checkpoint(
      [&](const SearchState& st) { barriers.push_back(st); });
  CampaignResult full = drain_in_process(executor, control);
  ASSERT_GE(barriers.size(), 2u);

  // Resume from every intermediate barrier: each must re-generate the
  // identical stream and merge to the identical report — this is the
  // property that makes a kill -9 at any barrier recoverable.
  for (const SearchState& st : barriers) {
    SearchWorkSource resumed(Planner(s).plan(), toy_search_options(10, 4));
    resumed.resume(st);
    CampaignResult r = drain_in_process(executor, resumed);
    EXPECT_EQ(resumed.plan().to_json(), control.plan().to_json());
    expect_identical(full, r);
  }
}

TEST(SearchResume, StopAfterCheckpointsAndReportsStopped) {
  // The cap is the source's own: whichever drain runs it stops at the
  // same barrier, with the last wave absorbed and checkpointed.
  Scenario s = toy_scenario();
  Executor executor(s);
  std::vector<SearchState> checkpoints;
  SearchOptions opts = toy_search_options(10, 4);
  opts.stop_after_waves = 1;
  SearchWorkSource source(Planner(s).plan(), opts);
  source.set_checkpoint(
      [&](const SearchState& st) { checkpoints.push_back(st); });
  drain_in_process(executor, source);
  EXPECT_TRUE(source.stopped());
  EXPECT_EQ(source.waves_generated(), 1u);
  ASSERT_EQ(checkpoints.size(), 2u);  // before wave 1, and the clean stop
  EXPECT_EQ(checkpoints.back().report.item_ids.size(), 4u);
  EXPECT_TRUE(checkpoints.back().report.complete);

  // Resumed without the cap, it finishes as the uninterrupted search.
  SearchWorkSource control(Planner(s).plan(), toy_search_options(10, 4));
  SearchWorkSource resumed(Planner(s).plan(), toy_search_options(10, 4));
  resumed.resume(checkpoints.back());
  expect_identical(drain_in_process(executor, control),
                   drain_in_process(executor, resumed));
  EXPECT_FALSE(resumed.stopped());
}

TEST(SearchResume, RejectsACheckpointFromADifferentSearch) {
  Scenario s = toy_scenario();
  SearchState st = sample_state(s);

  {
    SearchOptions other = toy_search_options(6, 4);
    other.seed = 99;
    SearchWorkSource source(Planner(s).plan(), other);
    EXPECT_THROW(source.resume(st), WireError);
  }
  {
    SearchWorkSource source(Planner(s).plan(), toy_search_options(7, 4));
    EXPECT_THROW(source.resume(st), WireError);  // budget mismatch
  }
  {
    SearchState foreign = st;
    foreign.plan.scenario_name = "somebody-else";
    SearchWorkSource source(Planner(s).plan(), toy_search_options(6, 4));
    EXPECT_THROW(source.resume(foreign), WireError);
  }
  {
    // Same scenario name, different world: the points differ.
    SearchState foreign = st;
    foreign.plan.points.front().object = "/elsewhere";
    SearchWorkSource source(Planner(s).plan(), toy_search_options(6, 4));
    EXPECT_THROW(source.resume(foreign), WireError);
  }
}

// --- the FEEDBACK payload: the work-items frame -----------------------------

TEST(SearchFeedback, SpecRoundTripsThroughTheParser) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  ASSERT_GE(plan.items.size(), 3u);
  plan.items[1].param = 771;  // a mutated item must survive the trip

  const std::string frame = work_items_to_binary(plan, 1, 3);
  std::vector<WorkItem> items =
      work_items_from_binary(frame, plan.points.size());
  ASSERT_EQ(items.size(), 2u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const WorkItem& want = plan.items[1 + i];
    EXPECT_EQ(items[i].point_index, want.point_index);
    EXPECT_EQ(items[i].fault.kind, want.fault.kind);
    EXPECT_EQ(items[i].fault.name(), want.fault.name());
    EXPECT_EQ(items[i].param, want.param);
  }
  // The frame is the plan frame's items and params sections, so a plan
  // holding exactly these items decodes to the same items.
  InjectionPlan two = plan;
  two.items = {plan.items[1], plan.items[2]};
  EXPECT_EQ(plan_from_binary(plan_to_binary(two)).to_json(), two.to_json());
}

TEST(SearchFeedback, ParserRejectsMalformedSpecs) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  const std::string good = work_items_to_binary(plan, 0, 2);
  auto error_of = [&](const std::string& frame, std::size_t points) {
    try {
      (void)work_items_from_binary(frame, points);
    } catch (const WireError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(error_of(good, plan.points.size()), "accepted");
  // Every item's point must exist on the receiving side.
  EXPECT_NE(error_of(good, 0).find("out of range (plan has 0 points)"),
            std::string::npos);
  // A plan frame is not a work-items frame, and vice versa.
  EXPECT_NE(error_of(plan_to_binary(plan), plan.points.size())
                .find("kind 'injection-plan' where 'work-items' was expected"),
            std::string::npos);
  EXPECT_THROW(plan_from_binary(good), WireError);
  // Truncated at every byte: a diagnostic, never a partial item list.
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_NE(error_of(good.substr(0, cut), plan.points.size()), "accepted")
        << cut;
}

TEST(SearchFeedback, SpecRejectsRangesOutsideThePlan) {
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan();
  EXPECT_THROW(work_items_to_binary(plan, 0, 0), WireError);
  EXPECT_THROW(
      work_items_to_binary(plan, plan.items.size(), plan.items.size() + 1),
      WireError);
}

}  // namespace
}  // namespace ep::core
