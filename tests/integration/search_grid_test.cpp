// The coverage-guided search over real scenarios, driven the way
// `epa_cli search` drives it (classes from vulndb::coverage_class, one
// shared scorer across a family, the CLI's budget split), held to exact
// figures:
//   * adequacy — at a quarter of fam-relay's exhaustive item count the
//     search re-fires every EAI class the exhaustive drain fires;
//   * resume — on runs whose waves reach param-mutation children, a
//     search resumed from any wave barrier's serialized checkpoint
//     reproduces the uninterrupted plan and report byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/campaign_fixtures.hpp"
#include "core/report.hpp"
#include "core/search.hpp"
#include "vulndb/coverage.hpp"

namespace ep::core {
namespace {

SearchOptions cli_search_options(std::uint64_t seed, std::size_t budget,
                                 std::size_t batch) {
  SearchOptions o;
  o.seed = seed;
  o.budget = budget;
  o.batch = batch;
  o.classify = [](FaultKind kind, const std::string& name) {
    return vulndb::coverage_class(kind, name);
  };
  return o;
}

TEST(SearchAdequacy, FamRelayAtAQuarterBudgetRefiresEveryExhaustiveClass) {
  const ScenarioFamily* relay = apps::find_family("fam-relay");
  ASSERT_NE(relay, nullptr);
  const std::vector<Scenario> members = apps::family_scenarios(*relay);
  ASSERT_EQ(members.size(), 36u);

  std::size_t exhaustive_items = 0;
  std::vector<CampaignResult> exhaustive;
  for (const Scenario& m : members) {
    InjectionPlan plan = Planner(m).plan();
    exhaustive_items += plan.items.size();
    exhaustive.push_back(Executor(m).execute(plan));
  }
  EXPECT_EQ(exhaustive_items, 600u);
  const vulndb::VulnCoverage want = vulndb::vulnerability_coverage(exhaustive);
  EXPECT_EQ(want.fired.size(), 6u);

  // `search --family fam-relay --budget 150 --batch 16`: budget / members
  // per member, the remainder to member 0, one scorer for the family.
  constexpr std::size_t kBudget = 150;
  for (std::uint64_t seed : {3u, 7u, 11u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    NoveltyScorer scorer;
    std::size_t spent = 0;
    std::vector<CampaignResult> searched;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::size_t budget = kBudget / members.size() +
                                 (i == 0 ? kBudget % members.size() : 0);
      SearchWorkSource source(Planner(members[i]).plan(),
                              cli_search_options(seed, budget, 16), &scorer);
      searched.push_back(drain_in_process(Executor(members[i]), source));
      spent += source.plan().items.size();
    }
    EXPECT_EQ(spent, kBudget);
    const vulndb::VulnCoverage got = vulndb::vulnerability_coverage(searched);
    for (const std::string& c : want.fired)
      EXPECT_TRUE(std::count(got.fired.begin(), got.fired.end(), c))
          << "lost " << c;
  }
}

TEST(SearchResume, EveryBarrierOfAMutatingSearchResumesByteIdentically) {
  struct Run {
    const char* scenario;
    std::size_t budget;
    std::uint64_t seed;
    std::size_t batch;
    std::size_t mutated;  // items with a nonzero param
    std::size_t waves;
  };
  const Run runs[] = {{"lpr", 10, 7, 2, 2, 5},
                      {"lpr", 12, 2, 5, 3, 3},
                      {"turnin", 30, 3, 4, 3, 8}};
  for (const Run& run : runs) {
    SCOPED_TRACE(std::string(run.scenario) + " budget " +
                 std::to_string(run.budget) + " seed " +
                 std::to_string(run.seed) + " batch " +
                 std::to_string(run.batch));
    const Scenario s = *apps::resolve_scenario(run.scenario);
    const Executor executor(s);
    const SearchOptions opts =
        cli_search_options(run.seed, run.budget, run.batch);

    std::vector<std::string> barriers;
    SearchWorkSource control(Planner(s).plan(), opts);
    control.set_checkpoint([&](const SearchState& st) {
      barriers.push_back(search_state_to_json(st));
    });
    const CampaignResult full = drain_in_process(executor, control);
    const std::string plan_json = control.plan().to_json();
    const std::string report = render_json(full);

    std::size_t mutated = 0;
    for (const WorkItem& item : control.plan().items)
      mutated += item.param != 0 ? 1 : 0;
    EXPECT_EQ(mutated, run.mutated);
    EXPECT_EQ(control.waves_generated(), run.waves);
    // One checkpoint before each wave and one after the last: the first
    // holds no outcomes, the last the complete search.
    ASSERT_EQ(barriers.size(), run.waves + 1);

    for (std::size_t b = 0; b < barriers.size(); ++b) {
      SCOPED_TRACE("barrier " + std::to_string(b));
      SearchWorkSource resumed(Planner(s).plan(), opts);
      resumed.resume(search_state_from_json(barriers[b]));
      const CampaignResult r = drain_in_process(executor, resumed);
      EXPECT_EQ(resumed.plan().to_json(), plan_json);
      EXPECT_EQ(render_json(r), report);
      EXPECT_EQ(render_report(r), render_report(full));
    }
  }
}

}  // namespace
}  // namespace ep::core
