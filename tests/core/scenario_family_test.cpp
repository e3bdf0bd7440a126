// Scenario families (core/scenario_family.hpp): grid expansion order,
// stable member naming, malformed-family rejection, and the packaged
// families' contract — 3 families, 100+ members, every one resolvable
// by name and compilable against the standard environment.
#include "core/scenario_family.hpp"

#include <gtest/gtest.h>

#include <set>

#include "apps/families.hpp"
#include "apps/redzone_demo.hpp"
#include "apps/scenarios.hpp"
#include "core/planner.hpp"
#include "core/wire.hpp"

namespace ep::core {
namespace {

ScenarioFamily toy_family() {
  ScenarioFamily f;
  f.name = "toy";
  f.description = "two axes";
  f.axes = {{"size", {"s", "l"}}, {"mode", {"a", "b", "c"}}};
  f.materialize = [](const FamilyPoint& p) {
    ScenarioSpec spec;
    spec.description = p.at("size") + "/" + p.at("mode");
    spec.run.push_back({"/bin/x", {"x"}, 0, 0, {}, "/"});
    return spec;
  };
  return f;
}

TEST(ScenarioFamilyTest, SizeIsTheAxisProduct) {
  EXPECT_EQ(family_size(toy_family()), 6u);
  ScenarioFamily empty = toy_family();
  empty.axes[1].values.clear();
  EXPECT_EQ(family_size(empty), 0u);
}

TEST(ScenarioFamilyTest, GridIsOdometerOrdered) {
  auto grid = family_grid(toy_family());
  ASSERT_EQ(grid.size(), 6u);
  // Last axis varies fastest.
  EXPECT_EQ(grid[0].at("size"), "s");
  EXPECT_EQ(grid[0].at("mode"), "a");
  EXPECT_EQ(grid[1].at("mode"), "b");
  EXPECT_EQ(grid[2].at("mode"), "c");
  EXPECT_EQ(grid[3].at("size"), "l");
  EXPECT_EQ(grid[3].at("mode"), "a");
}

TEST(ScenarioFamilyTest, MemberNamesAreStableAndStamped) {
  ScenarioFamily f = toy_family();
  auto specs = expand_family(f);
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "toy-s-a");
  EXPECT_EQ(specs[5].name, "toy-l-c");
  // The materialized description proves the right point reached the
  // template.
  EXPECT_EQ(specs[5].description, "l/c");
}

TEST(ScenarioFamilyTest, RejectsDuplicateAxisNames) {
  ScenarioFamily f = toy_family();
  f.axes.push_back({"size", {"x"}});
  EXPECT_THROW((void)family_grid(f), WireError);
}

TEST(ScenarioFamilyTest, RejectsEmptyAxisName) {
  ScenarioFamily f = toy_family();
  f.axes.push_back({"", {"x"}});
  EXPECT_THROW((void)family_grid(f), WireError);
}

TEST(ScenarioFamilyTest, RejectsNameUnsafeAxisValues) {
  ScenarioFamily f = toy_family();
  f.axes[0].values = {"UPPER"};
  EXPECT_THROW((void)family_grid(f), WireError);
  f.axes[0].values = {"has space"};
  EXPECT_THROW((void)family_grid(f), WireError);
  f.axes[0].values = {""};
  EXPECT_THROW((void)family_grid(f), WireError);
}

// ---- the packaged families -----------------------------------------------

TEST(ScenarioFamilyTest, PackagedFamiliesExpandToAtLeastOneHundred) {
  std::size_t total = 0;
  std::set<std::string> names;
  for (const auto& f : apps::scenario_families()) {
    std::size_t n = family_size(f);
    EXPECT_GE(n, 16u) << f.name;
    total += n;
    for (const auto& spec : expand_family(f)) {
      EXPECT_TRUE(names.insert(spec.name).second)
          << "duplicate generated name " << spec.name;
      EXPECT_EQ(spec.name.rfind(f.name + "-", 0), 0u) << spec.name;
    }
  }
  EXPECT_GE(apps::scenario_families().size(), 3u);
  EXPECT_GE(total, 100u);
  EXPECT_EQ(names.size(), total);
}

/// The plan bytes a scenario produces: resolving a name must yield the
/// same world, catalog and hints as the listing it came from, and the
/// serialized plan covers all three.
std::string plan_bytes(const Scenario& scenario) {
  return Planner(scenario).plan().to_json();
}

TEST(ScenarioFamilyTest, EveryGeneratedNameResolvesAndCompiles) {
  for (const auto& f : apps::scenario_families()) {
    for (const auto& scenario : apps::family_scenarios(f)) {
      EXPECT_TRUE(scenario.snapshot_safe) << scenario.name;
      auto by_name = apps::resolve_scenario(scenario.name);
      ASSERT_TRUE(by_name.has_value()) << scenario.name;
      EXPECT_EQ(by_name->name, scenario.name);
      EXPECT_EQ(plan_bytes(*by_name), plan_bytes(scenario)) << scenario.name;
    }
  }
  // The packaged suite and the unlisted demo resolve through the same
  // spec path; their plans must match the listed scenarios' too.
  std::vector<Scenario> packaged = apps::all_scenarios();
  packaged.push_back(apps::redzone_demo_scenario());
  for (const auto& scenario : packaged) {
    auto by_name = apps::resolve_scenario(scenario.name);
    ASSERT_TRUE(by_name.has_value()) << scenario.name;
    EXPECT_EQ(plan_bytes(*by_name), plan_bytes(scenario)) << scenario.name;
  }
}

TEST(ScenarioFamilyTest, GeneratedNamesDoNotShadowPackagedOnes) {
  std::set<std::string> packaged;
  for (const auto& s : apps::all_scenarios()) packaged.insert(s.name);
  packaged.insert("redzone-demo");
  for (const auto& f : apps::scenario_families())
    for (const auto& spec : expand_family(f))
      EXPECT_EQ(packaged.count(spec.name), 0u) << spec.name;
}

TEST(ScenarioFamilyTest, UnknownGeneratedNameResolvesToNothing) {
  EXPECT_FALSE(apps::resolve_scenario("fam-spool-d9-nope").has_value());
  EXPECT_FALSE(apps::resolve_spec("fam-spool-d9-nope").has_value());
}

}  // namespace
}  // namespace ep::core
