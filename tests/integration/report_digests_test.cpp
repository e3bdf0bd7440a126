// Absolute report bytes. Every scenario name the CLI resolves (the
// packaged suite, redzone-demo, every generated family member) runs its
// default campaign; the FNV-1a 64 digest of its render_json must match
// the pin in tests/data/report_digests.txt. The byte-identity tests
// elsewhere compare two topologies of one build, and the pinned figures
// are headline counts; this pins the bytes themselves, so a change that
// moves any verdict, violation or field of any report fails here by
// name. On a mismatch the test names every differing scenario and
// prints its replacement line. The pin file is only edited by hand,
// after the report change has been judged intended.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/scenario_family.hpp"

namespace ep::core {
namespace {

std::string fnv1a64_hex(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Every name resolve_scenario() answers: the packaged suite,
/// redzone-demo, then each family's members in grid order.
std::vector<std::string> resolvable_names() {
  std::vector<std::string> out;
  for (const Scenario& s : apps::all_scenarios()) out.push_back(s.name);
  out.push_back("redzone-demo");
  for (const ScenarioFamily& f : apps::scenario_families())
    for (const FamilyPoint& point : family_grid(f))
      out.push_back(family_member_name(f, point));
  return out;
}

/// `<name> <digest>` per line; blank lines and `#` comments skipped.
std::map<std::string, std::string> read_pins(const std::string& file) {
  std::ifstream in(file);
  EXPECT_TRUE(in) << "cannot open " << file;
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    fields >> name >> digest;
    EXPECT_FALSE(digest.empty()) << "malformed pin line: " << line;
    EXPECT_TRUE(pins.emplace(name, digest).second) << "duplicate pin: " << name;
  }
  return pins;
}

TEST(ReportDigests, EveryResolvableScenarioMatchesItsPin) {
  const std::vector<std::string> names = resolvable_names();
  ASSERT_EQ(names.size(), 126u);
  std::map<std::string, std::string> pins =
      read_pins(std::string(EP_SOURCE_DIR) + "/tests/data/report_digests.txt");

  std::string replacements;
  std::size_t differing = 0;
  for (const std::string& name : names) {
    std::optional<Scenario> scenario = apps::resolve_scenario(name);
    ASSERT_TRUE(scenario) << name << " no longer resolves";
    std::string digest =
        fnv1a64_hex(render_json(Campaign(std::move(*scenario)).execute()));
    auto pin = pins.find(name);
    if (pin == pins.end() || pin->second != digest) {
      ++differing;
      replacements += name + " " + digest + "\n";
    }
    if (pin != pins.end()) pins.erase(pin);
  }
  EXPECT_EQ(differing, 0u)
      << differing << " scenario report(s) differ from their pin; "
      << "replacement lines:\n" << replacements;
  for (const auto& [name, digest] : pins)
    ADD_FAILURE() << "pin for a name that no longer resolves: " << name;
}

}  // namespace
}  // namespace ep::core
