// Absolute report bytes. Every scenario name the CLI resolves (the
// packaged suite, redzone-demo, every generated family member) runs its
// default campaign; the FNV-1a 64 digests of its render_json and its
// render_report (text) must match the pins in
// tests/data/report_digests.txt, and so must the render_comparison of
// each packaged repair pair. The byte-identity tests elsewhere compare
// two topologies of one build, and the pinned figures are headline
// counts; this pins the bytes themselves, so a change that moves any
// verdict, violation, name or field of any report fails here by name. On
// a mismatch the test names every differing key and prints its
// replacement line. The pin file is only edited by hand, after the report
// change has been judged intended.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "core/campaign.hpp"
#include "core/compare.hpp"
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

/// The pins of one kind. A line is `<key> <digest>`; blank lines and `#`
/// comments are skipped. A key `KIND:REST` belongs to KIND and is
/// returned as REST; a key without a colon is a `json` pin.
std::map<std::string, std::string> read_pins(std::string_view kind) {
  const std::string file =
      std::string(EP_SOURCE_DIR) + "/tests/data/report_digests.txt";
  std::ifstream in(file);
  EXPECT_TRUE(in) << "cannot open " << file;
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, digest;
    fields >> key >> digest;
    EXPECT_FALSE(digest.empty()) << "malformed pin line: " << line;
    const std::size_t colon = key.find(':');
    if ((colon == std::string::npos ? std::string_view("json")
                                    : std::string_view(key).substr(0, colon)) !=
        kind)
      continue;
    if (colon != std::string::npos) key.erase(0, colon + 1);
    EXPECT_TRUE(pins.emplace(key, digest).second) << "duplicate pin: " << line;
  }
  return pins;
}

/// Render every key, digest the bytes and hold each digest to its pin of
/// `kind`. Every differing key is named with its replacement line, and a
/// pin no key rendered fails too.
void expect_pinned(std::string_view kind, const std::vector<std::string>& keys,
                   const std::function<std::string(const std::string&)>& render) {
  std::map<std::string, std::string> pins = read_pins(kind);
  const std::string prefix =
      kind == "json" ? std::string() : std::string(kind) + ":";
  std::string replacements;
  std::size_t differing = 0;
  for (const std::string& key : keys) {
    std::string digest = fnv1a64_hex(render(key));
    auto pin = pins.find(key);
    if (pin == pins.end() || pin->second != digest) {
      ++differing;
      replacements += prefix + key + " " + digest + "\n";
    }
    if (pin != pins.end()) pins.erase(pin);
  }
  EXPECT_EQ(differing, 0u)
      << differing << " " << kind << " report(s) differ from their pin; "
      << "replacement lines:\n" << replacements;
  for (const auto& [key, digest] : pins)
    ADD_FAILURE() << "pin for a key that no longer renders: " << prefix << key;
}

CampaignResult default_campaign(const std::string& name) {
  std::optional<Scenario> scenario = apps::resolve_scenario(name);
  if (!scenario) {
    ADD_FAILURE() << name << " no longer resolves";
    return {};
  }
  return Campaign(std::move(*scenario)).execute();
}

TEST(ReportDigests, EveryResolvableScenarioMatchesItsPin) {
  const std::vector<std::string> names = resolvable_names();
  ASSERT_EQ(names.size(), 126u);
  expect_pinned("json", names, [](const std::string& name) {
    return render_json(default_campaign(name));
  });
}

TEST(ReportDigests, EveryResolvableScenarioTextReportMatchesItsPin) {
  const std::vector<std::string> names = resolvable_names();
  ASSERT_EQ(names.size(), 126u);
  expect_pinned("text", names, [](const std::string& name) {
    return render_report(default_campaign(name));
  });
}

TEST(ReportDigests, EveryRepairComparisonMatchesItsPin) {
  // `epa_cli compare BEFORE AFTER`: each packaged scenario against its
  // repaired twin, keyed `BEFORE:AFTER`.
  const std::vector<std::string> pairs = {
      "turnin:turnin-hardened", "logind:logind-hardened", "vault:vault-fixed"};
  expect_pinned("compare", pairs, [](const std::string& pair) {
    const std::size_t colon = pair.find(':');
    return render_comparison(compare(default_campaign(pair.substr(0, colon)),
                                     default_campaign(pair.substr(colon + 1))));
  });
}

}  // namespace
}  // namespace ep::core
