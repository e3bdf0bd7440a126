// Ablation — do the *semantic* fault patterns matter? (Section 3.1: "by
// an examination of rare cases and by concentrating instead on fault
// patterns already observed, we reduce the testing space considerably".)
//
// Re-runs every indirect injection of a campaign with the catalog's
// pattern replaced by a random string (five seeds deep per site, so the
// random side gets 5x the catalog's budget), and compares what each side
// *discovers*: the distinct flaws, counted as (site, policy) pairs.
//
// Raw per-run yield would mislead here — any long random string re-finds
// the same unchecked-buffer overflow over and over. The question the
// catalog answers is coverage of failure modes: "../" names, untrusted
// path entries, victim-pointing absolute paths are patterns a random
// string essentially never hits.
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "apps/mailer.hpp"
#include "apps/registry_modules.hpp"
#include "apps/turnin.hpp"
#include "core/injector.hpp"
#include "core/report.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace ep;

class RandomPayloadInjector : public os::Interposer {
 public:
  RandomPayloadInjector(os::Site site, Rng& rng)
      : site_(std::move(site)), rng_(rng) {}
  void after(os::Kernel&, os::SyscallCtx& ctx, Err) override {
    if (fired_ || !(ctx.site == site_)) return;
    if (!ctx.has_input || ctx.input == nullptr) return;
    std::size_t len = rng_.between(1, 6000);
    *ctx.input = rng_.chance(0.5) ? rng_.printable(len) : rng_.bytes(len);
    fired_ = true;
  }

 private:
  os::Site site_;
  Rng& rng_;
  bool fired_ = false;
};

using FlawSet = std::set<std::string>;  // "site|policy"

struct Discovery {
  FlawSet catalog;
  FlawSet random;
  int catalog_runs = 0;
  int random_runs = 0;
};

Discovery measure(const core::Scenario& scenario, int random_rounds) {
  Discovery d;
  core::Campaign campaign(scenario);
  auto r = campaign.execute();
  std::vector<os::Site> indirect_sites;
  for (std::size_t id = 0; id < r.injections.size(); ++id) {
    if (r.fault_of(id).kind != core::FaultKind::indirect) continue;
    ++d.catalog_runs;
    const os::Site& site = r.point_of(id).site;
    indirect_sites.push_back(site);
    for (const auto& v : r.injections[id].violations)
      d.catalog.insert(site.tag + "|" + std::string(to_string(v.policy)));
  }
  Rng rng(99);
  for (int round = 0; round < random_rounds; ++round) {
    for (const auto& site : indirect_sites) {
      auto world = scenario.build();
      auto inj = std::make_shared<RandomPayloadInjector>(site, rng);
      auto oracle = std::make_shared<core::SecurityOracle>(scenario.policy);
      world->kernel.add_interposer(inj);
      world->kernel.add_interposer(oracle);
      (void)scenario.run(*world);
      ++d.random_runs;
      for (const auto& v : oracle->violations())
        d.random.insert(site.tag + "|" + std::string(to_string(v.policy)));
    }
  }
  return d;
}

std::string show(const FlawSet& flaws) {
  if (flaws.empty()) return "-";
  std::vector<std::string> v(flaws.begin(), flaws.end());
  return ep::join(v, ", ");
}

}  // namespace

int main() {
  std::printf("=== Ablation: semantic fault patterns vs random payloads "
              "===\n\n");

  struct Case {
    const char* name;
    core::Scenario scenario;
  };
  std::vector<Case> cases;
  cases.push_back({"turnin", apps::turnin_scenario()});
  cases.push_back({"mailer", apps::mailer_scenario()});
  cases.push_back({"nt-helpviewer", apps::nt_module_scenario("helpviewer")});

  TextTable t({"target", "budget (catalog vs random)",
               "distinct flaws: catalog", "distinct flaws: random",
               "found only by catalog"});
  int catalog_only_total = 0;
  int random_only_total = 0;
  for (auto& c : cases) {
    Discovery d = measure(c.scenario, /*random_rounds=*/5);
    FlawSet catalog_only;
    for (const auto& f : d.catalog)
      if (!d.random.count(f)) catalog_only.insert(f);
    for (const auto& f : d.random)
      if (!d.catalog.count(f)) ++random_only_total;
    catalog_only_total += static_cast<int>(catalog_only.size());
    t.add_row({c.name,
               std::to_string(d.catalog_runs) + " vs " +
                   std::to_string(d.random_runs) + " runs",
               std::to_string(d.catalog.size()) + "  (" + show(d.catalog) +
                   ")",
               std::to_string(d.random.size()) + "  (" + show(d.random) +
                   ")",
               show(catalog_only)});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf(
      "random payloads re-find length overflows (any long string smashes\n"
      "an unchecked buffer) but, even on 5x the budget, miss the\n"
      "structured patterns: \"../\" traversal, untrusted $PATH entries,\n"
      "victim-pointing absolute paths.\n\n");
  bool holds = catalog_only_total > 0 && random_only_total == 0;
  std::printf("reproduction: catalog discovers flaw classes randomness "
              "misses (and nothing vice versa) -> %s\n",
              holds ? "HOLDS" : "FAILS");
  return holds ? 0 : 1;
}
