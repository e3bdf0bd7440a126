#include "core/compare.hpp"

#include <map>

#include "util/strings.hpp"

namespace ep::core {

int Comparison::improved_count() const {
  int n = 0;
  for (const auto& d : deltas) n += d.improved() ? 1 : 0;
  return n;
}

int Comparison::regressed_count() const {
  int n = 0;
  for (const auto& d : deltas) n += d.regressed() ? 1 : 0;
  return n;
}

int Comparison::still_open_count() const {
  int n = 0;
  for (const auto& d : deltas) n += d.still_open() ? 1 : 0;
  return n;
}

Comparison compare(const CampaignResult& before, const CampaignResult& after) {
  Comparison c;
  c.before = before.adequacy();
  c.after = after.adequacy();

  // Each outcome keyed "site|fault" by its plan item; the last outcome of
  // a key wins.
  auto by_key = [](const CampaignResult& r) {
    std::map<std::string, std::size_t> ids;
    for (std::size_t id = 0; id < r.injections.size(); ++id)
      ids[r.point_of(id).site.tag + "|" + r.fault_of(id).name()] = id;
    return ids;
  };
  const std::map<std::string, std::size_t> b = by_key(before);
  const std::map<std::string, std::size_t> a = by_key(after);

  for (const auto& [k, bi] : b) {
    auto it = a.find(k);
    if (it == a.end()) {
      c.only_before.push_back(k);
      continue;
    }
    OutcomeDelta d;
    d.site_tag = before.point_of(bi).site.tag;
    d.fault_name = before.fault_of(bi).name();
    d.before_violated = before.injections[bi].violated;
    d.after_violated = after.injections[it->second].violated;
    c.deltas.push_back(std::move(d));
  }
  for (const auto& [k, ai] : a)
    if (!b.count(k)) c.only_after.push_back(k);
  return c;
}

std::string render_comparison(const Comparison& c) {
  std::string out = "=== Campaign comparison (before -> after) ===\n";
  out += "  adequacy: IC " + ep::percent(c.before.interaction_coverage, 1.0) +
         " -> " + ep::percent(c.after.interaction_coverage, 1.0) + ", FC " +
         ep::percent(c.before.fault_coverage, 1.0) + " -> " +
         ep::percent(c.after.fault_coverage, 1.0) + "\n";
  out += "  region:   " + std::string(to_string(classify(c.before))) +
         " -> " + std::string(to_string(classify(c.after))) + "\n";
  out += "  repaired: " + std::to_string(c.improved_count()) +
         ", regressed: " + std::to_string(c.regressed_count()) +
         ", still open: " + std::to_string(c.still_open_count()) + "\n";
  for (const auto& d : c.deltas) {
    if (d.improved())
      out += "    + repaired   " + d.site_tag + " / " + d.fault_name + "\n";
    else if (d.regressed())
      out += "    ! REGRESSED  " + d.site_tag + " / " + d.fault_name + "\n";
    else if (d.still_open())
      out += "    - still open " + d.site_tag + " / " + d.fault_name + "\n";
  }
  for (const auto& k : c.only_before)
    out += "    ? vanished after repair: " + k + "\n";
  for (const auto& k : c.only_after)
    out += "    ? new interaction after repair: " + k + "\n";
  out += c.safe() ? "  verdict: repair is safe (no regressions)\n"
                  : "  verdict: REPAIR REGRESSED\n";
  return out;
}

}  // namespace ep::core
