#include "core/search.hpp"

#include <algorithm>
#include <utility>

#include "core/wire_internal.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ep::core {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw WireError("search state: " + msg);
}

/// The plan's document without its items: the scenario, points, benign
/// violations and perturbed sites a checkpoint shares with the base plan
/// of the search that resumes it.
std::string plan_frame(InjectionPlan plan) {
  plan.items.clear();
  return plan.to_json();
}

/// The verdict signature: what shape did this run end in? Two items with
/// the same signature taught the search the same lesson, so only the
/// first earns mutation children.
std::string verdict_sig(const std::string& fault_key,
                        const InjectionOutcome& o) {
  return fault_key + "|" + (o.fired ? "f" : "-") + (o.violated ? "v" : "-") +
         (o.crashed ? "c" : "-") + "|" + std::to_string(o.exit_code);
}

/// Mutation params must survive a JSON round trip (plans serialize them
/// through as_int), so they live in [1, 2^63).
std::uint64_t mutation_param(Rng& prng) {
  return prng.next_u64() % 0x7fffffffffffffffULL + 1;
}

}  // namespace

int NoveltyScorer::score(const std::string& class_label,
                         const std::string& site_tag,
                         const std::string& fault_key,
                         std::uint64_t param) const {
  int s = 0;
  if (!class_label.empty() && fired_classes_.count(class_label) == 0) s += 8;
  if (violated_sites_.count(site_tag) == 0) s += 2;
  if (attempted_faults_.count(fault_key) == 0) s += 1;
  if (param == 0) s += 1;
  return s;
}

void NoveltyScorer::note_attempt(const std::string& fault_key) {
  attempted_faults_.insert(fault_key);
}

bool NoveltyScorer::note_outcome(const std::string& class_label,
                                 const std::string& site_tag,
                                 const std::string& fault_key,
                                 const InjectionOutcome& outcome) {
  if (outcome.violated) {
    if (!class_label.empty()) fired_classes_.insert(class_label);
    violated_sites_.insert(site_tag);
  }
  return verdict_sigs_.insert(verdict_sig(fault_key, outcome)).second;
}

SearchWorkSource::SearchWorkSource(InjectionPlan base, SearchOptions opts,
                                   NoveltyScorer* shared_scorer)
    : plan_(std::move(base)),
      opts_(std::move(opts)),
      scorer_(shared_scorer ? shared_scorer : &own_scorer_) {
  // The exhaustive plan's items are the initial frontier, in plan order
  // (trace-order points, catalog-order faults) — the same order the
  // exhaustive sweep would drain, so seq ties break identically across
  // builds. The plan itself restarts empty: items are now *generated*.
  frontier_.reserve(plan_.items.size());
  for (const WorkItem& w : plan_.items) {
    Candidate c;
    c.item = w;
    c.item.param = 0;
    c.seq = next_seq_++;
    frontier_.push_back(std::move(c));
  }
  plan_.items.clear();
}

std::string SearchWorkSource::fault_key(const WorkItem& item) const {
  return (item.fault.kind == FaultKind::indirect ? "i:" : "d:") +
         item.fault.name();
}

std::string SearchWorkSource::class_of(const WorkItem& item) const {
  return opts_.classify ? opts_.classify(item.fault.kind, item.fault.name())
                        : std::string();
}

void SearchWorkSource::absorb(const ShardReport& report) {
  // Buffer only: reports land in lease-completion order, which varies by
  // scheduling. The barrier (process_feedback) replays them in stable-id
  // order so the scorer — and therefore the next wave — is order-free.
  for (std::size_t i = 0; i < report.item_ids.size(); ++i)
    pending_[report.item_ids[i]] = report.outcomes[i];
}

void SearchWorkSource::process_feedback() {
  for (auto& [id, outcome] : pending_) {
    const WorkItem& w = plan_.items[id];
    const std::string& site = plan_.points[w.point_index].site.tag;
    std::string fk = fault_key(w);
    bool novel_verdict = scorer_->note_outcome(class_of(w), site, fk, outcome);
    // Mutation rule: an outcome that violated — or fired into a verdict
    // shape never seen before — earns parameter-mutation children; a
    // fault that did not even fire has nothing to vary.
    if (outcome.violated || (outcome.fired && novel_verdict)) {
      Rng prng(opts_.seed ^
               (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id) + 1)));
      for (int k = 0; k < 2; ++k) {
        Candidate c;
        c.item = w;
        c.item.param = mutation_param(prng);
        c.seq = next_seq_++;
        frontier_.push_back(std::move(c));
      }
    }
    outcomes_[id] = std::move(outcome);
  }
  pending_.clear();
}

std::pair<std::size_t, std::size_t> SearchWorkSource::generate_wave() {
  const std::size_t begin = plan_.items.size();
  if (begin >= opts_.budget) return {begin, begin};
  const std::size_t room = std::min(opts_.batch, opts_.budget - begin);
  // Within-wave diversity: a tentative scorer copy treats each pick as
  // if it already paid off, so the wave spreads across classes and sites
  // instead of spending the whole batch on one novel class.
  NoveltyScorer tent = *scorer_;
  for (std::size_t picked = 0; picked < room; ++picked) {
    int best_score = -1;
    std::size_t best = 0;
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      const Candidate& c = frontier_[i];
      if (c.queued) continue;
      int s = tent.score(class_of(c.item),
                         plan_.points[c.item.point_index].site.tag,
                         fault_key(c.item), c.item.param);
      // Strict >: the frontier is in seq order, so the first maximum is
      // the lowest-seq one — the deterministic tiebreak.
      if (s > best_score) {
        best_score = s;
        best = i;
      }
    }
    if (best_score < 0) break;  // frontier exhausted
    Candidate& c = frontier_[best];
    c.queued = true;
    std::string cls = class_of(c.item);
    if (!cls.empty()) tent.fired_classes_.insert(cls);
    tent.violated_sites_.insert(plan_.points[c.item.point_index].site.tag);
    tent.attempted_faults_.insert(fault_key(c.item));
    scorer_->note_attempt(fault_key(c.item));
    plan_.items.push_back(c.item);
  }
  if (plan_.items.size() > begin) wave_ends_.push_back(plan_.items.size());
  return {begin, plan_.items.size()};
}

std::pair<std::size_t, std::size_t> SearchWorkSource::next_wave() {
  process_feedback();
  if (checkpoint_) checkpoint_(state());
  if (opts_.stop_after_waves != 0 &&
      wave_ends_.size() >= opts_.stop_after_waves) {
    // Stop *between* barriers, state flushed — the deterministic
    // preemption hook (--stop-after). Nothing drained is lost.
    stopped_ = true;
    return {plan_.items.size(), plan_.items.size()};
  }
  return generate_wave();
}

std::vector<ShardReport> SearchWorkSource::take_replayed_reports() {
  return std::exchange(replayed_, {});
}

SearchState SearchWorkSource::state() const {
  SearchState st;
  st.seed = opts_.seed;
  st.budget = opts_.budget;
  st.batch = opts_.batch;
  st.wave_ends = wave_ends_;
  st.plan = plan_;
  ShardReport& r = st.report;
  r.scenario_name = plan_.scenario_name;
  r.plan_items = plan_.items.size();
  r.owned = {0, plan_.items.size()};
  for (const auto& [id, outcome] : outcomes_) {
    r.item_ids.push_back(id);
    r.outcomes.push_back(outcome);
  }
  r.complete = r.item_ids.size() == r.plan_items;
  return st;
}

void SearchWorkSource::resume(const SearchState& state) {
  if (!plan_.items.empty())
    fail("resume() must run before any wave is generated");
  const InjectionPlan& recorded_plan = state.plan;
  if (recorded_plan.scenario_name != plan_.scenario_name)
    fail("scenario '" + recorded_plan.scenario_name +
         "' does not match this search's scenario '" + plan_.scenario_name +
         "'");
  if (state.seed != opts_.seed || state.budget != opts_.budget ||
      state.batch != opts_.batch)
    fail("seed/budget/batch (" + std::to_string(state.seed) + "/" +
         std::to_string(state.budget) + "/" + std::to_string(state.batch) +
         ") do not match this search's (" + std::to_string(opts_.seed) + "/" +
         std::to_string(opts_.budget) + "/" + std::to_string(opts_.batch) +
         ")");
  if (plan_frame(recorded_plan) != plan_frame(plan_))
    fail("the recorded plan's interaction points do not match this "
         "search's — state from a different build?");

  std::map<std::size_t, const InjectionOutcome*> recorded;
  for (std::size_t i = 0; i < state.report.item_ids.size(); ++i)
    recorded[state.report.item_ids[i]] = &state.report.outcomes[i];

  std::size_t prev_end = 0;
  for (std::size_t wave_end : state.wave_ends) {
    // Replay only fully-completed waves: a wave any of whose outcomes
    // are missing (a checkpoint raced its own write, or hand-edited
    // state) is simply re-drained live, along with everything after it.
    bool covered = wave_end <= recorded_plan.items.size();
    for (std::size_t id = prev_end; covered && id < wave_end; ++id)
      covered = recorded.count(id) != 0;
    if (!covered) break;

    // Re-generate the wave through the ordinary generator (feeding the
    // recorded outcomes back through the scorer), then hold the result
    // to what the checkpoint recorded — a state file from a different
    // seed, build, or scenario diverges here instead of corrupting the
    // merge downstream.
    process_feedback();
    auto [b, e] = generate_wave();
    if (b != prev_end || e != wave_end)
      fail("recorded wave [" + std::to_string(prev_end) + ", " +
           std::to_string(wave_end) + ") regenerated as [" +
           std::to_string(b) + ", " + std::to_string(e) +
           ") — state from a different search?");
    for (std::size_t id = b; id < e; ++id) {
      const WorkItem& w = plan_.items[id];
      const WorkItem& it = recorded_plan.items[id];
      if (it.point_index != w.point_index || it.fault.kind != w.fault.kind ||
          it.fault.name() != w.fault.name() || it.param != w.param)
        fail("items[" + std::to_string(id) +
             "] does not match the regenerated item — state from a "
             "different search?");
    }

    ShardReport r;
    r.scenario_name = plan_.scenario_name;
    r.plan_items = plan_.items.size();
    r.owned = {b, e};
    for (std::size_t id = b; id < e; ++id) {
      r.item_ids.push_back(id);
      r.outcomes.push_back(*recorded.at(id));
    }
    r.complete = true;
    absorb(r);
    replayed_.push_back(std::move(r));
    prev_end = wave_end;
  }
}

std::string search_state_to_json(const SearchState& state) {
  // The embedded documents keep their own canonical bytes, one level
  // deeper: a JSON string holds no raw newline, so each one is structure.
  auto nested = [](const std::string& doc) {
    std::string out;
    for (std::size_t i = 0; i + 1 < doc.size(); ++i) {
      out += doc[i];
      if (doc[i] == '\n') out += "  ";
    }
    return out;
  };
  std::string out = "{\n";
  out += "  \"schema_version\": " + std::to_string(kSearchStateSchemaVersion) +
         ",\n";
  out += "  \"kind\": \"search-state\",\n";
  out += "  \"seed\": " + std::to_string(state.seed) + ",\n";
  out += "  \"budget\": " + std::to_string(state.budget) + ",\n";
  out += "  \"batch\": " + std::to_string(state.batch) + ",\n";
  out += "  \"wave_ends\": [";
  for (std::size_t i = 0; i < state.wave_ends.size(); ++i)
    out += (i ? ", " : "") + std::to_string(state.wave_ends[i]);
  out += "],\n";
  out += "  \"plan\": " + nested(state.plan.to_json()) + ",\n";
  out += "  \"report\": " + nested(state.report.to_json()) + "\n}\n";
  return out;
}

SearchState search_state_from_json(const std::string& text) {
  using wire_detail::parse_count;
  using wire_detail::with_ctx;
  const char* what = "search state";
  JsonValue doc = wire_detail::parse_document(text, what);
  wire_detail::check_header(doc, "search-state", what,
                            kSearchStateSchemaVersion);
  SearchState st;
  st.seed = with_ctx(std::string(what) + ": seed",
                     [&] { return doc.at("seed").as_uint64(); });
  st.budget = parse_count(doc, "budget", what);
  st.batch = parse_count(doc, "batch", what);
  st.plan = with_ctx(
      what, [&] { return wire_detail::plan_from_value(doc.at("plan")); });
  st.report = with_ctx(what, [&] {
    return wire_detail::shard_report_from_value(doc.at("report"));
  });
  const std::size_t n = st.plan.items.size();
  if (st.report.scenario_name != st.plan.scenario_name ||
      st.report.plan_items != n || st.report.owned != IdRange{0, n})
    fail("the report must own the plan's items " + IdRange{0, n}.str() +
         " of scenario '" + st.plan.scenario_name + "'");

  const auto& waves = with_ctx("search state: wave_ends",
                               [&]() -> decltype(auto) {
                                 return doc.at("wave_ends").items();
                               });
  for (std::size_t i = 0; i < waves.size(); ++i) {
    with_ctx("search state: wave_ends[" + std::to_string(i) + "]", [&] {
      long long e = waves[i].as_int();
      std::size_t prev = st.wave_ends.empty() ? 0 : st.wave_ends.back();
      if (e <= static_cast<long long>(prev) || e > static_cast<long long>(n))
        throw WireError("wave end " + std::to_string(e) +
                        " is not strictly between " + std::to_string(prev) +
                        " and the item count " + std::to_string(n));
      st.wave_ends.push_back(static_cast<std::size_t>(e));
    });
  }
  if (n != 0 && (st.wave_ends.empty() || st.wave_ends.back() != n))
    fail("the last wave end must equal the item count " + std::to_string(n));
  return st;
}

}  // namespace ep::core
