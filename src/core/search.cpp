#include "core/search.hpp"

#include <algorithm>
#include <utility>

#include "core/executor.hpp"
#include "core/wire_internal.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ep::core {

namespace {

/// Run `f`, prefixing any failure with where in the document it happened
/// — the same diagnostic convention the plan/shard-report parsers use.
template <typename F>
auto with_ctx(const std::string& where, F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const std::exception& e) {
    throw WireError(where + ": " + e.what());
  }
}

[[noreturn]] void fail(const std::string& msg) {
  throw WireError("search state: " + msg);
}

std::size_t parse_count(const JsonValue& doc, const char* key) {
  long long v = with_ctx(std::string("search state: ") + key,
                         [&] { return doc.at(key).as_int(); });
  if (v < 0) fail(std::string(key) + " must be >= 0");
  return static_cast<std::size_t>(v);
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
  return generate_wave();
}

void SearchWorkSource::checkpoint_now() {
  process_feedback();
  if (checkpoint_) checkpoint_(state());
}

std::vector<ShardReport> SearchWorkSource::take_replayed_reports() {
  return std::exchange(replayed_, {});
}

SearchState SearchWorkSource::state() const {
  SearchState st;
  st.scenario_name = plan_.scenario_name;
  st.seed = opts_.seed;
  st.budget = opts_.budget;
  st.batch = opts_.batch;
  st.items.reserve(plan_.items.size());
  for (const WorkItem& w : plan_.items) {
    SearchStateItem it;
    it.point = w.point_index;
    it.site = plan_.points[w.point_index].site.tag;
    it.kind = w.fault.kind;
    it.fault = w.fault.name();
    it.param = w.param;
    st.items.push_back(std::move(it));
  }
  st.wave_ends = wave_ends_;
  st.completed_ids.reserve(outcomes_.size());
  st.outcomes.reserve(outcomes_.size());
  for (const auto& [id, outcome] : outcomes_) {
    st.completed_ids.push_back(id);
    st.outcomes.push_back(outcome);
  }
  return st;
}

void SearchWorkSource::resume(const SearchState& state) {
  if (!plan_.items.empty())
    fail("resume() must run before any wave is generated");
  if (state.scenario_name != plan_.scenario_name)
    fail("scenario '" + state.scenario_name +
         "' does not match this search's scenario '" + plan_.scenario_name +
         "'");
  if (state.seed != opts_.seed || state.budget != opts_.budget ||
      state.batch != opts_.batch)
    fail("seed/budget/batch (" + std::to_string(state.seed) + "/" +
         std::to_string(state.budget) + "/" + std::to_string(state.batch) +
         ") do not match this search's (" + std::to_string(opts_.seed) + "/" +
         std::to_string(opts_.budget) + "/" + std::to_string(opts_.batch) +
         ")");

  std::map<std::size_t, const InjectionOutcome*> recorded;
  for (std::size_t i = 0; i < state.completed_ids.size(); ++i)
    recorded[state.completed_ids[i]] = &state.outcomes[i];

  std::size_t prev_end = 0;
  for (std::size_t wave_end : state.wave_ends) {
    // Replay only fully-completed waves: a wave any of whose outcomes
    // are missing (a checkpoint raced its own write, or hand-edited
    // state) is simply re-drained live, along with everything after it.
    bool covered = wave_end <= state.items.size();
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
      const SearchStateItem& it = state.items[id];
      if (it.point != w.point_index || it.kind != w.fault.kind ||
          it.fault != w.fault.name() || it.param != w.param ||
          it.site != plan_.points[w.point_index].site.tag)
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
  std::string out = "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"kind\": \"search-state\",\n";
  out += "  \"scenario\": " + json_quote(state.scenario_name) + ",\n";
  out += "  \"seed\": " + std::to_string(state.seed) + ",\n";
  out += "  \"budget\": " + std::to_string(state.budget) + ",\n";
  out += "  \"batch\": " + std::to_string(state.batch) + ",\n";
  out += "  \"items\": [";
  for (std::size_t i = 0; i < state.items.size(); ++i) {
    const SearchStateItem& it = state.items[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"id\": " + std::to_string(i) +
           ", \"point\": " + std::to_string(it.point) +
           ", \"site\": " + json_quote(it.site) +
           ", \"kind\": " + json_quote(std::string(to_string(it.kind))) +
           ", \"fault\": " + json_quote(it.fault) +
           ", \"param\": " + std::to_string(it.param) + "}";
  }
  out += state.items.empty() ? "],\n" : "\n  ],\n";
  out += "  \"wave_ends\": [";
  for (std::size_t i = 0; i < state.wave_ends.size(); ++i)
    out += (i ? ", " : "") + std::to_string(state.wave_ends[i]);
  out += "],\n";
  out += "  \"completed_ids\": [";
  for (std::size_t i = 0; i < state.completed_ids.size(); ++i)
    out += (i ? ", " : "") + std::to_string(state.completed_ids[i]);
  out += "],\n";
  out += "  \"outcomes\": {\n";
  out += wire_detail::outcome_columns_json(state.outcomes, "    ");
  out += "  }\n}\n";
  return out;
}

SearchState search_state_from_json(const std::string& text) {
  JsonValue doc;
  try {
    doc = json_parse(text);
  } catch (const JsonError& e) {
    throw WireError(std::string("search state is not valid JSON: ") +
                    e.what());
  }
  if (!doc.is_object()) fail("top-level value must be an object");
  if (!doc.find("schema_version"))
    fail("missing 'schema_version' (not a wire-format file?)");
  std::string kind = with_ctx("search state: kind",
                              [&] { return doc.at("kind").as_string(); });
  if (kind != "search-state")
    fail("kind '" + kind + "' where 'search-state' was expected");
  long long version =
      with_ctx("search state: schema_version",
               [&] { return doc.at("schema_version").as_int(); });
  if (version != 1)
    fail("unsupported schema_version " + std::to_string(version) +
         " (this build reads version 1)");

  SearchState st;
  st.schema_version = static_cast<int>(version);
  st.scenario_name = with_ctx(
      "search state: scenario", [&] { return doc.at("scenario").as_string(); });
  if (st.scenario_name.empty()) fail("scenario name is empty");
  st.seed = static_cast<std::uint64_t>(parse_count(doc, "seed"));
  st.budget = parse_count(doc, "budget");
  st.batch = parse_count(doc, "batch");

  const auto& items = with_ctx("search state: items", [&]() -> decltype(auto) {
    return doc.at("items").items();
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    with_ctx("search state: items[" + std::to_string(i) + "]", [&] {
      const JsonValue& v = items[i];
      long long id = v.at("id").as_int();
      if (id != static_cast<long long>(i))
        throw WireError("stable id " + std::to_string(id) +
                        " out of order (expected " + std::to_string(i) + ")");
      SearchStateItem it;
      long long point = v.at("point").as_int();
      if (point < 0)
        throw WireError("point index " + std::to_string(point) +
                        " must be >= 0");
      it.point = static_cast<std::size_t>(point);
      it.site = v.at("site").as_string();
      std::string ks = v.at("kind").as_string();
      if (ks == to_string(FaultKind::indirect))
        it.kind = FaultKind::indirect;
      else if (ks == to_string(FaultKind::direct))
        it.kind = FaultKind::direct;
      else
        throw WireError("unknown fault kind '" + ks + "'");
      it.fault = v.at("fault").as_string();
      long long param = v.at("param").as_int();
      if (param < 0)
        throw WireError("param " + std::to_string(param) + " must be >= 0");
      it.param = static_cast<std::uint64_t>(param);
      st.items.push_back(std::move(it));
    });
  }

  const auto& waves =
      with_ctx("search state: wave_ends", [&]() -> decltype(auto) {
        return doc.at("wave_ends").items();
      });
  for (std::size_t i = 0; i < waves.size(); ++i) {
    with_ctx("search state: wave_ends[" + std::to_string(i) + "]", [&] {
      long long e = waves[i].as_int();
      std::size_t prev = st.wave_ends.empty() ? 0 : st.wave_ends.back();
      if (e <= static_cast<long long>(prev) ||
          e > static_cast<long long>(st.items.size()))
        throw WireError("wave end " + std::to_string(e) +
                        " is not strictly between " + std::to_string(prev) +
                        " and the item count " +
                        std::to_string(st.items.size()));
      st.wave_ends.push_back(static_cast<std::size_t>(e));
    });
  }
  if (!st.items.empty() &&
      (st.wave_ends.empty() || st.wave_ends.back() != st.items.size()))
    fail("the last wave end must equal the item count " +
         std::to_string(st.items.size()));

  const auto& ids =
      with_ctx("search state: completed_ids", [&]() -> decltype(auto) {
        return doc.at("completed_ids").items();
      });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    with_ctx("search state: completed_ids[" + std::to_string(i) + "]", [&] {
      long long id = ids[i].as_int();
      if (id < 0 || id >= static_cast<long long>(st.items.size()))
        throw WireError("work-item id " + std::to_string(id) +
                        " out of range (state has " +
                        std::to_string(st.items.size()) + " items)");
      if (!st.completed_ids.empty() &&
          static_cast<std::size_t>(id) <= st.completed_ids.back())
        throw WireError("completed_ids out of order (" + std::to_string(id) +
                        " after " + std::to_string(st.completed_ids.back()) +
                        ")");
      st.completed_ids.push_back(static_cast<std::size_t>(id));
    });
  }

  const JsonValue& cols =
      with_ctx("search state: outcomes",
               [&]() -> decltype(auto) { return doc.at("outcomes"); });
  if (!cols.is_object())
    fail("outcomes must be an object of column arrays");
  st.outcomes = wire_detail::outcomes_from_columns(
      cols, st.completed_ids.size(), "search state");
  return st;
}

SearchRunResult run_search(const Executor& executor, SearchWorkSource& source,
                           const ExecutorOptions& opts,
                           std::size_t stop_after_waves) {
  SearchRunResult out;
  std::vector<ShardReport> reports = source.take_replayed_reports();
  std::vector<std::string> labels(reports.size(), "resumed checkpoint");
  out.waves = source.waves_generated();
  for (;;) {
    if (stop_after_waves != 0 && out.waves >= stop_after_waves) {
      // Stop *between* barriers, state flushed — the deterministic
      // preemption hook (--stop-after). Nothing drained is lost.
      source.checkpoint_now();
      out.stopped = true;
      return out;
    }
    auto [begin, end] = source.next_wave();
    if (begin == end) break;
    ShardReport r = run_lease(executor, source.plan(), {begin, end}, opts);
    source.absorb(r);
    reports.push_back(std::move(r));
    ++out.waves;
    labels.push_back("wave " + std::to_string(out.waves));
  }
  if (reports.empty()) {
    out.result = result_skeleton(source.plan());
    return out;
  }
  // Wave-N reports carry the plan size as of wave N; the merge checks
  // plan_items against the final plan, so rebase them all to it.
  const std::size_t n = source.plan().items.size();
  for (ShardReport& r : reports) r.plan_items = n;
  out.result = merge_shard_reports(source.plan(), reports, labels);
  return out;
}

}  // namespace ep::core
