// Coverage-guided environment search: the open-ended WorkSource.
//
// The exhaustive pipeline drains every (site, fault) pair once. Search
// inverts the economics: given a *budget* of injection runs (usually a
// small fraction of the exhaustive item count), spend each run where it
// is most likely to teach something new. SearchWorkSource generates work
// items wave by wave from a candidate frontier — every trace point
// crossed with its planned faults, plus perturbation-parameter mutations
// of items whose outcomes proved interesting — and a NoveltyScorer ranks
// the frontier by what the campaign has *not* yet observed: environment
// classes never fired, sites never violated, faults never attempted,
// verdict shapes never seen. This is the paper's adequacy argument run
// in reverse: instead of measuring class coverage after an exhaustive
// sweep, the scheduler chases it during the sweep.
//
// Determinism contract (the same one the rest of the engine keeps):
// the generated item stream is a pure function of (seed, budget, batch,
// the base plan, absorbed outcomes in stable-id order). Outcomes are
// themselves pure functions of (point, fault, param), so the same seed
// and budget produce a byte-identical search report for any worker
// count, job count, or data plane — and a checkpointed search resumed
// after a kill -9 re-generates the exact waves it lost.
//
// Layering: core must not depend on vulndb, so the environment-class
// axis arrives as SearchOptions::classify — a (fault kind, fault name)
// -> class-label function the CLI wires to vulndb::coverage_class. An
// empty classify (or an empty label) simply mutes that scoring term.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/wire.hpp"
#include "core/work_source.hpp"

namespace ep::core {

struct SearchOptions {
  /// Seed of the whole search: wave selection ties, parameter mutation.
  std::uint64_t seed = 1;
  /// Total work items the search may generate (the run count). The
  /// search stops early when the frontier is exhausted first.
  std::size_t budget = 0;
  /// Wave size cap: how many items are generated per wave barrier. The
  /// feedback loop turns once per wave, so smaller batches steer harder
  /// and larger batches parallelize better.
  std::size_t batch = 16;
  /// Stop after this many waves (0 = never): once that many exist,
  /// next_wave() still absorbs the last wave's feedback and checkpoints,
  /// then returns an empty wave, and stopped() is true. The same clean
  /// stop on every drain (--stop-after).
  std::size_t stop_after_waves = 0;
  /// Environment-class axis for novelty scoring: (fault kind, fault
  /// name) -> class label, empty label = unclassified. The CLI passes
  /// vulndb::coverage_class; unset mutes the class term.
  std::function<std::string(FaultKind, const std::string&)> classify;
};

/// What the search has observed so far, and how novel a candidate looks
/// against it. Shared across scenarios in a family search (one scorer,
/// sequential members) so a class fired by member one stops paying rent
/// in member two.
class NoveltyScorer {
 public:
  /// Score a candidate item against the seen sets. Terms, largest first:
  /// +8 its environment class never fired, +2 its site never violated,
  /// +1 its fault never attempted, +1 it is a stock-hints item
  /// (param == 0 — base candidates before mutations of equal novelty).
  [[nodiscard]] int score(const std::string& class_label,
                          const std::string& site_tag,
                          const std::string& fault_key,
                          std::uint64_t param) const;

  void note_attempt(const std::string& fault_key);
  /// Absorb one finished outcome. Returns true when the outcome's
  /// verdict signature (fault, fired, violated, crashed, exit code) was
  /// never seen before — the generator's cue to enqueue mutations.
  bool note_outcome(const std::string& class_label,
                    const std::string& site_tag,
                    const std::string& fault_key,
                    const InjectionOutcome& outcome);

  [[nodiscard]] const std::set<std::string>& fired_classes() const {
    return fired_classes_;
  }

 private:
  friend class SearchWorkSource;  // wave-tentative copies for diversity
  std::set<std::string> fired_classes_;
  std::set<std::string> violated_sites_;
  std::set<std::string> attempted_faults_;
  std::set<std::string> verdict_sigs_;
};

/// Version of the search-state wire kind (docs/SEARCH.md). Version 2
/// embeds the generated plan and its outcomes as an injection-plan and a
/// shard-report document; the reader accepts only this version.
inline constexpr int kSearchStateSchemaVersion = 2;

/// A search checkpoint: the search's identity (seed, budget, batch; the
/// scenario is the plan's), the plan generated so far with its wave
/// boundaries, and the outcomes of every completed item as one shard
/// report over the plan's ids [0, n) — partial when items are missing.
struct SearchState {
  std::uint64_t seed = 1;
  std::size_t budget = 0;
  std::size_t batch = 0;
  std::vector<std::size_t> wave_ends;
  InjectionPlan plan;
  ShardReport report;
};

/// Canonical JSON for a search-state document: parse -> re-serialize
/// reproduces the bytes verbatim (the SearchDoc test holds docs/SEARCH.md
/// to the format). The plan and report are their own canonical documents,
/// indented one level.
std::string search_state_to_json(const SearchState& state);

/// Parse and validate a search-state document, the embedded plan and
/// report with their own readers. Throws WireError on malformed input, a
/// foreign kind/version, a report that does not own exactly the plan's
/// items, or wave boundaries that are unordered or out of range.
SearchState search_state_from_json(const std::string& text);

/// The open-ended WorkSource: novelty-ranked waves over the candidate
/// frontier. Construct from the *exhaustive* plan of the same scenario
/// and options (the base plan's items are the initial frontier, its
/// points/snapshot carry over), optionally sharing a scorer across a
/// family; then drain through drain_waves() (in-process, one run_lease
/// per wave) or orchestrate_source().
class SearchWorkSource : public WorkSource {
 public:
  /// `base` is the scenario's exhaustive plan (every candidate, param
  /// 0). A non-null `shared_scorer` must outlive the source and makes a
  /// family search cumulative; null means the source owns its scorer.
  SearchWorkSource(InjectionPlan base, SearchOptions opts,
                   NoveltyScorer* shared_scorer = nullptr);

  [[nodiscard]] const InjectionPlan& plan() const override { return plan_; }
  std::pair<std::size_t, std::size_t> next_wave() override;
  void absorb(const ShardReport& report) override;
  std::vector<ShardReport> take_replayed_reports() override;

  /// Invoked at every wave barrier (including the final, empty one) with
  /// the full current state — the caller persists it (atomically) so a
  /// killed search can resume. Set *after* resume(): replayed waves do
  /// not re-checkpoint.
  void set_checkpoint(std::function<void(const SearchState&)> fn) {
    checkpoint_ = std::move(fn);
  }

  /// Replay a checkpoint: re-generate each fully-completed recorded wave
  /// (feeding the recorded outcomes back through the scorer), validate
  /// the re-generated items against the recorded plan's, and queue
  /// synthesized lease reports for take_replayed_reports(). Call once,
  /// directly after construction. Throws WireError when the state
  /// belongs to a different search (scenario, seed/budget/batch, or a
  /// plan whose points differ from the base plan's) or the regeneration
  /// diverges from the recorded items.
  void resume(const SearchState& state);

  /// The current state (what a checkpoint would record).
  [[nodiscard]] SearchState state() const;

  [[nodiscard]] std::size_t waves_generated() const {
    return wave_ends_.size();
  }

  /// True once the stop_after_waves cap has ended the search early.
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  struct Candidate {
    WorkItem item;
    std::size_t seq = 0;  // insertion order: the deterministic tiebreak
    bool queued = false;
  };

  void process_feedback();
  std::pair<std::size_t, std::size_t> generate_wave();
  [[nodiscard]] std::string fault_key(const WorkItem& item) const;
  [[nodiscard]] std::string class_of(const WorkItem& item) const;

  InjectionPlan plan_;  // grows; items [0, n) are the generated stream
  SearchOptions opts_;
  NoveltyScorer own_scorer_;
  NoveltyScorer* scorer_;
  std::vector<Candidate> frontier_;
  std::size_t next_seq_ = 0;
  std::vector<std::size_t> wave_ends_;
  /// Outcomes landed since the last barrier, keyed by stable id; merged
  /// into outcomes_ (and the scorer) in id order at the barrier.
  std::map<std::size_t, InjectionOutcome> pending_;
  std::map<std::size_t, InjectionOutcome> outcomes_;
  std::vector<ShardReport> replayed_;
  std::function<void(const SearchState&)> checkpoint_;
  bool stopped_ = false;
};

}  // namespace ep::core
