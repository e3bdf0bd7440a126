// The work-distribution seam: where executors and orchestrators get
// their work items from.
//
// A WorkSource generalizes a finite, fully-materialized InjectionPlan to
// a *growing* plan drained in waves: next_wave() appends the next batch
// of items (none = exhausted), the drain executes them, and absorb()
// routes the finished outcomes back — which is what lets a
// feedback-driven generator (the novelty search in core/search.hpp)
// decide the next wave from the results of the last one. The exhaustive
// path is one client of the seam: PlanWorkSource emits its whole fixed
// plan as a single wave and ignores feedback, so orchestrate() through
// it drains exactly the fixed plan. drain_waves() is the one loop over
// the waves; a drain supplies only how one wave is run.
//
// Determinism contract: a source must generate waves as a pure function
// of (its seed/configuration, the absorbed outcomes in stable-id
// order). Outcomes are themselves pure functions of the item, so the
// full item stream — and therefore the merged report — is identical for
// any worker count or data plane.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/wire.hpp"

namespace ep::core {

class WorkSource {
 public:
  virtual ~WorkSource() = default;

  /// The materialized-so-far plan. Items only ever *append* (stable ids
  /// stay stable); references into `plan().items` may be invalidated by
  /// next_wave(), indexes never are.
  [[nodiscard]] virtual const InjectionPlan& plan() const = 0;

  /// Append the next wave of work items to the plan and return their id
  /// range [begin, end). begin == end means the source is exhausted and
  /// the drain should finish up. Called between wave barriers only — a
  /// feedback-driven source sees every prior wave's outcomes absorbed
  /// before it generates the next.
  virtual std::pair<std::size_t, std::size_t> next_wave() = 0;

  /// Route one collected lease report's outcomes back into the source.
  /// drain_waves() calls it for each report of a wave once the wave is
  /// drained, in the order the reports landed; a source that scores
  /// feedback buffers them and processes in stable-id order at the wave
  /// barrier, keeping generation deterministic.
  virtual void absorb(const ShardReport& report) { (void)report; }

  /// Leased reports replayed from a checkpoint (search --resume):
  /// already-complete waves whose outcomes the final merge still needs.
  /// Consumed once, before the first wave is drained.
  virtual std::vector<ShardReport> take_replayed_reports() { return {}; }
};

/// Today's exhaustive path as a WorkSource: the whole fixed plan in one
/// wave, feedback ignored. The pinned control — everything that drains
/// through this is byte-identical to draining the plan directly.
class PlanWorkSource : public WorkSource {
 public:
  explicit PlanWorkSource(const InjectionPlan& plan) : plan_(plan) {}

  [[nodiscard]] const InjectionPlan& plan() const override { return plan_; }

  std::pair<std::size_t, std::size_t> next_wave() override {
    if (emitted_) return {plan_.items.size(), plan_.items.size()};
    emitted_ = true;
    return {0, plan_.items.size()};
  }

 private:
  const InjectionPlan& plan_;
  bool emitted_ = false;
};

/// Drains one wave, items [begin, end) of the source's plan, into
/// complete reports that together own exactly that range: each is
/// appended to `reports`, and its source (a worker's lease, a local
/// wave) to `labels` for merge diagnostics.
using WaveDrain = std::function<void(std::size_t begin, std::size_t end,
                                     std::vector<ShardReport>& reports,
                                     std::vector<std::string>& labels)>;

/// The one wave loop, shared by the in-process search (one run_lease per
/// wave) and every fleet (core/orchestrator.hpp): start from the
/// source's checkpoint-replayed reports, then next_wave() -> drain_wave
/// -> absorb each report until the source returns an empty wave, and
/// merge every report into the CampaignResult a single process would
/// have produced — the plan's skeleton when nothing ran at all.
CampaignResult drain_waves(WorkSource& source, const WaveDrain& drain_wave);

}  // namespace ep::core
