#include "core/work_source.hpp"

#include <utility>

namespace ep::core {

CampaignResult drain_waves(WorkSource& source, const WaveDrain& drain_wave) {
  std::vector<ShardReport> reports = source.take_replayed_reports();
  std::vector<std::string> labels(reports.size(), "resumed checkpoint");
  for (auto wave = source.next_wave(); wave.first != wave.second;
       wave = source.next_wave()) {
    const std::size_t first = reports.size();
    drain_wave(wave.first, wave.second, reports, labels);
    // Feedback: the source scores this wave's outcomes before it
    // generates the next (a no-op for the exhaustive path).
    for (std::size_t i = first; i < reports.size(); ++i)
      source.absorb(reports[i]);
  }
  if (reports.empty()) return result_skeleton(source.plan());
  // Reports from earlier waves (and resumed checkpoints) were written
  // against a shorter plan; the drain grew it. Their leases and outcomes
  // are unchanged — rebase the plan_items header on the final size so
  // the merge's consistency checks see one plan. A no-op for the
  // exhaustive path (every report already carries the full size).
  const std::size_t n = source.plan().items.size();
  for (ShardReport& r : reports) r.plan_items = n;
  return merge_shard_reports(source.plan(), std::move(reports), labels);
}

}  // namespace ep::core
