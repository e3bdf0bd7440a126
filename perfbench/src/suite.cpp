// suite-sweep: the paper's inner loop at scale, in the benchmark process.
// One op is one MultiCampaign::run over the 21 packaged scenarios and the
// 104 family members (3,129 injection runs, world cache on), then the
// sweep JSON is rendered. The seed permutes the scenario order; slots
// alternate between jobs=1 and jobs=min(4, nproc).
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common.hpp"
#include "core/scheduler.hpp"
#include "decorators.hpp"

namespace perfbench {

namespace core = ep::core;

namespace {

class SuiteSweep : public Workload {
 public:
  explicit SuiteSweep(const Options& opts) : opts_(opts) {}

  void setup() override {
    std::vector<core::Scenario> all = all_scenarios();
    for (std::size_t i = all.size(); i > 1; --i)  // Fisher-Yates by seed
      std::swap(all[i - 1], all[mix64(opts_.seed * 1000003 + i) % i]);

    plain_ = core::MultiCampaign();
    traced_ = core::MultiCampaign();
    for (const core::Scenario& s : all) {
      plain_.add(s);
      if (opts_.trace) traced_.add(traced_scenario(s));
    }
    core::SweepOptions so;
    so.jobs = opts_.jobs_max;
    (void)render_sweep_json(plain_.run(so), true);  // warm-up
  }

  void reference() override {
    // The rebuild-per-run path at jobs=1: a different drain than the ops
    // take, so a world-cache or scheduling bug cannot agree with itself.
    core::SweepOptions so;
    so.jobs = 1;
    so.campaign.use_world_cache = false;
    core::SweepResult r = plain_.run(so);
    ref_json_ = render_sweep_json(r, true);
    ref_runs_ = r.total_injections();
    ref_classes_ = fired_classes(r.results);
  }

  OpRecord op(std::uint32_t, std::uint32_t slot, bool traced) override {
    OpRecord rec;
    core::SweepOptions so;
    so.jobs = slot % 2 == 0 ? 1 : opts_.jobs_max;
    rec.lane = so.jobs;
    const core::MultiCampaign& suite = traced ? traced_ : plain_;
    core::SweepResult r;
    std::string json;
    rec.start_ns = now_ns();
    {
      Scope span("scheduler.run", so.jobs);
      r = suite.run(so);
    }
    {
      Scope span("report.render");
      json = render_sweep_json(r, true);
      span.set(static_cast<std::int64_t>(json.size()));
    }
    rec.end_ns = now_ns();
    rec.runs = r.total_injections();
    rec.classes_ref = static_cast<int>(ref_classes_.size());
    rec.classes_hit = count_hits(fired_classes(r.results), ref_classes_);
    if (json != ref_json_) {
      rec.ok = false;
      rec.failure = "sweep JSON differs from the jobs=1 uncached reference";
    } else if (rec.runs != ref_runs_) {
      rec.ok = false;
      rec.failure = "injection count differs from the reference";
    }
    return rec;
  }

  [[nodiscard]] std::uint32_t cycle_slots() const override { return 2; }
  [[nodiscard]] std::uint32_t count_slots() const override { return 2; }
  [[nodiscard]] std::string lane_name(int lane) const override {
    return "jobs=" + std::to_string(lane);
  }

 private:
  Options opts_;
  core::MultiCampaign plain_;
  core::MultiCampaign traced_;
  std::string ref_json_;
  long long ref_runs_ = 0;
  std::set<std::string> ref_classes_;
};

}  // namespace

std::unique_ptr<Workload> make_suite_sweep(const Options& opts) {
  return std::make_unique<SuiteSweep>(opts);
}

}  // namespace perfbench
