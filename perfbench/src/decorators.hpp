// Layer decorators for the traced run. They reach the engine only through
// its public seams — the Scenario callbacks and the virtual Transport and
// WorkSource interfaces — and wrap each call in a span. The untraced run
// never constructs them.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/orchestrator.hpp"
#include "core/work_source.hpp"

namespace perfbench {

/// The scenario with its build and run callbacks wrapped in "apps.build"
/// and "apps.run" spans (the apps layer: scenario worlds, target programs
/// and the simulated os/reg/net substrate they run on).
ep::core::Scenario traced_scenario(ep::core::Scenario s);

/// Spans around every Transport call. Attributes:
///   transport.spawn     a = returned worker id (-1 when none)
///   transport.submit    a = worker, b = lease seq, c = lease items
///   transport.feedback  a = worker, b = items shipped
///   transport.wait_any  a = event worker (-1 on timeout), b = event kind,
///                       c = lease seq
///   transport.steal / shutdown / kill   a = worker
class TracedTransport : public ep::core::Transport {
 public:
  explicit TracedTransport(ep::core::Transport& inner) : inner_(inner) {}

  std::optional<std::size_t> spawn() override;
  void submit(std::size_t worker, const ep::core::Lease& lease) override;
  void steal(std::size_t worker) override;
  void feedback(std::size_t worker, const ep::core::InjectionPlan& plan,
                std::size_t begin, std::size_t end) override;
  std::optional<ep::core::WorkerEvent> wait_any(long timeout_ms) override;
  void shutdown(std::size_t worker) override;
  void kill(std::size_t worker) override;

 private:
  ep::core::Transport& inner_;
};

/// Spans around the search layer's wave generation and feedback:
///   search.next_wave  a = begin, b = end
///   search.absorb     a = outcomes absorbed
class TracedWorkSource : public ep::core::WorkSource {
 public:
  explicit TracedWorkSource(ep::core::WorkSource& inner) : inner_(inner) {}

  [[nodiscard]] const ep::core::InjectionPlan& plan() const override {
    return inner_.plan();
  }
  std::pair<std::size_t, std::size_t> next_wave() override;
  void absorb(const ep::core::ShardReport& report) override;
  std::vector<ep::core::ShardReport> take_replayed_reports() override {
    return inner_.take_replayed_reports();
  }

 private:
  ep::core::WorkSource& inner_;
};

}  // namespace perfbench
