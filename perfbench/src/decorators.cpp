#include "decorators.hpp"

#include <cstdint>

#include "spans.hpp"

namespace perfbench {

namespace core = ep::core;

core::Scenario traced_scenario(core::Scenario s) {
  s.build = [build = std::move(s.build)]() {
    Scope span("apps.build");
    return build();
  };
  s.run = [run = std::move(s.run)](core::TargetWorld& world) {
    Scope span("apps.run");
    return run(world);
  };
  return s;
}

std::optional<std::size_t> TracedTransport::spawn() {
  Scope span("transport.spawn", -1);
  std::optional<std::size_t> w = inner_.spawn();
  if (w) span.set(static_cast<std::int64_t>(*w));
  return w;
}

void TracedTransport::submit(std::size_t worker, const core::Lease& lease) {
  Scope span("transport.submit", static_cast<std::int64_t>(worker),
             static_cast<std::int64_t>(lease.seq),
             static_cast<std::int64_t>(lease.end - lease.begin));
  inner_.submit(worker, lease);
}

void TracedTransport::steal(std::size_t worker) {
  Scope span("transport.steal", static_cast<std::int64_t>(worker));
  inner_.steal(worker);
}

void TracedTransport::feedback(std::size_t worker,
                               const core::InjectionPlan& plan,
                               std::size_t begin, std::size_t end) {
  Scope span("transport.feedback", static_cast<std::int64_t>(worker),
             static_cast<std::int64_t>(end - begin));
  inner_.feedback(worker, plan, begin, end);
}

std::optional<core::WorkerEvent> TracedTransport::wait_any(long timeout_ms) {
  Scope span("transport.wait_any", -1, -1);
  std::optional<core::WorkerEvent> ev = inner_.wait_any(timeout_ms);
  if (ev)
    span.set(static_cast<std::int64_t>(ev->worker),
             static_cast<std::int64_t>(ev->kind),
             static_cast<std::int64_t>(ev->lease.seq));
  return ev;
}

void TracedTransport::shutdown(std::size_t worker) {
  Scope span("transport.shutdown", static_cast<std::int64_t>(worker));
  inner_.shutdown(worker);
}

void TracedTransport::kill(std::size_t worker) {
  Scope span("transport.kill", static_cast<std::int64_t>(worker));
  inner_.kill(worker);
}

std::pair<std::size_t, std::size_t> TracedWorkSource::next_wave() {
  Scope span("search.next_wave");
  auto wave = inner_.next_wave();
  span.set(static_cast<std::int64_t>(wave.first),
           static_cast<std::int64_t>(wave.second));
  return wave;
}

void TracedWorkSource::absorb(const core::ShardReport& report) {
  Scope span("search.absorb",
             static_cast<std::int64_t>(report.outcomes.size()));
  inner_.absorb(report);
}

}  // namespace perfbench
