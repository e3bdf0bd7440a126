// Shared types of the benchmark driver: options, per-op records, and the
// interface every workload implements.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string epa_cli;  ///< the epa_cli binary the fleet ops run
  std::string out_dir;  ///< ledger, span dump, and the run's temp root
  std::string tmp_dir;  ///< removed at exit
  int jobs_max = 1;     ///< min(4, nproc)
};

/// One measured op. `slot` pairs the ops of a traced run: slot k runs the
/// same input twice, traced then with the decorators bypassed.
struct OpRecord {
  std::uint32_t index = 0;
  std::uint32_t slot = 0;
  int lane = 0;  ///< suite-sweep: jobs; fleet-campaigns: plane; search: 0
  bool traced = false;
  bool ok = true;
  std::string failure;  ///< why !ok
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  long long runs = 0;   ///< injection runs the op's output accounts for
  long maxrss_kb = 0;   ///< largest epa_cli process of the op
  int classes_hit = 0;  ///< EAI classes fired that the reference fires
  int classes_ref = 0;  ///< EAI classes the reference fires

  [[nodiscard]] double ms() const { return (end_ns - start_ns) / 1e6; }
};

/// A workload: set-up (timed, repeated), reference outputs (untimed),
/// then ops until the time is up.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs and run one warm-up op. Called several times; the
  /// last call's state is what the ops use.
  virtual void setup() = 0;
  /// Compute the reference outputs the ops are checked against.
  virtual void reference() = 0;
  /// Run op `index` of slot `slot`, traced or not.
  virtual OpRecord op(std::uint32_t index, std::uint32_t slot,
                      bool traced) = 0;
  /// Slots per input cycle. A run stops only at a cycle boundary (after
  /// at least one cycle), so every run measures the same input multiset
  /// and only the seed-drawn order and members differ.
  [[nodiscard]] virtual std::uint32_t cycle_slots() const = 0;
  /// The leading slots the exact per-layer counts are taken over: the
  /// same inputs on every run at a given seed.
  [[nodiscard]] virtual std::uint32_t count_slots() const = 0;
  /// Lane label for the ledger ("jobs=4", "tcp", ...).
  [[nodiscard]] virtual std::string lane_name(int lane) const = 0;
};

std::unique_ptr<Workload> make_suite_sweep(const Options& opts);
std::unique_ptr<Workload> make_fleet_campaigns(const Options& opts);
std::unique_ptr<Workload> make_search_fleet(const Options& opts);

/// Deterministic 64-bit mixing (splitmix64): seed-derived choices.
std::uint64_t mix64(std::uint64_t x);

/// Median (interpolated) and nearest-rank quantile; 0 for no samples.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// A metric value with its unit, as printed.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Per-layer metrics derived from the traced run's spans and op records.
Metrics derive_layer_metrics(const std::string& workload,
                             const std::vector<Span>& spans,
                             const std::vector<OpRecord>& ops,
                             std::uint32_t count_slots);

}  // namespace perfbench
