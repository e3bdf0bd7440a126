// The distribution wire format (docs/WIRE_FORMAT.md): serialized
// InjectionPlans and per-shard campaign reports.
//
// The plan is the engine's unit of distribution. `epa_cli plan` writes
// InjectionPlan::to_json() to a file; any number of processes — on one
// machine or many — each read the same plan, drain the stable ids their
// report owns, and write a ShardReport. Every report owns its ids by one
// rule, a strided lease: the ids begin, begin + stride, ... below end.
// An orchestrator lease is stride 1; `run-shard --shard K/N` is
// begin = K-1, end = the plan size, stride = N. merge_shard_reports()
// recombines the report files into the exact CampaignResult a single
// process would have produced: outcomes go to their plan-order slot by
// stable id, so the merge is deterministic regardless of how the plan was
// cut, arrival order, or how long each report took.
//
// Everything here validates before it trusts: a malformed, truncated,
// version-skewed, or foreign file raises WireError with a message naming
// the field (and, for syntax errors, the line/column) that broke —
// callers turn that into a clean non-zero exit, never a raw terminate.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/executor.hpp"

namespace ep::core {

/// Version of the shard-report wire format: the compact columnar
/// encoding (one array per run-dependent field) with the
/// `complete`/`completed_ids` partial-report notion, and ownership as one
/// strided lease (`begin`, `end`, `stride`). Each reader accepts exactly
/// the version its own build writes; any other version is refused with a
/// message naming both. Plans are versioned separately by
/// kPlanSchemaVersion.
inline constexpr int kShardSchemaVersion = 4;

/// Version of the binary wire encoding (docs/WIRE_FORMAT.md, "Binary
/// encoding"): the compact non-JSON framing of the same plan and
/// shard-report models, the plan and report frames every worker stream
/// carries (core/protocol.hpp). Versioned
/// independently of the JSON schema versions — the two encodings carry
/// identical information and decode to identical in-memory values. Plan
/// and report frames share this one version, and the decoders accept
/// only it.
inline constexpr int kBinaryWireVersion = 3;

/// A plan or shard-report file that cannot be trusted: syntactically
/// malformed, wrong schema version, wrong kind, missing or inconsistent
/// fields, or shard sets that do not add back up to the plan.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Canonical JSON fragment helpers shared by every serializer so site and
/// violation objects look the same in plans, shard reports, and docs.
std::string json_site(const os::Site& s);
std::string json_violation(const Violation& v);

/// Parse and validate a serialized plan (the inverse of
/// InjectionPlan::to_json). Faults are re-resolved by name against this
/// build's FaultCatalog; the returned plan carries no world snapshot —
/// call refreeze_snapshot() to re-create the local COW prototype.
/// Throws WireError on any malformed or unsupported input.
InjectionPlan plan_from_json(const std::string& text);

/// Re-freeze the local COW prototype for a plan rebuilt from JSON (the
/// snapshot is never serialized — it is a per-process amortization, not
/// plan semantics). No-op when the scenario is not snapshot-safe, the
/// plan is empty, or a snapshot is already attached.
void refreeze_snapshot(InjectionPlan& plan, const Scenario& scenario);

/// The FEEDBACK payload (core/protocol.hpp): plan.items[begin, end)
/// encoded as one space-free token of comma-separated
/// `point:kind:fault:param` entries (kind is `i` or `d`, param plain
/// decimal — 0 for stock hints). The coordinator ships this to workers
/// whose serialized plan copy predates search-appended items; the worker
/// appends the parsed items under the same stable ids. Throws WireError
/// when the range is empty or does not fit the plan.
std::string feedback_spec(const InjectionPlan& plan, std::size_t begin,
                          std::size_t end);

/// The inverse: decode a FEEDBACK spec token back into work items,
/// re-resolving faults against this build's catalog. `point_count` is
/// the receiving plan's point count — entries referencing points past it
/// are rejected (a worker can only execute items whose interaction point
/// it already has). Throws WireError on any malformed entry.
std::vector<WorkItem> parse_feedback_spec(const std::string& spec,
                                          std::size_t point_count);

/// The one ownership rule of a shard report: the stable ids begin,
/// begin + stride, begin + 2 * stride, ... below end. A lease is stride 1;
/// static_shard() is the strided `--shard K/N` form. Every query is
/// arithmetic — a range read from a file never sizes an allocation — and
/// size()/contains() need stride >= 1, which every decoder, resume and
/// merge check before asking.
struct IdRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t stride = 1;

  /// How many ids the range owns (0 when begin >= end).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool contains(std::size_t id) const;
  /// "[1, 3)", or "[0, 11) stride 2" — how diagnostics name a report.
  [[nodiscard]] std::string str() const;
  bool operator==(const IdRange& o) const {
    return begin == o.begin && end == o.end && stride == o.stride;
  }
  bool operator!=(const IdRange& o) const { return !(*this == o); }
};

/// `run-shard --shard K/N` as a strided lease: shard `index` (0-based) of
/// `count` over a `plan_items`-item plan owns begin = min(index,
/// plan_items), end = plan_items, stride = count — exactly the ids with
/// id % count == index. Uneven divisions give the low-index shards one
/// extra item; shards past the plan own nothing. Throws WireError unless
/// index < count.
IdRange static_shard(std::size_t plan_items, std::size_t index,
                     std::size_t count);

/// One shard's campaign output: the injection outcomes of the work items
/// the report owns (`owned`), keyed by their stable plan ids. A report
/// may be *partial* (`complete == false`): a preempted `run-shard`
/// flushes the outcomes it finished, and resume_shard() later drains only
/// the missing ids — the completed report is byte-identical to an
/// uninterrupted run.
struct ShardReport {
  std::string scenario_name;
  /// Total items in the *whole* plan (not this report) — merge uses it to
  /// reject report files produced against a different plan.
  std::size_t plan_items = 0;
  /// The ids this report owns; `end` never exceeds plan_items.
  IdRange owned;
  /// True iff item_ids covers every owned id. Derived, never
  /// free-floating: the serializer computes it and the parser rejects a
  /// file whose flag contradicts its completed_ids.
  bool complete = true;
  std::vector<std::size_t> item_ids;  // ascending; parallel to outcomes
  std::vector<InjectionOutcome> outcomes;

  /// Canonical JSON (docs/WIRE_FORMAT.md), always kShardSchemaVersion:
  /// parse -> re-serialize reproduces the bytes verbatim. Only the
  /// run-dependent outcome fields go on the wire (fired, crashed,
  /// overflows, exit_code, violations, exploit) — site/call/object/fault
  /// are already in the plan, keyed by id, and merge re-derives them.
  [[nodiscard]] std::string to_json() const;
};

/// Parse and validate a serialized shard report (kShardSchemaVersion
/// only). Throws WireError on malformed input, a foreign kind/version, a
/// range that does not fit the plan, ids the report does not own,
/// duplicate or out-of-order ids, or a `complete` flag that contradicts
/// the ids actually present.
ShardReport shard_report_from_json(const std::string& text);

/// True when `data` starts with the binary wire magic — how file loaders
/// (epa_cli's load_plan) dispatch between the JSON and binary decoders
/// without trying one and falling back.
bool looks_like_binary_wire(const void* data, std::size_t size);
bool looks_like_binary_wire(const std::string& text);

/// The binary encodings (docs/WIRE_FORMAT.md, "Binary encoding"): a
/// sectioned little-framing with explicit endianness, total size, and a
/// validated section table. Canonical like the JSON side: decode ->
/// re-encode reproduces the bytes verbatim, and the decoders enforce
/// every invariant the JSON parsers do (same error messages where the
/// check is shared). Throws WireError on any malformed, truncated,
/// foreign-endian, or version-skewed input.
std::string plan_to_binary(const InjectionPlan& plan);
InjectionPlan plan_from_binary(const void* data, std::size_t size);
InjectionPlan plan_from_binary(const std::string& text);
std::string shard_report_to_binary(const ShardReport& report);
ShardReport shard_report_from_binary(const void* data, std::size_t size);
ShardReport shard_report_from_binary(const std::string& text);

/// Progress hooks for a preemptible shard drain. With checkpoint_every ==
/// 0 the drain is one uninterruptible pass and no intermediate flush
/// happens; with K > 0 the drain proceeds in ascending chunks of K items,
/// flushing the partial report after each chunk and polling `interrupted`
/// between chunks — a preempted drain returns a valid partial report
/// (complete == false) instead of losing the shard.
struct ShardDrainHooks {
  std::size_t checkpoint_every = 0;
  /// Called with the partial report after each completed chunk (not after
  /// the final one — the caller writes the returned report itself).
  std::function<void(const ShardReport&)> on_checkpoint;
  /// Polled before each chunk; returning true stops the drain early.
  std::function<bool()> interrupted;
};

/// Drain the ids `owned` names through the executor (worker pool and COW
/// snapshot path included) and package the outcomes as a ShardReport —
/// the one drain behind `run-shard --shard K/N` (a static_shard range),
/// the persistent worker's leases (core/orchestrator.hpp) and search
/// waves. Throws WireError when the range does not fit the plan. With
/// hooks.checkpoint_every > 0 a partial report (complete == false) is
/// flushed after each chunk and the drain stops between chunks when
/// `interrupted` fires.
ShardReport run_lease(const Executor& executor, const InjectionPlan& plan,
                      const IdRange& owned, const ExecutorOptions& opts = {},
                      const ShardDrainHooks& hooks = {});

/// Complete a partial report: re-drain only the ids the report owns but
/// `partial` lacks, and return the combined report — byte-identical to an
/// uninterrupted run_lease (outcomes are deterministic per item). Throws
/// WireError when the partial report does not belong to this plan
/// (scenario or item-count mismatch, ids it does not own). A resumed
/// drain can itself be preempted again via `hooks`.
ShardReport resume_shard(const Executor& executor, const InjectionPlan& plan,
                         const ShardReport& partial,
                         const ExecutorOptions& opts = {},
                         const ShardDrainHooks& hooks = {});

/// Recombine shard reports into the CampaignResult a single process would
/// have produced from this plan: outcome with id i lands in slot i, so
/// the result is bit-identical to a local `--jobs N` drain for any cut of
/// the plan and any report order. One validation rule: every plan id
/// belongs to exactly one complete report — `run-shard` files, lease
/// files and search waves merge alike, in any mix. Throws WireError
/// unless every report matches this plan's scenario and item count, the
/// owned ranges are disjoint and together cover the plan, and each report
/// holds an outcome for every id it owns (an unresumed partial file is
/// rejected). `labels`, when given, is parallel to `shards` and names each
/// report's source (its file path on the CLI) in every diagnostic, so a
/// failing 7-shard merge is attributable to the offending file.
CampaignResult merge_shard_reports(const InjectionPlan& plan,
                                   const std::vector<ShardReport>& shards,
                                   const std::vector<std::string>& labels = {});

}  // namespace ep::core
