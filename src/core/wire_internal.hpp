// Validation helpers shared by the JSON (wire.cpp) and binary
// (wire_binary.cpp) codecs and the search-state reader (search.cpp).
// Every decoder must enforce the same invariants with the same
// diagnostics — a truncated lease is the same bug whichever framing
// carried it — so the checks live here once instead of drifting apart
// in several anonymous namespaces.
#pragma once

#include <cstddef>
#include <string>

#include "core/catalog.hpp"
#include "core/wire.hpp"
#include "util/json.hpp"

namespace ep::core::wire_detail {

/// Run `f`, prefixing any failure — JSON access or wire validation —
/// with where in the document it happened, so "missing key 'call'"
/// becomes "plan: points[3]: missing key 'call'" and "unknown direct
/// fault 'x'" names the item that referenced it.
template <typename F>
auto with_ctx(const std::string& where, F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const std::exception& e) {
    throw WireError(where + ": " + e.what());
  }
}

[[noreturn]] inline void fail(const std::string& where,
                              const std::string& msg) {
  throw WireError(where + ": " + msg);
}

/// Parse a wire document; a syntax error names `what` and the line and
/// column.
JsonValue parse_document(const std::string& text, const char* what);

/// Shared header validation: wire files self-describe with
/// schema_version + kind so a plan handed to merge (or vice versa) fails
/// with "kind 'injection-plan' where 'shard-report' was expected", not a
/// missing-field puzzle. Each kind has exactly one version this build
/// reads — the one it writes.
void check_header(const JsonValue& doc, const char* expected_kind,
                  const char* what, int version);

/// A non-negative integer field of `doc`, named with `what` on failure.
std::size_t parse_count(const JsonValue& doc, const char* key,
                        const char* what);

/// The readers behind plan_from_json and shard_report_from_json, over an
/// already-parsed document — how a search state reads the plan and the
/// report it embeds.
InjectionPlan plan_from_value(const JsonValue& doc);
ShardReport shard_report_from_value(const JsonValue& doc);

/// Resolve a (kind, name) fault reference against this build's catalog.
/// Throws WireError naming the fault when the catalog does not know it.
FaultRef parse_fault(FaultKind kind, const std::string& name);

/// Hold an owned range to the plan it claims: stride >= 1 and
/// begin <= end <= plan_items. Arithmetic only — the range is untrusted
/// wire input and must never size an allocation.
void check_range(const IdRange& owned, std::size_t plan_items);

/// Validate one completed id against the report header and the ids seen
/// so far (report.item_ids): inside the plan, owned by the report, and
/// strictly after the previous id (the canonical ascending order).
void check_completed_id(const ShardReport& report, long long id);

/// The shared tail of every shard-report decode: `complete` is derived
/// state (the ids are each owned and unique, so coverage is a count
/// comparison), and a flag on the wire that disagrees is a corrupt file.
void validate_complete_flag(const ShardReport& report);

}  // namespace ep::core::wire_detail
