// Validation helpers shared by the JSON (wire.cpp) and binary
// (wire_binary.cpp) codecs. Both decoders must enforce the same
// invariants with the same diagnostics — a truncated lease is the same
// bug whichever framing carried it — so the checks live here once
// instead of drifting apart in two anonymous namespaces.
#pragma once

#include <cstddef>
#include <string>

#include "core/catalog.hpp"
#include "core/wire.hpp"
#include "util/json.hpp"

namespace ep::core::wire_detail {

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

/// The columnar run-dependent outcome encoding (the shard report's
/// `outcomes` object body), shared by ShardReport::to_json and the
/// search-state document: one `indent`-prefixed `"name": [...]` line per
/// column, comma-separated, trailing newline after the last.
std::string outcome_columns_json(const std::vector<InjectionOutcome>& outcomes,
                                 const std::string& indent);

/// The inverse: decode an `outcomes` column object into `n` outcomes.
/// `ctx` names the enclosing document ("shard report", "search state")
/// in every diagnostic. Throws WireError on missing columns, length
/// mismatches, or a null/object exploit cell disagreeing with the
/// violations column.
std::vector<InjectionOutcome> outcomes_from_columns(const JsonValue& cols,
                                                    std::size_t n,
                                                    const std::string& ctx);

}  // namespace ep::core::wire_detail
