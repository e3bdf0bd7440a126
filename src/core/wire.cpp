#include "core/wire.hpp"

#include <algorithm>
#include <climits>
#include <utility>

#include "core/catalog.hpp"
#include "core/snapshot.hpp"
#include "core/wire_internal.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace ep::core {

void append_json_site(std::string& out, const os::Site& s) {
  out += "{\"unit\": ";
  append_json_quoted(out, s.unit);
  out += ", \"line\": ";
  out += std::to_string(s.line);
  out += ", \"tag\": ";
  append_json_quoted(out, s.tag);
  out += '}';
}

void append_json_violation(std::string& out, const Violation& v) {
  out += "{\"policy\": ";
  append_json_quoted(out, to_string(v.policy));
  out += ", \"site\": ";
  append_json_site(out, v.site);
  out += ", \"call\": ";
  append_json_quoted(out, v.call);
  out += ", \"object\": ";
  append_json_quoted(out, v.object);
  out += ", \"detail\": ";
  append_json_quoted(out, v.detail);
  out += '}';
}

std::string json_site(const os::Site& s) {
  std::string out;
  append_json_site(out, s);
  return out;
}

std::string json_violation(const Violation& v) {
  std::string out;
  append_json_violation(out, v);
  return out;
}

namespace wire_detail {

FaultRef parse_fault(FaultKind kind, const std::string& name) {
  const FaultCatalog& cat = FaultCatalog::standard();
  FaultRef r;
  r.kind = kind;
  if (kind == FaultKind::indirect) {
    r.indirect = cat.find_indirect(name);
    if (!r.indirect)
      throw WireError("unknown indirect fault '" + name +
                      "' (plan written by a build with a different fault "
                      "catalog?)");
  } else {
    r.direct = cat.find_direct(name);
    if (!r.direct)
      throw WireError("unknown direct fault '" + name +
                      "' (plan written by a build with a different fault "
                      "catalog?)");
  }
  return r;
}

void check_range(const IdRange& owned, std::size_t plan_items) {
  if (owned.stride == 0) throw WireError("stride must be >= 1");
  if (owned.begin > owned.end || owned.end > plan_items)
    throw WireError("range " + owned.str() + " does not fit the plan (" +
                    std::to_string(plan_items) + " items)");
}

void check_completed_id(const ShardReport& report, long long id) {
  if (id < 0 || id >= static_cast<long long>(report.plan_items))
    throw WireError("work-item id " + std::to_string(id) +
                    " out of range (plan has " +
                    std::to_string(report.plan_items) + " items)");
  auto uid = static_cast<std::size_t>(id);
  if (!report.owned.contains(uid))
    throw WireError("work-item id " + std::to_string(id) +
                    " is not owned by this report (ids " +
                    report.owned.str() + ")");
  if (!report.item_ids.empty()) {
    std::size_t prev = report.item_ids.back();
    if (uid == prev)
      throw WireError("duplicate outcome for work item " +
                      std::to_string(id));
    if (uid < prev)
      throw WireError("completed_ids out of order (" + std::to_string(id) +
                      " after " + std::to_string(prev) + ")");
  }
}

void validate_complete_flag(const ShardReport& report) {
  std::size_t owned = report.owned.size();
  bool covered = report.item_ids.size() == owned;
  if (report.complete != covered)
    throw WireError(
        std::string("shard report: ") +
        (report.complete
             ? "'complete' is true but completed_ids covers " +
                   std::to_string(report.item_ids.size()) + " of the " +
                   std::to_string(owned) + " ids this report owns"
             : "'complete' is false but completed_ids covers every id "
               "this report owns"));
}

JsonValue parse_document(const std::string& text, const char* what) {
  try {
    return json_parse(text);
  } catch (const JsonError& e) {
    throw WireError(std::string(what) + " is not valid JSON: " + e.what());
  }
}

void check_header(const JsonValue& doc, const char* expected_kind,
                  const char* what, int version) {
  if (!doc.is_object())
    fail(what, "top-level value must be an object");
  const JsonValue* ver = doc.find("schema_version");
  if (!ver)
    fail(what, "missing 'schema_version' (not a wire-format file?)");
  // Kind before version: each kind has its own version, and a plan
  // handed to merge should say "wrong kind", not "wrong version".
  std::string kind = with_ctx(std::string(what) + ": kind",
                              [&] { return doc.at("kind").as_string(); });
  if (kind != expected_kind)
    fail(what, "kind '" + kind + "' where '" + expected_kind +
                   "' was expected");
  long long v = with_ctx(std::string(what) + ": schema_version",
                         [&] { return ver->as_int(); });
  if (v != version)
    fail(what, "unsupported schema_version " + std::to_string(v) +
                   " (this build reads version " + std::to_string(version) +
                   ")");
}

std::size_t parse_count(const JsonValue& doc, const char* key,
                        const char* what) {
  long long v = with_ctx(std::string(what) + ": " + key,
                         [&] { return doc.at(key).as_int(); });
  if (v < 0) fail(what, std::string(key) + " must be >= 0");
  return static_cast<std::size_t>(v);
}

}  // namespace wire_detail

namespace {

using wire_detail::check_header;
using wire_detail::fail;
using wire_detail::parse_count;
using wire_detail::parse_document;
using wire_detail::with_ctx;

FaultKind fault_kind_from(const std::string& s) {
  for (FaultKind k : {FaultKind::indirect, FaultKind::direct})
    if (to_string(k) == s) return k;
  throw WireError("unknown fault kind '" + s + "'");
}

ObjectKind object_kind_from(const std::string& s) {
  for (ObjectKind k :
       {ObjectKind::file, ObjectKind::directory, ObjectKind::exec_binary,
        ObjectKind::net_inbound, ObjectKind::net_service,
        ObjectKind::ipc_service, ObjectKind::registry_key,
        ObjectKind::user_input, ObjectKind::env_var, ObjectKind::none})
    if (to_string(k) == s) return k;
  throw WireError("unknown object kind '" + s + "'");
}

InputSemantic semantic_from(const std::string& s) {
  for (InputSemantic k :
       {InputSemantic::file_name, InputSemantic::command,
        InputSemantic::path_list, InputSemantic::permission_mask,
        InputSemantic::file_extension, InputSemantic::ip_address,
        InputSemantic::packet, InputSemantic::host_name,
        InputSemantic::dns_reply, InputSemantic::ipc_message})
    if (to_string(k) == s) return k;
  throw WireError("unknown input semantic '" + s + "'");
}

Policy policy_from(const std::string& s) {
  for (Policy p : {Policy::integrity, Policy::confidentiality,
                   Policy::untrusted_exec, Policy::memory_safety,
                   Policy::trust, Policy::authorization,
                   Policy::redzone_corruption})
    if (to_string(p) == s) return p;
  throw WireError("unknown policy '" + s + "'");
}

/// An int-typed wire value: silently wrapping a long long would break
/// both validation ("reject what you cannot represent") and the
/// parse -> re-serialize byte-identity contract.
int parse_int32_value(const JsonValue& v, const std::string& what) {
  long long n = v.as_int();
  if (n < INT_MIN || n > INT_MAX)
    throw WireError(what + " " + std::to_string(n) +
                    " does not fit a 32-bit int");
  return static_cast<int>(n);
}

int parse_int32(const JsonValue& v, const char* key) {
  return parse_int32_value(v.at(key), key);
}

os::Site parse_site(const JsonValue& v) {
  os::Site s;
  s.unit = v.at("unit").as_string();
  s.line = parse_int32(v, "line");
  s.tag = v.at("tag").as_string();
  return s;
}

Violation parse_violation(const JsonValue& v) {
  Violation out;
  out.policy = policy_from(v.at("policy").as_string());
  out.site = parse_site(v.at("site"));
  out.call = v.at("call").as_string();
  out.object = v.at("object").as_string();
  out.detail = v.at("detail").as_string();
  return out;
}

/// The exploit object of the outcome columns.
std::string json_exploit(const Exploitability& e) {
  return std::string("{\"nonroot_feasible\": ") +
         (e.nonroot_feasible ? "true" : "false") +
         ", \"actor\": " + json_quote(e.actor) +
         ", \"note\": " + json_quote(e.note) + "}";
}

/// The columnar run-dependent outcome encoding, the body of a shard
/// report's `outcomes` object: one `"name": [...]` line per column.
std::string outcome_columns_json(
    const std::vector<InjectionOutcome>& outcomes) {
  std::string out;
  const std::size_t n = outcomes.size();
  auto col = [&](const char* name, auto cell, bool last = false) {
    out += "    \"" + std::string(name) + "\": [";
    for (std::size_t i = 0; i < n; ++i)
      out += (i ? ", " : "") + cell(outcomes[i]);
    out += last ? "]\n" : "],\n";
  };
  col("fired", [](const InjectionOutcome& o) {
    return std::string(o.fired ? "true" : "false");
  });
  col("crashed", [](const InjectionOutcome& o) {
    return std::string(o.crashed ? "true" : "false");
  });
  col("overflows",
      [](const InjectionOutcome& o) { return std::to_string(o.overflows); });
  col("exit_code",
      [](const InjectionOutcome& o) { return std::to_string(o.exit_code); });
  col("violations", [](const InjectionOutcome& o) {
    std::string cell = "[";
    for (std::size_t v = 0; v < o.violations.size(); ++v)
      cell += std::string(v ? ", " : "") + json_violation(o.violations[v]);
    return cell + "]";
  });
  col("exploit",
      [](const InjectionOutcome& o) {
        return o.violated ? json_exploit(o.exploit) : std::string("null");
      },
      /*last=*/true);
  return out;
}

/// The inverse: decode an `outcomes` column object into `n` outcomes.
std::vector<InjectionOutcome> outcomes_from_columns(const JsonValue& cols,
                                                    std::size_t n) {
  const std::string ctx = "shard report";
  auto column = [&](const char* name) -> const std::vector<JsonValue>& {
    const auto& items =
        with_ctx(ctx + ": outcomes." + std::string(name),
                 [&]() -> decltype(auto) { return cols.at(name).items(); });
    if (items.size() != n)
      fail(ctx, "outcomes." + std::string(name) + " has " +
                    std::to_string(items.size()) + " entries for " +
                    std::to_string(n) + " completed ids");
    return items;
  };
  const auto& fired = column("fired");
  const auto& crashed = column("crashed");
  const auto& overflows = column("overflows");
  const auto& exit_code = column("exit_code");
  const auto& violations = column("violations");
  const auto& exploit = column("exploit");

  std::vector<InjectionOutcome> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string where = ctx + ": outcomes[" + std::to_string(i) + "]";
    with_ctx(where, [&] {
      InjectionOutcome o;
      o.fired = fired[i].as_bool();
      o.crashed = crashed[i].as_bool();
      o.overflows = parse_int32_value(overflows[i], "overflows");
      o.exit_code = parse_int32_value(exit_code[i], "exit_code");
      for (const JsonValue& viol : violations[i].items())
        o.violations.push_back(parse_violation(viol));
      o.violated = !o.violations.empty();
      // Canonical form: the exploit analysis exists exactly for violated
      // outcomes, so null-vs-object must agree with the violations column
      // or parse -> re-serialize would not reproduce the bytes.
      if (exploit[i].is_null()) {
        if (o.violated)
          throw WireError("exploit is null for a violated outcome");
      } else {
        if (!o.violated)
          throw WireError("exploit present for an outcome with no "
                          "violations");
        const JsonValue& e = exploit[i];
        o.exploit.nonroot_feasible = e.at("nonroot_feasible").as_bool();
        o.exploit.actor = e.at("actor").as_string();
        o.exploit.note = e.at("note").as_string();
      }
      out.push_back(std::move(o));
    });
  }
  return out;
}

/// `completed_ids` plus one column array per run-dependent field. The
/// plan-derivable fields (site, call, object, fault, ...) are not on the
/// wire — merge_shard_reports re-derives them by id.
void parse_shard_outcomes(const JsonValue& doc, ShardReport& report) {
  const auto& ids =
      with_ctx("shard report: completed_ids", [&]() -> decltype(auto) {
        return doc.at("completed_ids").items();
      });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    with_ctx("shard report: completed_ids[" + std::to_string(i) + "]", [&] {
      long long id = ids[i].as_int();
      wire_detail::check_completed_id(report, id);
      report.item_ids.push_back(static_cast<std::size_t>(id));
    });
  }

  const JsonValue& cols = with_ctx(
      "shard report: outcomes",
      [&]() -> decltype(auto) { return doc.at("outcomes"); });
  if (!cols.is_object())
    fail("shard report", "outcomes must be an object of column arrays");
  report.outcomes = outcomes_from_columns(cols, report.item_ids.size());
}

}  // namespace

InjectionPlan plan_from_json(const std::string& text) {
  return wire_detail::plan_from_value(parse_document(text, "plan"));
}

InjectionPlan wire_detail::plan_from_value(const JsonValue& doc) {
  check_header(doc, "injection-plan", "plan", kPlanSchemaVersion);

  InjectionPlan plan;
  plan.scenario_name =
      with_ctx("plan: scenario", [&] { return doc.at("scenario").as_string(); });
  if (plan.scenario_name.empty()) fail("plan", "scenario name is empty");

  const auto& points = with_ctx("plan: points", [&]() -> decltype(auto) {
    return doc.at("points").items();
  });
  for (std::size_t i = 0; i < points.size(); ++i) {
    with_ctx("plan: points[" + std::to_string(i) + "]", [&] {
      const JsonValue& p = points[i];
      InteractionPoint point;
      point.site = parse_site(p.at("site"));
      point.call = p.at("call").as_string();
      point.object = p.at("object").as_string();
      point.kind = object_kind_from(p.at("kind").as_string());
      point.semantic = semantic_from(p.at("semantic").as_string());
      point.channel_kind = p.at("channel").as_string();
      point.has_input = p.at("has_input").as_bool();
      point.hits = parse_int32(p, "hits");
      plan.points.push_back(std::move(point));
    });
  }

  const auto& benign =
      with_ctx("plan: benign_violations", [&]() -> decltype(auto) {
        return doc.at("benign_violations").items();
      });
  for (std::size_t i = 0; i < benign.size(); ++i) {
    with_ctx("plan: benign_violations[" + std::to_string(i) + "]",
             [&] { plan.benign_violations.push_back(parse_violation(benign[i])); });
  }

  const auto& perturbed =
      with_ctx("plan: perturbed_sites", [&]() -> decltype(auto) {
        return doc.at("perturbed_sites").items();
      });
  for (std::size_t i = 0; i < perturbed.size(); ++i) {
    with_ctx("plan: perturbed_sites[" + std::to_string(i) + "]", [&] {
      plan.perturbed_site_tags.insert(perturbed[i].as_string());
    });
  }

  const auto& items = with_ctx("plan: items", [&]() -> decltype(auto) {
    return doc.at("items").items();
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::string where = "plan: items[" + std::to_string(i) + "]";
    with_ctx(where, [&] {
      const JsonValue& w = items[i];
      long long id = w.at("id").as_int();
      if (id != static_cast<long long>(i))
        throw WireError("stable id " + std::to_string(id) +
                        " out of order (expected " + std::to_string(i) + ")");
      long long point = w.at("point").as_int();
      if (point < 0 || point >= static_cast<long long>(plan.points.size()))
        throw WireError("point index " + std::to_string(point) +
                        " out of range (plan has " +
                        std::to_string(plan.points.size()) + " points)");
      const std::string& tag =
          plan.points[static_cast<std::size_t>(point)].site.tag;
      std::string site = w.at("site").as_string();
      if (site != tag)
        throw WireError("site '" + site + "' does not match point " +
                        std::to_string(point) + "'s site '" + tag + "'");
      FaultKind kind = fault_kind_from(w.at("kind").as_string());
      WorkItem item{static_cast<std::size_t>(point),
                    wire_detail::parse_fault(kind, w.at("fault").as_string())};
      // Optional perturbation parameter (search-generated items only);
      // absent means 0, and the serializer omits 0, so exhaustive plans
      // round-trip byte-identically.
      if (const JsonValue* param = w.find("param")) {
        long long v = param->as_int();
        if (v <= 0)
          throw WireError("param " + std::to_string(v) +
                          " must be a positive integer when present");
        item.param = static_cast<std::uint64_t>(v);
      }
      plan.items.push_back(item);
    });
  }
  return plan;
}

void refreeze_snapshot(InjectionPlan& plan, const Scenario& scenario) {
  if (scenario.snapshot_safe && !plan.items.empty() && !plan.snapshot)
    plan.snapshot = WorldSnapshot::freeze(scenario.build());
}

std::size_t IdRange::size() const {
  return begin < end ? (end - begin - 1) / stride + 1 : 0;
}

bool IdRange::contains(std::size_t id) const {
  return id >= begin && id < end && (id - begin) % stride == 0;
}

std::string IdRange::str() const {
  std::string out =
      "[" + std::to_string(begin) + ", " + std::to_string(end) + ")";
  if (stride != 1) out += " stride " + std::to_string(stride);
  return out;
}

IdRange static_shard(std::size_t plan_items, std::size_t index,
                     std::size_t count) {
  if (index >= count)
    throw WireError("shard index " + std::to_string(index + 1) +
                    " out of range for " + std::to_string(count) +
                    " shards");
  return {std::min(index, plan_items), plan_items, count};
}

std::string ShardReport::to_json() const {
  // `completed_ids` names the ids this file actually holds (the resume
  // key), and each outcome field is one array.
  std::string out = "{\n";
  out += "  \"schema_version\": " + std::to_string(kShardSchemaVersion) +
         ",\n";
  out += "  \"kind\": \"shard-report\",\n";
  out += "  \"scenario\": " + json_quote(scenario_name) + ",\n";
  out += "  \"plan_items\": " + std::to_string(plan_items) + ",\n";
  out += "  \"begin\": " + std::to_string(owned.begin) + ",\n";
  out += "  \"end\": " + std::to_string(owned.end) + ",\n";
  out += "  \"stride\": " + std::to_string(owned.stride) + ",\n";
  out += std::string("  \"complete\": ") + (complete ? "true" : "false") +
         ",\n";
  out += "  \"completed_ids\": [";
  for (std::size_t i = 0; i < item_ids.size(); ++i)
    out += (i ? ", " : "") + std::to_string(item_ids[i]);
  out += "],\n";

  out += "  \"outcomes\": {\n";
  out += outcome_columns_json(outcomes);
  out += "  }\n}\n";
  return out;
}

ShardReport shard_report_from_json(const std::string& text) {
  return wire_detail::shard_report_from_value(
      parse_document(text, "shard report"));
}

ShardReport wire_detail::shard_report_from_value(const JsonValue& doc) {
  check_header(doc, "shard-report", "shard report", kShardSchemaVersion);
  ShardReport report;
  report.scenario_name = with_ctx(
      "shard report: scenario", [&] { return doc.at("scenario").as_string(); });
  if (report.scenario_name.empty())
    fail("shard report", "scenario name is empty");
  report.plan_items = parse_count(doc, "plan_items", "shard report");
  report.owned.begin = parse_count(doc, "begin", "shard report");
  report.owned.end = parse_count(doc, "end", "shard report");
  report.owned.stride = parse_count(doc, "stride", "shard report");
  with_ctx("shard report", [&] {
    wire_detail::check_range(report.owned, report.plan_items);
  });
  report.complete = with_ctx("shard report: complete",
                             [&] { return doc.at("complete").as_bool(); });
  parse_shard_outcomes(doc, report);
  wire_detail::validate_complete_flag(report);
  return report;
}

namespace {

/// The drain behind run_lease and resume_shard: execute the ids
/// `header.owned` names that are not already in (done_ids,
/// done_outcomes), optionally flushing a valid partial report after every
/// checkpoint chunk, and assemble the combined report ascending by id.
/// Preemption (hooks.interrupted) stops between chunks and yields
/// complete == false. Callers have checked the range against the plan,
/// so the todo list is bounded by the real item count.
ShardReport drain_range(const Executor& executor, const InjectionPlan& plan,
                        const ShardReport& header,
                        const std::vector<std::size_t>& done_ids,
                        const std::vector<InjectionOutcome>& done_outcomes,
                        const ExecutorOptions& opts,
                        const ShardDrainHooks& hooks) {
  const IdRange& owned = header.owned;
  const std::size_t owned_count = owned.size();
  std::vector<std::size_t> todo;  // owned minus done, ascending
  todo.reserve(owned_count - done_ids.size());
  {
    std::size_t d = 0;
    for (std::size_t k = 0; k < owned_count; ++k) {
      std::size_t id = owned.begin + k * owned.stride;
      while (d < done_ids.size() && done_ids[d] < id) ++d;
      if (d < done_ids.size() && done_ids[d] == id) continue;
      todo.push_back(id);
    }
  }

  // Merge the prior outcomes and the drained prefix ascending by id —
  // the serialized bytes must match an uninterrupted run no matter where
  // (or whether) the drain was cut.
  auto assemble = [&](const std::vector<InjectionOutcome>& drained) {
    ShardReport r = header;
    r.item_ids.reserve(done_ids.size() + drained.size());
    r.outcomes.reserve(done_ids.size() + drained.size());
    std::size_t a = 0, b = 0;
    while (a < done_ids.size() || b < drained.size()) {
      if (b >= drained.size() ||
          (a < done_ids.size() && done_ids[a] < todo[b])) {
        r.item_ids.push_back(done_ids[a]);
        r.outcomes.push_back(done_outcomes[a]);
        ++a;
      } else {
        r.item_ids.push_back(todo[b]);
        r.outcomes.push_back(drained[b]);
        ++b;
      }
    }
    r.complete = r.item_ids.size() == owned_count;
    return r;
  };

  std::function<void(const std::vector<InjectionOutcome>&)> flush;
  if (hooks.on_checkpoint)
    flush = [&](const std::vector<InjectionOutcome>& prefix) {
      hooks.on_checkpoint(assemble(prefix));
    };
  return assemble(executor.execute_subset_checkpointed(
      plan, todo, hooks.checkpoint_every, flush, hooks.interrupted, opts));
}

/// Hold an in-memory report (resume, merge) to the invariants its wire
/// decoders enforce: the range fits the report's plan, and item_ids are
/// owned, ascending and unique.
void check_in_memory_ids(const ShardReport& report) {
  wire_detail::check_range(report.owned, report.plan_items);
  ShardReport seen;
  seen.plan_items = report.plan_items;
  seen.owned = report.owned;
  seen.item_ids.reserve(report.item_ids.size());
  for (std::size_t id : report.item_ids) {
    wire_detail::check_completed_id(seen, static_cast<long long>(id));
    seen.item_ids.push_back(id);
  }
}

}  // namespace

ShardReport run_lease(const Executor& executor, const InjectionPlan& plan,
                      const IdRange& owned, const ExecutorOptions& opts,
                      const ShardDrainHooks& hooks) {
  wire_detail::check_range(owned, plan.items.size());
  ShardReport header;
  header.scenario_name = plan.scenario_name;
  header.plan_items = plan.items.size();
  header.owned = owned;
  return drain_range(executor, plan, header, {}, {}, opts, hooks);
}

ShardReport resume_shard(const Executor& executor, const InjectionPlan& plan,
                         const ShardReport& partial,
                         const ExecutorOptions& opts,
                         const ShardDrainHooks& hooks) {
  // The parser already held wire files to the report-level invariants;
  // re-check here so in-memory callers get the same guarantees, plus the
  // plan-level matches only resume can check.
  if (partial.scenario_name != plan.scenario_name)
    throw WireError("resume: report's scenario '" + partial.scenario_name +
                    "' does not match the plan's '" + plan.scenario_name +
                    "'");
  if (partial.plan_items != plan.items.size())
    throw WireError("resume: report written against a plan with " +
                    std::to_string(partial.plan_items) +
                    " work items; this plan has " +
                    std::to_string(plan.items.size()));
  if (partial.item_ids.size() != partial.outcomes.size())
    throw WireError("resume: item id / outcome count mismatch");
  try {
    check_in_memory_ids(partial);
  } catch (const WireError& e) {
    throw WireError(std::string("resume: ") + e.what());
  }
  ShardReport header;
  header.scenario_name = plan.scenario_name;
  header.plan_items = partial.plan_items;
  header.owned = partial.owned;
  return drain_range(executor, plan, header, partial.item_ids,
                     partial.outcomes, opts, hooks);
}

CampaignResult merge_shard_reports(const InjectionPlan& plan,
                                   std::vector<ShardReport> shards,
                                   const std::vector<std::string>& labels) {
  if (shards.empty()) throw WireError("merge: no shard reports given");
  if (!labels.empty() && labels.size() != shards.size())
    throw WireError("merge: got " + std::to_string(shards.size()) +
                    " shard report(s) but " + std::to_string(labels.size()) +
                    " label(s)");
  const std::size_t n = plan.items.size();

  // Attribute every diagnostic to its source file when the caller named
  // one — a range alone does not say which of seven paths to fix.
  auto who_of = [&](std::size_t si) {
    std::string who = "report " + shards[si].owned.str();
    if (si < labels.size() && !labels[si].empty())
      who += " (" + labels[si] + ")";
    return who;
  };

  CampaignResult result = result_skeleton(plan);

  // The one rule: every plan id belongs to exactly one complete report.
  // owner_of is sized by the plan we were handed, never by a report's
  // header, and each report's range is checked against it first.
  constexpr std::size_t kUnowned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> owner_of(n, kUnowned);

  for (std::size_t si = 0; si < shards.size(); ++si) {
    ShardReport& s = shards[si];
    std::string who = who_of(si);
    if (s.scenario_name != plan.scenario_name)
      throw WireError(who + ": scenario '" + s.scenario_name +
                      "' does not match the plan's '" + plan.scenario_name +
                      "'");
    if (s.plan_items != n)
      throw WireError(who + ": written against a plan with " +
                      std::to_string(s.plan_items) +
                      " work items; this plan has " + std::to_string(n));
    if (s.item_ids.size() != s.outcomes.size())
      throw WireError(who + ": item id / outcome count mismatch");
    try {
      check_in_memory_ids(s);
    } catch (const WireError& e) {
      throw WireError(who + ": " + e.what());
    }

    // Claim the owned ids, rejecting overlap as it appears — so all the
    // walks together stop by the plan's n + 1st claim.
    const std::size_t owned_count = s.owned.size();
    std::size_t next_done = 0;
    for (std::size_t k = 0; k < owned_count; ++k) {
      std::size_t id = s.owned.begin + k * s.owned.stride;
      if (owner_of[id] != kUnowned)
        throw WireError("work item " + std::to_string(id) +
                        " is leased to both " + who_of(owner_of[id]) +
                        " and " + who);
      owner_of[id] = si;
      if (next_done < s.item_ids.size() && s.item_ids[next_done] == id) {
        ++next_done;
      } else {
        throw WireError("work item " + std::to_string(id) +
                        " has no outcome — " + who +
                        " is a partial lease report (" +
                        std::to_string(s.item_ids.size()) + " of " +
                        std::to_string(owned_count) +
                        " owned ids completed; complete it with run-shard "
                        "--resume)");
      }
    }

    // An outcome is plan-relative: its names are the plan's item at its
    // id, so it moves into that slot as it is.
    for (std::size_t i = 0; i < s.item_ids.size(); ++i)
      result.injections[s.item_ids[i]] = std::move(s.outcomes[i]);
  }

  // Every report is complete and the owned ranges are disjoint; only
  // coverage can still fail.
  for (std::size_t id = 0; id < n; ++id)
    if (owner_of[id] == kUnowned)
      throw WireError("work item " + std::to_string(id) +
                      " is not covered by any lease (the lease set does "
                      "not add back up to the plan)");
  return result;
}

}  // namespace ep::core
