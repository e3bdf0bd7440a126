// The binary wire encoding (docs/WIRE_FORMAT.md, "Binary encoding"):
// the non-JSON framing of InjectionPlan and ShardReport behind the
// plan_from_json / shard_report_from_json seam.
//
// Framing: a 24-byte header (magic, byte-order tag, version, kind,
// declared total size, section count) followed by a section table of
// (tag, offset, length) triples and the packed section payloads. The
// decoder trusts nothing: magic, byte order, version, and kind are
// checked before any payload is touched; the declared total must equal
// the bytes provided (truncation); every section must lie inside the
// buffer past the table and no two sections may overlap; fixed-width
// outcome columns must hold exactly one entry per completed id. Unknown
// section tags are skipped, mirroring the JSON side's ignored unknown
// keys. All semantic validation (id ownership, ordering, the complete
// flag, fault-catalog resolution) is shared with the JSON parsers via
// core/wire_internal.hpp, so both codecs reject the same corruption
// with the same messages.
//
// Like the JSON side, the encoding is canonical: sections are written
// in fixed tag order with no padding, so decode -> re-encode reproduces
// the bytes verbatim — what lets docs/WIRE_FORMAT.md pin a hex example
// literally.
//
// Numbers are native-endian (a fleet is one architecture in practice);
// the header's byte-order tag turns a foreign-endian file into a clean
// WireError instead of garbage. Enum
// values travel as ordinals into fixed tables that mirror the JSON
// codec's name lists — independent of the C++ enum values, so a
// reordered enum cannot silently change the wire format.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/catalog.hpp"
#include "core/wire.hpp"
#include "core/wire_internal.hpp"

namespace ep::core {

namespace {

constexpr char kMagic[4] = {'E', 'P', 'A', 'B'};
constexpr std::uint32_t kEndianTag = 0x0A0B0C0D;
constexpr std::uint16_t kKindPlan = 1;
constexpr std::uint16_t kKindShardReport = 2;
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kSectionEntryBytes = 24;  // tag, reserved, off, len

// Plan section tags.
constexpr std::uint32_t kPlanMeta = 1;
constexpr std::uint32_t kPlanPoints = 2;
constexpr std::uint32_t kPlanBenign = 3;
constexpr std::uint32_t kPlanPerturbed = 4;
constexpr std::uint32_t kPlanItems = 5;
// Optional: one u64 perturbation parameter per item. Written only when
// some item carries a nonzero param (search-generated plans), so
// exhaustive plans carry no empty column.
constexpr std::uint32_t kPlanParams = 6;

// Shard-report section tags. Tag 2 stays unused: version-2 frames kept
// a lease's id list there, and a reused tag would misread them.
constexpr std::uint32_t kRepMeta = 1;
constexpr std::uint32_t kRepCompleted = 3;
constexpr std::uint32_t kRepFired = 4;
constexpr std::uint32_t kRepCrashed = 5;
constexpr std::uint32_t kRepOverflows = 6;
constexpr std::uint32_t kRepExitCode = 7;
constexpr std::uint32_t kRepViolations = 8;
constexpr std::uint32_t kRepExploit = 9;

[[noreturn]] void fail(const std::string& where, const std::string& msg) {
  throw WireError(where + ": " + msg);
}

// The wire ordinal tables. Order mirrors the JSON codec's name lists
// (wire.cpp's *_from functions) and is part of the format: reordering
// an entry changes what a frame means, so only append.
constexpr FaultKind kFaultKinds[] = {FaultKind::indirect, FaultKind::direct};
constexpr ObjectKind kObjectKinds[] = {
    ObjectKind::file,        ObjectKind::directory,
    ObjectKind::exec_binary, ObjectKind::net_inbound,
    ObjectKind::net_service, ObjectKind::ipc_service,
    ObjectKind::registry_key, ObjectKind::user_input,
    ObjectKind::env_var,     ObjectKind::none};
constexpr InputSemantic kSemantics[] = {
    InputSemantic::file_name,      InputSemantic::command,
    InputSemantic::path_list,      InputSemantic::permission_mask,
    InputSemantic::file_extension, InputSemantic::ip_address,
    InputSemantic::packet,         InputSemantic::host_name,
    InputSemantic::dns_reply,      InputSemantic::ipc_message};
constexpr Policy kPolicies[] = {Policy::integrity, Policy::confidentiality,
                                Policy::untrusted_exec, Policy::memory_safety,
                                Policy::trust, Policy::authorization,
                                Policy::redzone_corruption};

template <typename E, std::size_t N>
std::uint8_t ordinal_of(const E (&table)[N], E v, const char* what) {
  for (std::size_t i = 0; i < N; ++i)
    if (table[i] == v) return static_cast<std::uint8_t>(i);
  throw WireError(std::string("cannot encode out-of-range ") + what);
}

template <typename E, std::size_t N>
E from_ordinal(const E (&table)[N], unsigned v, const char* what) {
  if (v >= N)
    throw WireError("unknown " + std::string(what) + " ordinal " +
                    std::to_string(v));
  return table[v];
}

// --- encoding ---------------------------------------------------------------

struct Writer {
  std::string out;
  void raw(const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  }
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    if (s.size() > UINT32_MAX)
      throw WireError("string too large for the binary wire format");
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void site(const os::Site& s) {
    str(s.unit);
    i32(s.line);
    str(s.tag);
  }
  void violation(const Violation& v) {
    u8(ordinal_of(kPolicies, v.policy, "policy"));
    site(v.site);
    str(v.call);
    str(v.object);
    str(v.detail);
  }
};

std::string assemble(
    std::uint16_t kind_code,
    const std::vector<std::pair<std::uint32_t, std::string>>& sections) {
  Writer w;
  w.raw(kMagic, sizeof kMagic);
  w.u32(kEndianTag);
  w.u16(static_cast<std::uint16_t>(kBinaryWireVersion));
  w.u16(kind_code);
  std::uint64_t offset =
      kHeaderBytes + sections.size() * kSectionEntryBytes;
  std::uint64_t total = offset;
  for (const auto& s : sections) total += s.second.size();
  w.u64(total);
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    w.u32(s.first);
    w.u32(0);  // reserved
    w.u64(offset);
    w.u64(s.second.size());
    offset += s.second.size();
  }
  for (const auto& s : sections) w.raw(s.second.data(), s.second.size());
  return w.out;
}

// --- decoding ---------------------------------------------------------------

/// A bounds-checked reader over one section's byte range. All numeric
/// reads go through memcpy: section payloads are packed with no
/// alignment guarantees.
class Cursor {
 public:
  Cursor(const std::uint8_t* p, std::size_t n, std::string what)
      : p_(p), n_(n), what_(std::move(what)) {}

  template <typename T>
  T num() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, p_ + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }
  std::uint8_t boolean(const char* field) {
    std::uint8_t v = num<std::uint8_t>();
    if (v > 1)
      fail(what_, std::string(field) + " has boolean byte " +
                      std::to_string(v) + " (expected 0 or 1)");
    return v;
  }
  std::string str() {
    std::uint32_t len = num<std::uint32_t>();
    need(len);
    std::string s(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return s;
  }
  os::Site site() {
    os::Site s;
    s.unit = str();
    s.line = num<std::int32_t>();
    s.tag = str();
    return s;
  }
  Violation violation() {
    Violation v;
    v.policy = from_ordinal(kPolicies, num<std::uint8_t>(), "policy");
    v.site = site();
    v.call = str();
    v.object = str();
    v.detail = str();
    return v;
  }
  std::size_t remaining() const { return n_ - off_; }
  /// Every section must be consumed exactly: trailing bytes mean the
  /// writer and reader disagree about the format.
  void finish() const {
    if (off_ != n_)
      fail(what_, "has " + std::to_string(n_ - off_) + " trailing byte(s)");
  }

 private:
  void need(std::size_t n) {
    if (n_ - off_ < n) fail(what_, "is truncated");
  }
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
  std::string what_;
};

struct Section {
  std::uint32_t tag = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

struct Header {
  std::vector<Section> sections;
};

std::uint32_t bswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
         (v << 24);
}

const char* kind_name(std::uint16_t code) {
  return code == kKindPlan ? "injection-plan" : "shard-report";
}

/// Validate everything the frame itself can prove: magic, byte order,
/// version, kind, declared size, and a section table whose entries are
/// in range and pairwise disjoint.
Header decode_header(const std::uint8_t* p, std::size_t size,
                     std::uint16_t expected_kind, const char* what) {
  if (size < kHeaderBytes)
    fail(what, "truncated header (got " + std::to_string(size) +
                   " bytes, need at least " +
                   std::to_string(kHeaderBytes) + ")");
  if (std::memcmp(p, kMagic, sizeof kMagic) != 0)
    fail(what, "not a binary wire file (bad magic)");
  auto rd32 = [&](std::size_t off) {
    std::uint32_t v;
    std::memcpy(&v, p + off, sizeof v);
    return v;
  };
  auto rd16 = [&](std::size_t off) {
    std::uint16_t v;
    std::memcpy(&v, p + off, sizeof v);
    return v;
  };
  std::uint32_t tag = rd32(4);
  if (tag != kEndianTag) {
    if (bswap32(tag) == kEndianTag)
      fail(what,
           "written with foreign endianness (byte-order tag is "
           "byte-swapped)");
    fail(what, "corrupt byte-order tag");
  }
  std::uint16_t version = rd16(8);
  if (version != kBinaryWireVersion)
    fail(what, "unsupported binary wire version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(kBinaryWireVersion) + ")");
  std::uint16_t kind = rd16(10);
  if (kind != kKindPlan && kind != kKindShardReport)
    fail(what, "unknown kind code " + std::to_string(kind));
  if (kind != expected_kind)
    fail(what, std::string("kind '") + kind_name(kind) + "' where '" +
                   kind_name(expected_kind) + "' was expected");
  std::uint64_t total;
  std::memcpy(&total, p + 12, sizeof total);
  if (total != size)
    fail(what, "declares " + std::to_string(total) + " bytes but " +
                   std::to_string(size) + " were provided (truncated?)");
  std::uint32_t count = rd32(20);
  // A hard cap well above any real file: the table must never size an
  // allocation from an untrusted count alone.
  if (count > 1024) fail(what, "implausible section count");
  std::size_t table_end =
      kHeaderBytes + static_cast<std::size_t>(count) * kSectionEntryBytes;
  if (table_end > size) fail(what, "truncated section table");

  Header h;
  h.sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::size_t at = kHeaderBytes + i * kSectionEntryBytes;
    Section s;
    s.tag = rd32(at);
    std::memcpy(&s.offset, p + at + 8, sizeof s.offset);
    std::memcpy(&s.length, p + at + 16, sizeof s.length);
    if (s.offset < table_end || s.offset > size ||
        s.length > size - s.offset)
      fail(what, "section tag " + std::to_string(s.tag) + " [" +
                     std::to_string(s.offset) + ", +" +
                     std::to_string(s.length) + ") out of range");
    h.sections.push_back(s);
  }
  std::vector<Section> by_offset = h.sections;
  std::sort(by_offset.begin(), by_offset.end(),
            [](const Section& a, const Section& b) {
              return a.offset < b.offset;
            });
  for (std::size_t i = 1; i < by_offset.size(); ++i) {
    const Section& a = by_offset[i - 1];
    const Section& b = by_offset[i];
    if (a.offset + a.length > b.offset)
      fail(what, "sections overlap (tag " + std::to_string(a.tag) +
                     " and tag " + std::to_string(b.tag) + ")");
  }
  return h;
}

const Section* find_section(const Header& h, std::uint32_t tag) {
  // Unknown tags are simply never looked up — the forward-compat rule,
  // matching the JSON side's ignored unknown keys.
  for (const Section& s : h.sections)
    if (s.tag == tag) return &s;
  return nullptr;
}

Cursor section_cursor(const std::uint8_t* p, const Header& h,
                      std::uint32_t tag, const char* what,
                      const char* name) {
  const Section* s = find_section(h, tag);
  if (!s) fail(what, std::string("missing section '") + name + "'");
  return Cursor(p + s->offset, static_cast<std::size_t>(s->length),
                std::string(what) + ": section '" + name + "'");
}

/// A fixed-width column section: exactly one `elem`-byte entry per
/// completed id, mirroring the JSON column helper's length check.
Cursor column_cursor(const std::uint8_t* p, const Header& h,
                     std::uint32_t tag, const char* name, std::size_t elem,
                     std::size_t n) {
  const Section* s = find_section(h, tag);
  if (!s)
    fail("shard report", std::string("missing section '") + name + "'");
  if (s->length % elem != 0)
    fail("shard report", "outcomes." + std::string(name) +
                             " section length " + std::to_string(s->length) +
                             " is not a multiple of " + std::to_string(elem));
  if (s->length / elem != n)
    fail("shard report", "outcomes." + std::string(name) + " has " +
                             std::to_string(s->length / elem) +
                             " entries for " + std::to_string(n) +
                             " completed ids");
  return Cursor(p + s->offset, static_cast<std::size_t>(s->length),
                "shard report: section '" + std::string(name) + "'");
}

}  // namespace

bool looks_like_binary_wire(const void* data, std::size_t size) {
  return size >= sizeof kMagic &&
         std::memcmp(data, kMagic, sizeof kMagic) == 0;
}

bool looks_like_binary_wire(const std::string& text) {
  return looks_like_binary_wire(text.data(), text.size());
}

std::string plan_to_binary(const InjectionPlan& plan) {
  std::vector<std::pair<std::uint32_t, std::string>> sections;

  Writer meta;
  meta.str(plan.scenario_name);
  sections.emplace_back(kPlanMeta, std::move(meta.out));

  Writer points;
  points.u32(static_cast<std::uint32_t>(plan.points.size()));
  for (const InteractionPoint& p : plan.points) {
    points.site(p.site);
    points.str(p.call);
    points.str(p.object);
    points.u8(ordinal_of(kObjectKinds, p.kind, "object kind"));
    points.u8(ordinal_of(kSemantics, p.semantic, "input semantic"));
    points.str(p.channel_kind);
    points.u8(p.has_input ? 1 : 0);
    points.i32(p.hits);
  }
  sections.emplace_back(kPlanPoints, std::move(points.out));

  Writer benign;
  benign.u32(static_cast<std::uint32_t>(plan.benign_violations.size()));
  for (const Violation& v : plan.benign_violations) benign.violation(v);
  sections.emplace_back(kPlanBenign, std::move(benign.out));

  Writer perturbed;
  perturbed.u32(static_cast<std::uint32_t>(plan.perturbed_site_tags.size()));
  for (const std::string& tag : plan.perturbed_site_tags)
    perturbed.str(tag);  // std::set: already in sorted, canonical order
  sections.emplace_back(kPlanPerturbed, std::move(perturbed.out));

  Writer items;
  items.u32(static_cast<std::uint32_t>(plan.items.size()));
  bool any_param = false;
  for (const WorkItem& w : plan.items) {
    items.u32(static_cast<std::uint32_t>(w.point_index));
    items.u8(ordinal_of(kFaultKinds, w.fault.kind, "fault kind"));
    items.str(w.fault.name());
    if (w.param != 0) any_param = true;
  }
  sections.emplace_back(kPlanItems, std::move(items.out));

  if (any_param) {
    Writer params;
    for (const WorkItem& w : plan.items) params.u64(w.param);
    sections.emplace_back(kPlanParams, std::move(params.out));
  }

  return assemble(kKindPlan, sections);
}

InjectionPlan plan_from_binary(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  Header h = decode_header(p, size, kKindPlan, "plan");
  InjectionPlan plan;

  Cursor meta = section_cursor(p, h, kPlanMeta, "plan", "meta");
  plan.scenario_name = meta.str();
  meta.finish();
  if (plan.scenario_name.empty()) fail("plan", "scenario name is empty");

  Cursor points = section_cursor(p, h, kPlanPoints, "plan", "points");
  std::uint32_t point_count = points.num<std::uint32_t>();
  for (std::uint32_t i = 0; i < point_count; ++i) {
    InteractionPoint point;
    point.site = points.site();
    point.call = points.str();
    point.object = points.str();
    point.kind =
        from_ordinal(kObjectKinds, points.num<std::uint8_t>(), "object kind");
    point.semantic =
        from_ordinal(kSemantics, points.num<std::uint8_t>(), "input semantic");
    point.channel_kind = points.str();
    point.has_input = points.boolean("has_input") != 0;
    point.hits = points.num<std::int32_t>();
    plan.points.push_back(std::move(point));
  }
  points.finish();

  Cursor benign =
      section_cursor(p, h, kPlanBenign, "plan", "benign_violations");
  std::uint32_t benign_count = benign.num<std::uint32_t>();
  for (std::uint32_t i = 0; i < benign_count; ++i)
    plan.benign_violations.push_back(benign.violation());
  benign.finish();

  Cursor perturbed =
      section_cursor(p, h, kPlanPerturbed, "plan", "perturbed_sites");
  std::uint32_t perturbed_count = perturbed.num<std::uint32_t>();
  for (std::uint32_t i = 0; i < perturbed_count; ++i)
    plan.perturbed_site_tags.insert(perturbed.str());
  perturbed.finish();

  Cursor items = section_cursor(p, h, kPlanItems, "plan", "items");
  std::uint32_t item_count = items.num<std::uint32_t>();
  for (std::uint32_t i = 0; i < item_count; ++i) {
    std::string where = "plan: items[" + std::to_string(i) + "]";
    std::uint32_t point = items.num<std::uint32_t>();
    if (point >= plan.points.size())
      fail(where, "point index " + std::to_string(point) +
                      " out of range (plan has " +
                      std::to_string(plan.points.size()) + " points)");
    FaultKind kind =
        from_ordinal(kFaultKinds, items.num<std::uint8_t>(), "fault kind");
    std::string name = items.str();
    try {
      plan.items.push_back({point, wire_detail::parse_fault(kind, name)});
    } catch (const std::exception& e) {
      fail(where, e.what());
    }
  }
  items.finish();

  // The optional params column: absent means every param is 0 (the
  // serializer omits an all-zero column), present means exactly one u64
  // per item — and at least one nonzero, or decode -> re-encode would
  // drop the section and break canonicality.
  if (const Section* params_section = find_section(h, kPlanParams)) {
    if (params_section->length != plan.items.size() * 8)
      fail("plan", "params section has " +
                       std::to_string(params_section->length / 8) +
                       " entries for " + std::to_string(plan.items.size()) +
                       " items");
    Cursor params(p + params_section->offset,
                  static_cast<std::size_t>(params_section->length),
                  "plan: section 'params'");
    bool any_param = false;
    for (WorkItem& w : plan.items) {
      w.param = params.num<std::uint64_t>();
      if (w.param != 0) any_param = true;
    }
    params.finish();
    if (!any_param)
      fail("plan", "params section present but every param is 0");
  }
  return plan;
}

InjectionPlan plan_from_binary(const std::string& text) {
  return plan_from_binary(text.data(), text.size());
}

std::string shard_report_to_binary(const ShardReport& report) {
  std::vector<std::pair<std::uint32_t, std::string>> sections;

  Writer meta;
  meta.str(report.scenario_name);
  meta.u64(report.plan_items);
  meta.u64(report.owned.begin);
  meta.u64(report.owned.end);
  meta.u64(report.owned.stride);
  meta.u8(report.complete ? 1 : 0);
  sections.emplace_back(kRepMeta, std::move(meta.out));

  Writer completed;
  for (std::size_t id : report.item_ids) completed.u64(id);
  sections.emplace_back(kRepCompleted, std::move(completed.out));

  const std::size_t n = report.outcomes.size();
  Writer fired, crashed, overflows, exit_code, violations, exploit;
  for (std::size_t i = 0; i < n; ++i) {
    const InjectionOutcome& o = report.outcomes[i];
    fired.u8(o.fired ? 1 : 0);
    crashed.u8(o.crashed ? 1 : 0);
    overflows.i32(o.overflows);
    exit_code.i32(o.exit_code);
    violations.u32(static_cast<std::uint32_t>(o.violations.size()));
    for (const Violation& v : o.violations) violations.violation(v);
    // Present exactly for violated outcomes, like the JSON null/object
    // split — the decoder re-derives `violated` and cross-checks.
    if (o.violated) {
      exploit.u8(1);
      exploit.u8(o.exploit.nonroot_feasible ? 1 : 0);
      exploit.str(o.exploit.actor);
      exploit.str(o.exploit.note);
    } else {
      exploit.u8(0);
    }
  }
  sections.emplace_back(kRepFired, std::move(fired.out));
  sections.emplace_back(kRepCrashed, std::move(crashed.out));
  sections.emplace_back(kRepOverflows, std::move(overflows.out));
  sections.emplace_back(kRepExitCode, std::move(exit_code.out));
  sections.emplace_back(kRepViolations, std::move(violations.out));
  sections.emplace_back(kRepExploit, std::move(exploit.out));

  return assemble(kKindShardReport, sections);
}

ShardReport shard_report_from_binary(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  Header h = decode_header(p, size, kKindShardReport, "shard report");
  ShardReport report;

  Cursor meta = section_cursor(p, h, kRepMeta, "shard report", "meta");
  report.scenario_name = meta.str();
  report.plan_items = static_cast<std::size_t>(meta.num<std::uint64_t>());
  report.owned.begin = static_cast<std::size_t>(meta.num<std::uint64_t>());
  report.owned.end = static_cast<std::size_t>(meta.num<std::uint64_t>());
  report.owned.stride = static_cast<std::size_t>(meta.num<std::uint64_t>());
  report.complete = meta.boolean("complete") != 0;
  meta.finish();
  if (report.scenario_name.empty())
    fail("shard report", "scenario name is empty");
  try {
    wire_detail::check_range(report.owned, report.plan_items);
  } catch (const WireError& e) {
    fail("shard report", e.what());
  }

  const Section* completed = find_section(h, kRepCompleted);
  if (!completed)
    fail("shard report", "missing section 'completed_ids'");
  if (completed->length % 8 != 0)
    fail("shard report", "completed_ids section length " +
                             std::to_string(completed->length) +
                             " is not a multiple of 8");
  {
    Cursor c = section_cursor(p, h, kRepCompleted, "shard report",
                              "completed_ids");
    while (c.remaining() > 0) {
      auto id = c.num<std::uint64_t>();
      wire_detail::check_completed_id(report, static_cast<long long>(id));
      report.item_ids.push_back(static_cast<std::size_t>(id));
    }
  }

  const std::size_t n = report.item_ids.size();
  Cursor fired = column_cursor(p, h, kRepFired, "fired", 1, n);
  Cursor crashed = column_cursor(p, h, kRepCrashed, "crashed", 1, n);
  Cursor overflows = column_cursor(p, h, kRepOverflows, "overflows", 4, n);
  Cursor exit_code = column_cursor(p, h, kRepExitCode, "exit_code", 4, n);
  Cursor violations =
      section_cursor(p, h, kRepViolations, "shard report", "violations");
  Cursor exploit =
      section_cursor(p, h, kRepExploit, "shard report", "exploit");

  report.outcomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    InjectionOutcome o;
    o.fired = fired.boolean("fired") != 0;
    o.crashed = crashed.boolean("crashed") != 0;
    o.overflows = overflows.num<std::int32_t>();
    o.exit_code = exit_code.num<std::int32_t>();
    std::uint32_t vcount = violations.num<std::uint32_t>();
    for (std::uint32_t v = 0; v < vcount; ++v)
      o.violations.push_back(violations.violation());
    o.violated = !o.violations.empty();
    if (exploit.boolean("exploit presence") != 0) {
      if (!o.violated)
        fail("shard report: outcomes[" + std::to_string(i) + "]",
             "exploit present for an outcome with no violations");
      o.exploit.nonroot_feasible = exploit.boolean("nonroot_feasible") != 0;
      o.exploit.actor = exploit.str();
      o.exploit.note = exploit.str();
    } else if (o.violated) {
      fail("shard report: outcomes[" + std::to_string(i) + "]",
           "exploit is absent for a violated outcome");
    }
    report.outcomes.push_back(std::move(o));
  }
  violations.finish();
  exploit.finish();

  wire_detail::validate_complete_flag(report);
  return report;
}

ShardReport shard_report_from_binary(const std::string& text) {
  return shard_report_from_binary(text.data(), text.size());
}

}  // namespace ep::core
