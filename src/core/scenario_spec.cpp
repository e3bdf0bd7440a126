#include "core/scenario_spec.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include "core/catalog.hpp"
#include "core/target_world.hpp"
#include "core/wire.hpp"
#include "os/world.hpp"
#include "reg/registry.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

// ---- enum codecs ----------------------------------------------------------

constexpr ObjectKind kAllObjectKinds[] = {
    ObjectKind::file,         ObjectKind::directory,
    ObjectKind::exec_binary,  ObjectKind::net_inbound,
    ObjectKind::net_service,  ObjectKind::ipc_service,
    ObjectKind::registry_key, ObjectKind::user_input,
    ObjectKind::env_var,      ObjectKind::none,
};

constexpr InputSemantic kAllSemantics[] = {
    InputSemantic::file_name,      InputSemantic::command,
    InputSemantic::path_list,      InputSemantic::permission_mask,
    InputSemantic::file_extension, InputSemantic::ip_address,
    InputSemantic::packet,         InputSemantic::host_name,
    InputSemantic::dns_reply,      InputSemantic::ipc_message,
};

const char* op_kind_name(WorldOp::Kind k) {
  switch (k) {
    case WorldOp::Kind::dir: return "dir";
    case WorldOp::Kind::file: return "file";
    case WorldOp::Kind::program: return "program";
    case WorldOp::Kind::symlink: return "symlink";
  }
  return "?";
}

const char* channel_name(net::ChannelKind k) {
  return k == net::ChannelKind::ipc ? "ipc" : "network";
}

// ---- error helpers --------------------------------------------------------

[[noreturn]] void fail(const std::string& ctx, const std::string& msg) {
  throw WireError("scenario spec: " + ctx + ": " + msg);
}

/// Strict object reader: every key must be consumed via get()/need(), and
/// done() rejects whatever the document carried beyond that. The strict-
/// ness is what makes spec files trustworthy as a wire format — a typo'd
/// field fails loudly instead of silently meaning "default".
class Obj {
 public:
  Obj(const JsonValue& v, std::string ctx) : v_(v), ctx_(std::move(ctx)) {
    if (!v_.is_object())
      fail(ctx_, "expected an object, got " + std::string(v_.type_name()));
  }

  const JsonValue* get(const char* key) {
    seen_.emplace_back(key);
    return v_.find(key);
  }

  const JsonValue& need(const char* key) {
    const JsonValue* p = get(key);
    if (!p) fail(ctx_, std::string("missing required key \"") + key + "\"");
    return *p;
  }

  void done() const {
    for (const auto& [key, value] : v_.members()) {
      (void)value;
      if (std::find(seen_.begin(), seen_.end(), key) == seen_.end())
        fail(ctx_, "unknown key \"" + key + "\"");
    }
  }

  [[nodiscard]] const std::string& ctx() const { return ctx_; }

 private:
  const JsonValue& v_;
  std::string ctx_;
  std::vector<std::string> seen_;
};

std::string want_string(const JsonValue& v, const std::string& ctx) {
  if (!v.is_string())
    fail(ctx, "expected a string, got " + std::string(v.type_name()));
  return v.as_string();
}

bool want_bool(const JsonValue& v, const std::string& ctx) {
  if (!v.is_bool())
    fail(ctx, "expected a boolean, got " + std::string(v.type_name()));
  return v.as_bool();
}

long long want_int(const JsonValue& v, const std::string& ctx) {
  if (!v.is_number())
    fail(ctx, "expected a number, got " + std::string(v.type_name()));
  try {
    return v.as_int();
  } catch (const JsonError& e) {  // non-integral, or past 64 bits
    fail(ctx, e.what());
  }
}

int want_id(const JsonValue& v, const std::string& ctx) {
  long long n = want_int(v, ctx);
  if (n < 0 || n > 1'000'000'000) fail(ctx, "uid/gid out of range");
  return static_cast<int>(n);
}

const std::vector<JsonValue>& want_array(const JsonValue& v,
                                         const std::string& ctx) {
  if (!v.is_array())
    fail(ctx, "expected an array, got " + std::string(v.type_name()));
  return v.items();
}

std::vector<std::string> want_string_list(const JsonValue& v,
                                          const std::string& ctx) {
  std::vector<std::string> out;
  for (const JsonValue& item : want_array(v, ctx))
    out.push_back(want_string(item, ctx + " element"));
  return out;
}

std::map<std::string, std::string> want_string_map(const JsonValue& v,
                                                   const std::string& ctx) {
  if (!v.is_object())
    fail(ctx, "expected an object, got " + std::string(v.type_name()));
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : v.members())
    out[key] = want_string(value, ctx + "." + key);
  return out;
}

unsigned want_mode(const JsonValue& v, const std::string& ctx) {
  std::string s = want_string(v, ctx);
  if (s.empty() || s.size() > 6)
    fail(ctx, "mode must be a non-empty octal string like \"0755\"");
  unsigned mode = 0;
  for (char c : s) {
    if (c < '0' || c > '7')
      fail(ctx, "mode must be a non-empty octal string like \"0755\"");
    mode = mode * 8 + static_cast<unsigned>(c - '0');
  }
  if (mode > 07777) fail(ctx, "mode out of range (max \"7777\")");
  return mode;
}

net::ChannelKind want_channel(const JsonValue& v, const std::string& ctx) {
  std::string s = want_string(v, ctx);
  if (s == "network") return net::ChannelKind::network;
  if (s == "ipc") return net::ChannelKind::ipc;
  fail(ctx, "unknown channel \"" + s + "\" (expected \"network\" or \"ipc\")");
}

ObjectKind want_object_kind(const JsonValue& v, const std::string& ctx) {
  std::string s = want_string(v, ctx);
  for (ObjectKind k : kAllObjectKinds)
    if (std::string(to_string(k)) == s) return k;
  fail(ctx, "unknown object kind \"" + s + "\"");
}

InputSemantic want_semantic(const JsonValue& v, const std::string& ctx) {
  std::string s = want_string(v, ctx);
  for (InputSemantic sem : kAllSemantics)
    if (std::string(to_string(sem)) == s) return sem;
  fail(ctx, "unknown input semantic \"" + s + "\"");
}

// ---- section parsers ------------------------------------------------------

SpecUser parse_user(const JsonValue& v, const std::string& ctx) {
  Obj o(v, ctx);
  SpecUser u;
  u.uid = want_id(o.need("uid"), ctx + ".uid");
  u.name = want_string(o.need("name"), ctx + ".name");
  u.gid = want_id(o.need("gid"), ctx + ".gid");
  o.done();
  return u;
}

WorldOp parse_world_op(const JsonValue& v, const std::string& ctx) {
  Obj o(v, ctx);
  WorldOp op;
  std::string kind = want_string(o.need("op"), ctx + ".op");
  if (kind == "dir") {
    op.kind = WorldOp::Kind::dir;
  } else if (kind == "file") {
    op.kind = WorldOp::Kind::file;
    op.content = want_string(o.need("content"), ctx + ".content");
  } else if (kind == "program") {
    op.kind = WorldOp::Kind::program;
    op.image = want_string(o.need("image"), ctx + ".image");
  } else if (kind == "symlink") {
    op.kind = WorldOp::Kind::symlink;
    op.target = want_string(o.need("target"), ctx + ".target");
  } else {
    fail(ctx + ".op", "unknown world op \"" + kind +
                          "\" (expected \"dir\", \"file\", \"program\" or "
                          "\"symlink\")");
  }
  op.path = want_string(o.need("path"), ctx + ".path");
  op.uid = want_id(o.need("uid"), ctx + ".uid");
  op.gid = want_id(o.need("gid"), ctx + ".gid");
  if (op.kind == WorldOp::Kind::symlink)
    op.mode = 0;
  else
    op.mode = want_mode(o.need("mode"), ctx + ".mode");
  o.done();
  return op;
}

SpecNetwork parse_network(const JsonValue& v, const std::string& ctx) {
  Obj o(v, ctx);
  SpecNetwork net;
  std::size_t i = 0;
  for (const JsonValue& h : want_array(o.need("hosts"), ctx + ".hosts")) {
    std::string hctx = ctx + ".hosts[" + std::to_string(i++) + "]";
    Obj ho(h, hctx);
    SpecHost host;
    host.name = want_string(ho.need("name"), hctx + ".name");
    host.ip = want_string(ho.need("ip"), hctx + ".ip");
    ho.done();
    net.hosts.push_back(std::move(host));
  }
  i = 0;
  for (const JsonValue& s :
       want_array(o.need("services"), ctx + ".services")) {
    std::string sctx = ctx + ".services[" + std::to_string(i++) + "]";
    Obj so(s, sctx);
    SpecService svc;
    svc.name = want_string(so.need("name"), sctx + ".name");
    svc.kind = want_channel(so.need("channel"), sctx + ".channel");
    svc.available = want_bool(so.need("available"), sctx + ".available");
    svc.trusted = want_bool(so.need("trusted"), sctx + ".trusted");
    svc.handler = want_string(so.need("handler"), sctx + ".handler");
    so.done();
    net.services.push_back(std::move(svc));
  }
  if (const JsonValue* c = o.get("client")) {
    std::string cctx = ctx + ".client";
    Obj co(*c, cctx);
    SpecClientScript script;
    script.peer = want_string(co.need("peer"), cctx + ".peer");
    script.kind = want_channel(co.need("channel"), cctx + ".channel");
    script.protocol =
        want_string_list(co.need("protocol"), cctx + ".protocol");
    i = 0;
    for (const JsonValue& m :
         want_array(co.need("inbound"), cctx + ".inbound")) {
      std::string mctx = cctx + ".inbound[" + std::to_string(i++) + "]";
      Obj mo(m, mctx);
      net::Message msg;
      msg.from = want_string(mo.need("from"), mctx + ".from");
      msg.type = want_string(mo.need("type"), mctx + ".type");
      msg.payload = want_string(mo.need("payload"), mctx + ".payload");
      msg.authentic = true;  // specs describe the benign world only
      mo.done();
      script.inbound.push_back(std::move(msg));
    }
    co.done();
    net.client = std::move(script);
  }
  o.done();
  return net;
}

SpecRegistryKey parse_registry_key(const JsonValue& v,
                                   const std::string& ctx) {
  Obj o(v, ctx);
  SpecRegistryKey key;
  key.path = want_string(o.need("path"), ctx + ".path");
  key.value = want_string(o.need("value"), ctx + ".value");
  key.owner = want_id(o.need("owner"), ctx + ".owner");
  key.everyone_read =
      want_bool(o.need("everyone_read"), ctx + ".everyone_read");
  key.everyone_write =
      want_bool(o.need("everyone_write"), ctx + ".everyone_write");
  key.used_by_module = want_string(o.need("module"), ctx + ".module");
  key.trusted = want_bool(o.need("trusted"), ctx + ".trusted");
  o.done();
  return key;
}

RunStep parse_run_step(const JsonValue& v, const std::string& ctx) {
  Obj o(v, ctx);
  RunStep step;
  step.program = want_string(o.need("program"), ctx + ".program");
  step.args = want_string_list(o.need("args"), ctx + ".args");
  step.uid = want_id(o.need("uid"), ctx + ".uid");
  step.gid = want_id(o.need("gid"), ctx + ".gid");
  step.env = want_string_map(o.need("env"), ctx + ".env");
  step.cwd = want_string(o.need("cwd"), ctx + ".cwd");
  o.done();
  return step;
}

PolicySpec parse_policy(const JsonValue& v, const std::string& ctx) {
  Obj o(v, ctx);
  PolicySpec policy;
  policy.write_sanction_roots = want_string_list(
      o.need("write_sanction_roots"), ctx + ".write_sanction_roots");
  policy.secret_files =
      want_string_list(o.need("secret_files"), ctx + ".secret_files");
  policy.watch_all = want_bool(o.need("watch_all"), ctx + ".watch_all");
  policy.require_auth_confirmation = want_bool(
      o.need("require_auth_confirmation"), ctx + ".require_auth_confirmation");
  o.done();
  return policy;
}

ScenarioHints parse_hints(const JsonValue& v, const std::string& ctx) {
  Obj o(v, ctx);
  ScenarioHints hints;
  hints.attacker_uid = want_id(o.need("attacker_uid"), ctx + ".attacker_uid");
  hints.attacker_gid = want_id(o.need("attacker_gid"), ctx + ".attacker_gid");
  hints.attacker_dir =
      want_string(o.need("attacker_dir"), ctx + ".attacker_dir");
  hints.symlink_victim =
      want_string(o.need("symlink_victim"), ctx + ".symlink_victim");
  hints.secret_victim =
      want_string(o.need("secret_victim"), ctx + ".secret_victim");
  hints.dir_victim = want_string(o.need("dir_victim"), ctx + ".dir_victim");
  hints.evil_program =
      want_string(o.need("evil_program"), ctx + ".evil_program");
  long long len = want_int(o.need("long_length"), ctx + ".long_length");
  if (len < 0) fail(ctx + ".long_length", "must be non-negative");
  hints.long_length = static_cast<std::size_t>(len);
  hints.content_payloads = want_string_map(o.need("content_payloads"),
                                           ctx + ".content_payloads");
  hints.link_victims =
      want_string_map(o.need("link_victims"), ctx + ".link_victims");
  o.done();
  return hints;
}

std::pair<std::string, SiteSpec> parse_site(const JsonValue& v,
                                            const std::string& ctx) {
  Obj o(v, ctx);
  std::string tag = want_string(o.need("tag"), ctx + ".tag");
  SiteSpec site;
  site.kind = want_object_kind(o.need("kind"), ctx + ".kind");
  if (const JsonValue* s = o.get("semantic"))
    site.semantic = want_semantic(*s, ctx + ".semantic");
  site.faults = want_string_list(o.need("faults"), ctx + ".faults");
  site.not_applicable =
      want_string_map(o.need("not_applicable"), ctx + ".not_applicable");
  site.skip = want_bool(o.need("skip"), ctx + ".skip");
  o.done();
  return {std::move(tag), std::move(site)};
}

// ---- serializer helpers ---------------------------------------------------

std::string octal(unsigned mode) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0%o", mode);
  return buf;
}

std::string str_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += json_quote(items[i]);
  }
  return out + "]";
}

/// Multi-line string map at `indent` spaces; "{}" when empty.
std::string str_map(const std::map<std::string, std::string>& m,
                    int indent) {
  if (m.empty()) return "{}";
  std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : m) {
    out += pad + "  " + json_quote(key) + ": " + json_quote(value);
    out += (++i < m.size()) ? ",\n" : "\n";
  }
  return out + pad + "}";
}

/// Inline string map: {"A": "1", "B": "2"} (run-step env).
std::string inline_map(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  std::size_t i = 0;
  for (const auto& [key, value] : m) {
    if (i++) out += ", ";
    out += json_quote(key) + ": " + json_quote(value);
  }
  return out + "}";
}

const char* comma(std::size_t i, std::size_t n) {
  return i + 1 < n ? "," : "";
}

std::string world_op_json(const WorldOp& op) {
  std::string out = "{\"op\": ";
  out += json_quote(op_kind_name(op.kind));
  out += ", \"path\": " + json_quote(op.path);
  switch (op.kind) {
    case WorldOp::Kind::dir: break;
    case WorldOp::Kind::file:
      out += ", \"content\": " + json_quote(op.content);
      break;
    case WorldOp::Kind::program:
      out += ", \"image\": " + json_quote(op.image);
      break;
    case WorldOp::Kind::symlink:
      out += ", \"target\": " + json_quote(op.target);
      break;
  }
  out += ", \"uid\": " + std::to_string(op.uid);
  out += ", \"gid\": " + std::to_string(op.gid);
  if (op.kind != WorldOp::Kind::symlink)
    out += ", \"mode\": " + json_quote(octal(op.mode));
  return out + "}";
}

}  // namespace

std::string spec_to_json(const ScenarioSpec& spec) {
  std::string out = "{\n";
  out += "  \"kind\": \"scenario-spec\",\n";
  out += "  \"schema_version\": " + std::to_string(kSpecSchemaVersion) +
         ",\n";
  out += "  \"name\": " + json_quote(spec.name) + ",\n";
  out += "  \"description\": " + json_quote(spec.description) + ",\n";
  out += "  \"trace_unit_filter\": " + json_quote(spec.trace_unit_filter) +
         ",\n";
  out += std::string("  \"standard_unix\": ") +
         (spec.standard_unix ? "true" : "false") + ",\n";

  out += "  \"users\": [";
  for (std::size_t i = 0; i < spec.users.size(); ++i) {
    const SpecUser& u = spec.users[i];
    out += "\n    {\"uid\": " + std::to_string(u.uid) +
           ", \"name\": " + json_quote(u.name) +
           ", \"gid\": " + std::to_string(u.gid) + "}";
    out += comma(i, spec.users.size());
  }
  out += spec.users.empty() ? "],\n" : "\n  ],\n";

  out += "  \"images\": " + str_list(spec.images) + ",\n";

  out += "  \"world\": [";
  for (std::size_t i = 0; i < spec.world.size(); ++i) {
    out += "\n    " + world_op_json(spec.world[i]);
    out += comma(i, spec.world.size());
  }
  out += spec.world.empty() ? "],\n" : "\n  ],\n";

  out += "  \"network\": {\n";
  out += "    \"hosts\": [";
  for (std::size_t i = 0; i < spec.network.hosts.size(); ++i) {
    const SpecHost& h = spec.network.hosts[i];
    out += "\n      {\"name\": " + json_quote(h.name) +
           ", \"ip\": " + json_quote(h.ip) + "}";
    out += comma(i, spec.network.hosts.size());
  }
  out += spec.network.hosts.empty() ? "],\n" : "\n    ],\n";
  out += "    \"services\": [";
  for (std::size_t i = 0; i < spec.network.services.size(); ++i) {
    const SpecService& s = spec.network.services[i];
    out += "\n      {\"name\": " + json_quote(s.name) + ", \"channel\": " +
           json_quote(channel_name(s.kind)) + ", \"available\": " +
           (s.available ? "true" : "false") + ", \"trusted\": " +
           (s.trusted ? "true" : "false") + ", \"handler\": " +
           json_quote(s.handler) + "}";
    out += comma(i, spec.network.services.size());
  }
  out += spec.network.services.empty() ? "]" : "\n    ]";
  if (spec.network.client) {
    const SpecClientScript& c = *spec.network.client;
    out += ",\n    \"client\": {\n";
    out += "      \"peer\": " + json_quote(c.peer) + ",\n";
    out += "      \"channel\": " + json_quote(channel_name(c.kind)) + ",\n";
    out += "      \"protocol\": " + str_list(c.protocol) + ",\n";
    out += "      \"inbound\": [";
    for (std::size_t i = 0; i < c.inbound.size(); ++i) {
      const net::Message& m = c.inbound[i];
      out += "\n        {\"from\": " + json_quote(m.from) +
             ", \"type\": " + json_quote(m.type) +
             ", \"payload\": " + json_quote(m.payload) + "}";
      out += comma(i, c.inbound.size());
    }
    out += c.inbound.empty() ? "]\n" : "\n      ]\n";
    out += "    }\n";
  } else {
    out += "\n";
  }
  out += "  },\n";

  out += "  \"registry\": [";
  for (std::size_t i = 0; i < spec.registry.size(); ++i) {
    const SpecRegistryKey& k = spec.registry[i];
    out += "\n    {\"path\": " + json_quote(k.path) +
           ", \"value\": " + json_quote(k.value) +
           ", \"owner\": " + std::to_string(k.owner) +
           ", \"everyone_read\": " + (k.everyone_read ? "true" : "false") +
           ", \"everyone_write\": " + (k.everyone_write ? "true" : "false") +
           ", \"module\": " + json_quote(k.used_by_module) +
           ", \"trusted\": " + (k.trusted ? "true" : "false") + "}";
    out += comma(i, spec.registry.size());
  }
  out += spec.registry.empty() ? "],\n" : "\n  ],\n";

  out += "  \"run\": [";
  for (std::size_t i = 0; i < spec.run.size(); ++i) {
    const RunStep& step = spec.run[i];
    out += "\n    {\"program\": " + json_quote(step.program) +
           ", \"args\": " + str_list(step.args) +
           ", \"uid\": " + std::to_string(step.uid) +
           ", \"gid\": " + std::to_string(step.gid) +
           ", \"env\": " + inline_map(step.env) +
           ", \"cwd\": " + json_quote(step.cwd) + "}";
    out += comma(i, spec.run.size());
  }
  out += spec.run.empty() ? "],\n" : "\n  ],\n";

  out += "  \"policy\": {\n";
  out += "    \"write_sanction_roots\": " +
         str_list(spec.policy.write_sanction_roots) + ",\n";
  out += "    \"secret_files\": " + str_list(spec.policy.secret_files) +
         ",\n";
  out += std::string("    \"watch_all\": ") +
         (spec.policy.watch_all ? "true" : "false") + ",\n";
  out += std::string("    \"require_auth_confirmation\": ") +
         (spec.policy.require_auth_confirmation ? "true" : "false") + "\n";
  out += "  },\n";

  const ScenarioHints& h = spec.hints;
  out += "  \"hints\": {\n";
  out += "    \"attacker_uid\": " + std::to_string(h.attacker_uid) + ",\n";
  out += "    \"attacker_gid\": " + std::to_string(h.attacker_gid) + ",\n";
  out += "    \"attacker_dir\": " + json_quote(h.attacker_dir) + ",\n";
  out += "    \"symlink_victim\": " + json_quote(h.symlink_victim) + ",\n";
  out += "    \"secret_victim\": " + json_quote(h.secret_victim) + ",\n";
  out += "    \"dir_victim\": " + json_quote(h.dir_victim) + ",\n";
  out += "    \"evil_program\": " + json_quote(h.evil_program) + ",\n";
  out += "    \"long_length\": " + std::to_string(h.long_length) + ",\n";
  out += "    \"content_payloads\": " + str_map(h.content_payloads, 4) +
         ",\n";
  out += "    \"link_victims\": " + str_map(h.link_victims, 4) + "\n";
  out += "  },\n";

  out += "  \"sites\": [";
  for (std::size_t i = 0; i < spec.sites.size(); ++i) {
    const auto& [tag, site] = spec.sites[i];
    out += "\n    {\n";
    out += "      \"tag\": " + json_quote(tag) + ",\n";
    out += "      \"kind\": " +
           json_quote(std::string(to_string(site.kind))) + ",\n";
    if (site.semantic)
      out += "      \"semantic\": " +
             json_quote(std::string(to_string(*site.semantic))) + ",\n";
    out += "      \"faults\": " + str_list(site.faults) + ",\n";
    out += "      \"not_applicable\": " + str_map(site.not_applicable, 6) +
           ",\n";
    out += std::string("      \"skip\": ") + (site.skip ? "true" : "false") +
           "\n";
    out += "    }";
    out += comma(i, spec.sites.size());
  }
  out += spec.sites.empty() ? "]\n" : "\n  ]\n";
  return out + "}\n";
}

ScenarioSpec spec_from_json(const std::string& text) {
  JsonValue doc;
  try {
    doc = json_parse(text);
  } catch (const JsonError& e) {
    throw WireError(std::string("scenario spec: ") + e.what());
  }
  Obj o(doc, "top level");
  std::string kind = want_string(o.need("kind"), "kind");
  if (kind != "scenario-spec")
    fail("kind", "expected \"scenario-spec\", got \"" + kind + "\"");
  long long version =
      want_int(o.need("schema_version"), "schema_version");
  if (version < 1 || version > kSpecSchemaVersion)
    fail("schema_version",
         "unsupported version " + std::to_string(version) +
             " (this build reads up to " +
             std::to_string(kSpecSchemaVersion) + ")");

  ScenarioSpec spec;
  spec.name = want_string(o.need("name"), "name");
  if (spec.name.empty()) fail("name", "must not be empty");
  if (const JsonValue* p = o.get("description"))
    spec.description = want_string(*p, "description");
  if (const JsonValue* p = o.get("trace_unit_filter"))
    spec.trace_unit_filter = want_string(*p, "trace_unit_filter");
  if (const JsonValue* p = o.get("standard_unix"))
    spec.standard_unix = want_bool(*p, "standard_unix");

  std::size_t i = 0;
  if (const JsonValue* p = o.get("users"))
    for (const JsonValue& u : want_array(*p, "users"))
      spec.users.push_back(
          parse_user(u, "users[" + std::to_string(i++) + "]"));
  if (const JsonValue* p = o.get("images"))
    spec.images = want_string_list(*p, "images");
  i = 0;
  if (const JsonValue* p = o.get("world"))
    for (const JsonValue& op : want_array(*p, "world"))
      spec.world.push_back(
          parse_world_op(op, "world[" + std::to_string(i++) + "]"));
  if (const JsonValue* p = o.get("network"))
    spec.network = parse_network(*p, "network");
  i = 0;
  if (const JsonValue* p = o.get("registry"))
    for (const JsonValue& k : want_array(*p, "registry"))
      spec.registry.push_back(
          parse_registry_key(k, "registry[" + std::to_string(i++) + "]"));
  i = 0;
  if (const JsonValue* p = o.get("run"))
    for (const JsonValue& step : want_array(*p, "run"))
      spec.run.push_back(
          parse_run_step(step, "run[" + std::to_string(i++) + "]"));
  if (const JsonValue* p = o.get("policy"))
    spec.policy = parse_policy(*p, "policy");
  if (const JsonValue* p = o.get("hints"))
    spec.hints = parse_hints(*p, "hints");
  i = 0;
  if (const JsonValue* p = o.get("sites")) {
    std::set<std::string> tags;
    for (const JsonValue& s : want_array(*p, "sites")) {
      std::string ctx = "sites[" + std::to_string(i++) + "]";
      auto site = parse_site(s, ctx);
      if (!tags.insert(site.first).second)
        fail(ctx, "duplicate site tag \"" + site.first + "\"");
      spec.sites.push_back(std::move(site));
    }
  }
  o.done();
  return spec;
}

Scenario compile_spec(const ScenarioSpec& spec, const SpecEnvironment& env) {
  auto bad = [&spec](const std::string& msg) -> WireError {
    return WireError("scenario spec '" + spec.name + "': " + msg);
  };
  if (spec.name.empty()) throw WireError("scenario spec: name is empty");
  if (spec.run.empty()) throw bad("run recipe is empty");

  // Resolve every image name up front; the build closure captures the
  // resolved (kernel name, image) pairs by value so clones never consult
  // the environment again.
  std::vector<std::pair<std::string, os::AppImage>> images;
  std::set<std::string> kernel_names;
  for (const std::string& name : spec.images) {
    auto it = env.images.find(name);
    if (it == env.images.end())
      throw bad("unknown image \"" + name +
                "\" (not in the spec environment)");
    if (!kernel_names.insert(it->second.kernel_name).second)
      throw bad("images register duplicate kernel image \"" +
                it->second.kernel_name + "\"");
    images.emplace_back(it->second.kernel_name, it->second.image);
  }
  for (const WorldOp& op : spec.world)
    if (op.kind == WorldOp::Kind::program &&
        kernel_names.find(op.image) == kernel_names.end())
      throw bad("program op \"" + op.path + "\" references image \"" +
                op.image + "\" that the images list does not register");

  std::vector<net::ServiceDef> services;
  for (const SpecService& svc : spec.network.services) {
    auto it = env.handlers.find(svc.handler);
    if (it == env.handlers.end())
      throw bad("service \"" + svc.name + "\" references unknown handler \"" +
                svc.handler + "\"");
    net::ServiceDef def;
    def.name = svc.name;
    def.kind = svc.kind;
    def.available = svc.available;
    def.trusted = svc.trusted;
    def.handler = it->second;
    services.push_back(std::move(def));
  }

  const FaultCatalog& catalog = FaultCatalog::standard();
  for (const auto& [tag, site] : spec.sites)
    for (const std::string& f : site.faults)
      if (!catalog.find_indirect(f) && !catalog.find_direct(f))
        throw bad("unknown fault \"" + f + "\" in site \"" + tag + "\"");

  auto sp = std::make_shared<const ScenarioSpec>(spec);
  Scenario s;
  s.name = sp->name;
  s.description = sp->description;
  s.trace_unit_filter = sp->trace_unit_filter;
  s.snapshot_safe = true;  // specs cannot express ambient-state builds
  s.policy = sp->policy;
  s.hints = sp->hints;
  for (const auto& [tag, site] : sp->sites) s.sites[tag] = site;

  s.build = [sp, images, services] {
    auto w = std::make_unique<TargetWorld>();
    os::Kernel& k = w->kernel;
    if (sp->standard_unix) os::world::standard_unix(k);
    for (const SpecUser& u : sp->users) k.add_user(u.uid, u.name, u.gid);
    for (const auto& [name, image] : images) k.register_image(name, image);
    // World ops replay in spec order: inode numbering (and with it the
    // byte-identity of every downstream report) follows creation order.
    for (const WorldOp& op : sp->world) {
      switch (op.kind) {
        case WorldOp::Kind::dir:
          os::world::mkdirs(k, op.path, op.uid, op.gid, op.mode);
          break;
        case WorldOp::Kind::file:
          os::world::put_file(k, op.path, op.content, op.uid, op.gid,
                              op.mode);
          break;
        case WorldOp::Kind::program:
          os::world::put_program(k, op.path, op.image, op.uid, op.gid,
                                 op.mode);
          break;
        case WorldOp::Kind::symlink:
          os::world::put_symlink(k, op.path, op.target, op.uid, op.gid);
          break;
      }
    }
    for (const SpecHost& h : sp->network.hosts)
      w->network.add_host(h.name, h.ip);
    for (const net::ServiceDef& def : services)
      w->network.define_service(def);
    if (sp->network.client) {
      net::PeerScript script;
      script.peer = sp->network.client->peer;
      script.kind = sp->network.client->kind;
      script.inbound = sp->network.client->inbound;
      script.expected_protocol = sp->network.client->protocol;
      w->network.set_client_script(std::move(script));
    }
    for (const SpecRegistryKey& sk : sp->registry) {
      reg::Key key;
      key.path = sk.path;
      key.value = sk.value;
      key.acl.owner = sk.owner;
      key.acl.everyone_read = sk.everyone_read;
      key.acl.everyone_write = sk.everyone_write;
      key.used_by_module = sk.used_by_module;
      key.trusted = sk.trusted;
      w->registry.define_key(std::move(key));
    }
    return w;
  };

  s.run = [sp](TargetWorld& w) {
    int code = 255;
    for (const RunStep& step : sp->run) {
      auto r = w.kernel.spawn(step.program, step.args, step.uid, step.gid,
                              step.env, step.cwd);
      code = r.ok() ? r.value() : 255;
    }
    return code;
  };
  return s;
}

namespace spec_builders {

WorldOp dir_op(const std::string& path, os::Uid uid, os::Gid gid,
               unsigned mode) {
  WorldOp op;
  op.kind = WorldOp::Kind::dir;
  op.path = path;
  op.uid = uid;
  op.gid = gid;
  op.mode = mode;
  return op;
}

WorldOp file_op(const std::string& path, const std::string& content,
                os::Uid uid, os::Gid gid, unsigned mode) {
  WorldOp op;
  op.kind = WorldOp::Kind::file;
  op.path = path;
  op.content = content;
  op.uid = uid;
  op.gid = gid;
  op.mode = mode;
  return op;
}

WorldOp program_op(const std::string& path, const std::string& image,
                   os::Uid uid, os::Gid gid, unsigned mode) {
  WorldOp op;
  op.kind = WorldOp::Kind::program;
  op.path = path;
  op.image = image;
  op.uid = uid;
  op.gid = gid;
  op.mode = mode;
  return op;
}

WorldOp symlink_op(const std::string& path, const std::string& target,
                   os::Uid uid, os::Gid gid) {
  WorldOp op;
  op.kind = WorldOp::Kind::symlink;
  op.path = path;
  op.target = target;
  op.uid = uid;
  op.gid = gid;
  op.mode = 0;
  return op;
}

void add_alice(ScenarioSpec& spec) {
  spec.users.push_back({1000, "alice", 1000});
}

void add_attacker(ScenarioSpec& spec, bool with_evil) {
  spec.users.push_back({666, "mallory", 666});
  spec.world.push_back(dir_op("/tmp/attacker", 666, 666, 0755));
  if (with_evil)
    spec.world.push_back(
        program_op("/tmp/attacker/evil", "evil", 666, 666, 0755));
  spec.hints.attacker_uid = 666;
  spec.hints.attacker_gid = 666;
}

void add_payload_images(ScenarioSpec& spec) {
  for (const char* name : {"tar", "sendmail", "evil"})
    if (std::find(spec.images.begin(), spec.images.end(), name) ==
        spec.images.end())
      spec.images.emplace_back(name);
}

}  // namespace spec_builders
}  // namespace ep::core
