#include "apps/families.hpp"

#include <memory>

#include "apps/fixed_buffer.hpp"
#include "apps/spec_env.hpp"
#include "net/network.hpp"
#include "os/kernel.hpp"
#include "reg/registry.hpp"
#include "util/strings.hpp"

namespace ep::apps {

using core::FamilyPoint;
using core::ScenarioFamily;
using core::ScenarioSpec;
using os::OpenFlag;
using os::Site;
namespace sb = core::spec_builders;

namespace {

std::string at(const FamilyPoint& point, const std::string& axis) {
  auto it = point.find(axis);
  return it == point.end() ? std::string() : it->second;
}

// ---- fam-spool: the spool helper -----------------------------------------

const Site kSpArgDir{"famspool.c", 10, "spool-arg-dir"};
const Site kSpEnvJob{"famspool.c", 20, "spool-getenv-job"};
const Site kSpCopy{"famspool.c", 25, "spool-copy-name"};
const Site kSpCreate{"famspool.c", 30, "spool-create-job"};
const Site kSpWrite{"famspool.c", 40, "spool-write-job"};
const Site kSpSay{"famspool.c", 50, "spool-status"};

int family_spool_main(os::Kernel& k, os::Pid pid) {
  const os::Process& p = k.proc(pid);
  // argv: famspool <spool-dir> <tight|roomy>
  std::string dir = k.arg(kSpArgDir, pid, 1);
  bool tight = p.args.size() > 2 && p.args[2] == "tight";
  if (dir.empty()) {
    k.output(kSpSay, pid, "famspool: no spool directory");
    return 2;
  }
  std::string job = k.getenv(kSpEnvJob, pid, "SPOOLJOB").value_or("job1");
  FixedBuffer name(k, pid, kSpCopy, tight ? 8 : 64);
  if (tight) {
    // THE BUG (tight variants): a miscomputed length lets long job names
    // run silently into the redzone.
    name.copy_wild(job);
  } else if (!name.copy_checked(job)) {
    k.output(kSpSay, pid, "famspool: job name too long");
    return 2;
  }
  std::string path = dir + "/" + name.str();
  auto f = k.open(kSpCreate, pid, path,
                  OpenFlag::wr | OpenFlag::creat | OpenFlag::trunc, 0660);
  if (!f.ok()) {
    k.output(kSpSay, pid, "famspool: cannot create " + path);
    return 1;
  }
  if (!k.write(kSpWrite, pid, f.value(),
               "queued by " + k.user_name(p.ruid) + "\n")
           .ok()) {
    (void)k.close(pid, f.value());
    return 1;
  }
  (void)k.close(pid, f.value());
  k.output(kSpSay, pid, "famspool: queued " + name.str());
  return 0;
}

ScenarioSpec spool_spec(const FamilyPoint& point) {
  std::string depth = at(point, "depth");      // d1..d4
  std::string access = at(point, "access");    // open | owned
  std::string priv = at(point, "priv");        // setuid | plain
  std::string guard = at(point, "guard");      // tight | roomy

  std::string dir = "/srv/spool";
  int levels = depth.size() == 2 ? depth[1] - '0' : 1;
  for (int i = 1; i < levels; ++i) dir += "/q" + std::to_string(i);

  ScenarioSpec s;
  s.description = "generated spool helper: depth " + std::to_string(levels) +
                  ", " + access + " spool dir, " + priv + " binary, " +
                  guard + " name buffer";
  s.trace_unit_filter = "famspool.c";
  sb::add_alice(s);
  s.images = {"fam-spool"};
  sb::add_payload_images(s);
  if (access == "open")
    s.world.push_back(sb::dir_op(dir, os::kRootUid, os::kRootGid, 0777));
  else
    s.world.push_back(sb::dir_op(dir, 1000, 1000, 0755));
  sb::add_attacker(s, /*with_evil=*/true);
  unsigned mode = priv == "setuid" ? (0755 | os::kSetUidBit) : 0755u;
  s.world.push_back(sb::program_op("/usr/sbin/famspool", "fam-spool",
                                   os::kRootUid, os::kRootGid, mode));
  s.run.push_back({"/usr/sbin/famspool",
                   {"famspool", dir, guard},
                   1000,
                   1000,
                   {{"SPOOLJOB", "job1"}},
                   "/home"});
  s.policy.write_sanction_roots = {"/srv/spool"};
  s.policy.secret_files = {"/etc/shadow"};
  return s;
}

// ---- fam-relay: the store-and-forward daemon -----------------------------

const Site kRlAccept{"famrelay.c", 10, "relay-accept"};
const Site kRlRecv{"famrelay.c", 20, "relay-recv"};
const Site kRlCopy{"famrelay.c", 25, "relay-copy"};
const Site kRlResolve{"famrelay.c", 30, "relay-resolve-upstream"};
const Site kRlQuery{"famrelay.c", 40, "relay-query-gate"};
const Site kRlForward{"famrelay.c", 50, "relay-forward"};
const Site kRlSay{"famrelay.c", 60, "relay-status"};

int family_relay_main(os::Kernel& k, os::Pid pid) {
  const os::Process& p = k.proc(pid);
  net::Network& net = *k.network();
  // argv: famrelay <open|closed> <checked|trusting> <capacity>
  bool fail_open = p.args.size() > 1 && p.args[1] == "open";
  bool checked = p.args.size() > 2 && p.args[2] == "checked";
  std::size_t cap = 64;
  if (p.args.size() > 3 && !p.args[3].empty())
    cap = static_cast<std::size_t>(std::stoul(p.args[3]));

  auto sock = net.accept(k, kRlAccept, pid);
  if (!sock.ok()) return 1;
  int forwarded = 0;
  for (;;) {
    auto msg = net.recv(k, kRlRecv, pid, sock.value());
    if (!msg.ok()) break;
    FixedBuffer line(k, pid, kRlCopy, cap);
    line.copy_unchecked(msg.value().payload);
    // The payload names its upstream: "host:text".
    std::size_t colon = line.str().find(':');
    std::string host =
        colon == std::string::npos ? line.str() : line.str().substr(0, colon);
    auto ip = net.resolve_host(k, kRlResolve, pid, host);
    if (!ip.ok() || ip.value().rfind("10.0.", 0) != 0) {
      k.output(kRlSay, pid, "famrelay: refusing to relay to " + host);
      continue;
    }
    bool authorized = false;
    if (checked) {
      auto gate = net.connect(k, kRlQuery, pid, "relaygate");
      if (!gate.ok()) {
        if (!fail_open) {
          k.output(kRlSay, pid, "famrelay: gate unreachable, refusing");
          return 1;
        }
        // THE BUG (open variants): fail-open when the gate is down.
        authorized = true;
      } else {
        net::Message q;
        q.type = "AUTH";
        q.payload = host;
        auto reply = net.query(k, kRlQuery, pid, gate.value(), q);
        authorized = reply.ok() && reply.value().type == "AUTH_OK";
      }
    } else {
      // Trusting variants never consult the gate at all.
      authorized = true;
    }
    if (!authorized) {
      k.output(kRlSay, pid, "famrelay: gate denied relay to " + host);
      continue;
    }
    k.privileged_action(kRlForward, pid, "forward-message", true);
    net::Message fwd;
    fwd.type = "FWD";
    fwd.payload = line.str();
    (void)net.send(k, kRlForward, pid, sock.value(), fwd);
    ++forwarded;
  }
  k.output(kRlSay, pid,
           "famrelay: forwarded " + std::to_string(forwarded) + " message(s)");
  return forwarded > 0 ? 0 : 1;
}

net::Message relaygate_handler(const net::Message& m) {
  net::Message r;
  r.type = m.payload == "upstream.corp" ? "AUTH_OK" : "AUTH_FAIL";
  return r;
}

ScenarioSpec relay_spec(const FamilyPoint& point) {
  std::string msgs = at(point, "msgs");      // m1..m3
  std::string gate = at(point, "gate");      // open | closed
  std::string trust = at(point, "trust");    // checked | trusting
  std::string buf = at(point, "buf");        // b16 | b64 | b256
  int count = msgs.size() == 2 ? msgs[1] - '0' : 1;
  std::string cap = buf.substr(1);

  ScenarioSpec s;
  s.description = "generated relay daemon: " + std::to_string(count) +
                  " scripted message(s), fail-" + gate + " gate, " + trust +
                  " perimeter, " + cap + "-byte receive buffer";
  s.trace_unit_filter = "famrelay.c";
  s.images = {"fam-relay"};
  sb::add_attacker(s, /*with_evil=*/false);
  s.world.push_back(sb::program_op("/usr/sbin/famrelay", "fam-relay",
                                   os::kRootUid, os::kRootGid, 0755));
  s.network.hosts.push_back({"upstream.corp", "10.0.0.9"});
  core::SpecService svc;
  svc.name = "relaygate";
  svc.kind = net::ChannelKind::network;
  svc.handler = "relaygate";
  s.network.services.push_back(svc);
  core::SpecClientScript script;
  script.peer = "edge-client";
  script.kind = net::ChannelKind::network;
  for (int i = 1; i <= count; ++i) {
    script.protocol.push_back("FWD");
    net::Message m;
    m.from = "edge-client";
    m.type = "FWD";
    m.payload = "upstream.corp:hello-" + std::to_string(i);
    script.inbound.push_back(m);
  }
  s.network.client = script;
  s.run.push_back({"/usr/sbin/famrelay",
                   {"famrelay", gate, trust, cap},
                   os::kRootUid,
                   os::kRootGid,
                   {},
                   "/"});
  s.policy.watch_all = true;
  s.policy.require_auth_confirmation = trust == "checked";
  s.policy.secret_files = {"/etc/shadow"};
  core::SiteSpec dns_spec;
  dns_spec.faults = {"dns-change-length", "dns-bad-format"};
  s.sites.emplace_back(kRlResolve.tag, dns_spec);
  return s;
}

// ---- fam-regchain: registry indirection chains ---------------------------

const Site kRcRead{"famregchain.c", 10, "regchain-read"};
const Site kRcExec{"famregchain.c", 20, "regchain-exec"};
const Site kRcOpen{"famregchain.c", 30, "regchain-open"};
const Site kRcWrite{"famregchain.c", 40, "regchain-write"};
const Site kRcReadFile{"famregchain.c", 45, "regchain-read-file"};
const Site kRcSay{"famregchain.c", 50, "regchain-status"};

int family_regchain_main(os::Kernel& k, os::Pid pid) {
  const os::Process& p = k.proc(pid);
  reg::Registry& reg = *k.registry();
  // argv: famregchain <exec|write|read>
  std::string action = p.args.size() > 1 ? p.args[1] : "read";

  // Follow the indirection chain: every HKLM/... value is another key,
  // the first non-key value is the filesystem target.
  std::string cursor = "HKLM/Family/Chain1";
  int hops = 0;
  while (cursor.rfind("HKLM/", 0) == 0) {
    if (++hops > 8) {
      k.output(kRcSay, pid, "famregchain: chain too deep");
      return 1;
    }
    auto v = reg.read_value(k, kRcRead, pid, cursor);
    if (!v.ok()) {
      k.output(kRcSay, pid, "famregchain: missing key " + cursor);
      return 1;
    }
    cursor = v.value();
  }
  const std::string& target = cursor;

  if (action == "exec") {
    auto rc = k.exec(kRcExec, pid, target, {target});
    if (!rc.ok() || rc.value() != 0) {
      k.output(kRcSay, pid, "famregchain: cannot run " + target);
      return 1;
    }
  } else if (action == "write") {
    auto f = k.open(kRcOpen, pid, target + "/report.log",
                    OpenFlag::wr | OpenFlag::creat | OpenFlag::trunc, 0644);
    if (!f.ok()) {
      k.output(kRcSay, pid, "famregchain: cannot write under " + target);
      return 1;
    }
    if (!k.write(kRcWrite, pid, f.value(), "maintenance sweep complete\n")
             .ok()) {
      (void)k.close(pid, f.value());
      return 1;
    }
    (void)k.close(pid, f.value());
  } else {
    auto f = k.open(kRcOpen, pid, target, OpenFlag::rd);
    if (!f.ok()) {
      k.output(kRcSay, pid, "famregchain: cannot read " + target);
      return 1;
    }
    auto line = k.read_line(kRcReadFile, pid, f.value());
    (void)k.close(pid, f.value());
    k.output(kRcSay, pid,
             "famregchain: " + (line.ok() ? line.value() : std::string()));
  }
  k.output(kRcSay, pid, "famregchain: " + action + " done");
  return 0;
}

ScenarioSpec regchain_spec(const FamilyPoint& point) {
  std::string chain = at(point, "chain");    // c1..c3
  std::string action = at(point, "action");  // exec | write | read
  std::string acl = at(point, "acl");        // open | locked
  std::string priv = at(point, "priv");      // root | user
  int hops = chain.size() == 2 ? chain[1] - '0' : 1;

  ScenarioSpec s;
  s.description = "generated registry chain: " + std::to_string(hops) +
                  " hop(s) to a " + action + " target, " + acl + " keys, " +
                  priv + " invocation";
  s.trace_unit_filter = "famregchain.c";
  s.standard_unix = true;
  sb::add_alice(s);
  s.images = {"fam-regchain", "benign-cmd"};
  sb::add_payload_images(s);
  // The three possible chain targets exist in every member: only the
  // chain's final value decides which one this scenario touches.
  s.world.push_back(sb::dir_op("/opt/family"));
  s.world.push_back(sb::program_op("/opt/family/helper", "benign-cmd"));
  s.world.push_back(sb::dir_op("/var/family"));
  s.world.push_back(sb::dir_op("/var/family/reports", os::kRootUid,
                               os::kRootGid, 0777));
  s.world.push_back(sb::dir_op("/srv/family"));
  s.world.push_back(
      sb::file_op("/srv/family/notice.txt", "family notice of record\n"));
  sb::add_attacker(s, /*with_evil=*/true);
  s.world.push_back(sb::program_op("/usr/sbin/famregchain", "fam-regchain",
                                   os::kRootUid, os::kRootGid,
                                   0755 | os::kSetUidBit));
  std::string target = action == "exec"   ? "/opt/family/helper"
                       : action == "write" ? "/var/family/reports"
                                           : "/srv/family/notice.txt";
  for (int i = 1; i <= hops; ++i) {
    core::SpecRegistryKey key;
    key.path = "HKLM/Family/Chain" + std::to_string(i);
    key.value =
        i < hops ? "HKLM/Family/Chain" + std::to_string(i + 1) : target;
    key.owner = 500;
    key.everyone_write = acl == "open";
    key.used_by_module = "famregchain";
    s.registry.push_back(key);
  }
  os::Uid uid = priv == "root" ? os::kRootUid : 1000;
  s.run.push_back({"/usr/sbin/famregchain",
                   {"famregchain", action},
                   uid,
                   uid,
                   {},
                   "/"});
  s.policy.write_sanction_roots = {"/var/family/reports"};
  s.policy.secret_files = {"/etc/shadow"};
  // Point value-tamper faults at the victim that matters for this
  // action: run the attacker's binary, write into /etc, leak the shadow
  // file.
  s.hints.content_payloads[kRcRead.tag] =
      action == "exec"   ? "/tmp/attacker/evil"
      : action == "write" ? "/etc"
                          : "/etc/shadow";
  return s;
}

const std::vector<ScenarioFamily>& families() {
  static const std::vector<ScenarioFamily> fams = [] {
    std::vector<ScenarioFamily> f;
    ScenarioFamily spool;
    spool.name = "fam-spool";
    spool.description =
        "spool helper: path depth x spool ACL x privilege x buffer guard";
    spool.axes = {{"depth", {"d1", "d2", "d3", "d4"}},
                  {"access", {"open", "owned"}},
                  {"priv", {"setuid", "plain"}},
                  {"guard", {"tight", "roomy"}}};
    spool.materialize = spool_spec;
    f.push_back(std::move(spool));

    ScenarioFamily relay;
    relay.name = "fam-relay";
    relay.description =
        "relay daemon: script length x gate failure mode x perimeter "
        "trust x buffer capacity";
    relay.axes = {{"msgs", {"m1", "m2", "m3"}},
                  {"gate", {"open", "closed"}},
                  {"trust", {"checked", "trusting"}},
                  {"buf", {"b16", "b64", "b256"}}};
    relay.materialize = relay_spec;
    f.push_back(std::move(relay));

    ScenarioFamily regchain;
    regchain.name = "fam-regchain";
    regchain.description =
        "registry chains: hops x final action x key ACL x privilege";
    regchain.axes = {{"chain", {"c1", "c2", "c3"}},
                     {"action", {"exec", "write", "read"}},
                     {"acl", {"open", "locked"}},
                     {"priv", {"root", "user"}}};
    regchain.materialize = regchain_spec;
    f.push_back(std::move(regchain));
    return f;
  }();
  return fams;
}

}  // namespace

const std::vector<ScenarioFamily>& scenario_families() { return families(); }

const core::ScenarioFamily* find_family(const std::string& name) {
  for (const ScenarioFamily& f : families())
    if (f.name == name) return &f;
  return nullptr;
}

std::vector<core::Scenario> family_scenarios(
    const core::ScenarioFamily& family) {
  std::vector<core::Scenario> out;
  for (const ScenarioSpec& spec : core::expand_family(family))
    out.push_back(core::compile_spec(spec, spec_environment()));
  return out;
}

void register_family_environment(core::SpecEnvironment& env) {
  env.images["fam-spool"] = {"fam-spool", family_spool_main};
  env.images["fam-relay"] = {"fam-relay", family_relay_main};
  env.images["fam-regchain"] = {"fam-regchain", family_regchain_main};
  env.handlers["relaygate"] = relaygate_handler;
}

}  // namespace ep::apps
