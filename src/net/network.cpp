#include "net/network.hpp"

#include <algorithm>

namespace ep::net {

using os::SyscallCtx;

namespace {

/// SyscallCtx::channel_kind's spelling of a channel kind.
const char* kind_name(ChannelKind kind) {
  return kind == ChannelKind::ipc ? "ipc" : "network";
}

}  // namespace

void Network::define_service(ServiceDef def) {
  services_[def.name] = std::move(def);
}

void Network::set_client_script(PeerScript script) {
  script_ = std::move(script);
}

void Network::add_host(const std::string& hostname, const std::string& ip) {
  hosts_[hostname] = ip;
}

void Network::set_dns_reply(const std::string& hostname,
                            const std::string& reply) {
  dns_override_[hostname] = reply;
}

void Network::set_service_available(const std::string& name, bool available) {
  auto it = services_.find(name);
  if (it != services_.end()) it->second.available = available;
}

void Network::set_service_trusted(const std::string& name, bool trusted) {
  auto it = services_.find(name);
  if (it != services_.end()) it->second.trusted = trusted;
}

void Network::spoof_next_inbound(const std::string& claimed_peer) {
  spoof_next_ = true;
  spoof_claimed_ = claimed_peer;
}

void Network::perturb_protocol(ProtocolFault fault) {
  if (!script_ || script_->inbound.empty()) return;
  auto& in = script_->inbound;
  switch (fault) {
    case ProtocolFault::omit_step:
      // Drop the middle step (for an auth protocol, the credential step —
      // the omission attackers actually try).
      in.erase(in.begin() + static_cast<long>(in.size() / 2));
      break;
    case ProtocolFault::extra_step: {
      Message extra;
      extra.from = script_->peer;
      extra.type = "EXTRA";
      extra.payload = "unexpected protocol step";
      in.insert(in.begin() + static_cast<long>(in.size() / 2), extra);
      break;
    }
    case ProtocolFault::reorder_steps:
      if (in.size() >= 2) std::swap(in.front(), in.back());
      break;
  }
}

void Network::share_inbound_socket() {
  share_next_inbound_ = true;
  for (auto& [s, ch] : channels_)
    if (ch.inbound) ch.shared = true;
}

void Network::distrust_inbound() {
  if (script_) distrust_inbound_ = true;
  for (auto& [s, ch] : channels_)
    if (ch.inbound) ch.peer_untrusted = true;
}

bool Network::service_exists(const std::string& name) const {
  return services_.count(name) != 0;
}

bool Network::service_available(const std::string& name) const {
  auto it = services_.find(name);
  return it != services_.end() && it->second.available;
}

SysResult<Sock> Network::accept(os::Kernel& k, const os::Site& site,
                                os::Pid pid) {
  SyscallCtx ctx(site, pid, "accept", script_ ? script_->peer : "");
  ctx.channel_kind = kind_name(script_ ? script_->kind : ChannelKind::network);
  Sock s = -1;
  Err e = k.interact(ctx, [&] {
    if (!script_) return Err::conn;
    s = next_sock_++;
    Channel ch;
    ch.peer_or_service = script_->peer;
    ch.kind = script_->kind;
    ch.inbound = true;
    ch.shared = share_next_inbound_;
    ch.peer_untrusted = distrust_inbound_;
    share_next_inbound_ = false;
    channels_[s] = ch;
    ctx.net_socket_shared = ch.shared;
    return Err::ok;
  });
  if (e != Err::ok) return e;
  return s;
}

SysResult<Message> Network::recv(os::Kernel& k, const os::Site& site,
                                 os::Pid pid, Sock s) {
  auto chit = channels_.find(s);
  if (chit == channels_.end()) return Err::badf;
  Channel& ch = chit->second;
  if (!ch.inbound || !script_) return Err::badf;

  SyscallCtx ctx(site, pid, "recv", ch.peer_or_service);
  ctx.has_input = true;
  ctx.channel_kind = kind_name(ch.kind);
  Message msg;
  Err e = k.interact(ctx, [&] {
    if (ch.cursor >= script_->inbound.size()) return Err::conn;
    msg = script_->inbound[ch.cursor++];
    if (spoof_next_) {
      // The spoof perturbation: the wire says the message came from the
      // expected peer, but it did not.
      msg.authentic = false;
      msg.from = spoof_claimed_.empty() ? ch.peer_or_service : spoof_claimed_;
      spoof_next_ = false;
    }
    // Ground truth for the oracle: does this message land where the
    // protocol specification says the conversation should be?
    if (!script_->expected_protocol.empty()) {
      bool in_order = ch.protocol_pos < script_->expected_protocol.size() &&
                      script_->expected_protocol[ch.protocol_pos] == msg.type;
      if (in_order)
        ++ch.protocol_pos;
      else
        ctx.net_protocol_violation = true;
    }
    ctx.net_unauthentic = !msg.authentic;
    ctx.net_socket_shared = ch.shared;
    ctx.net_peer_untrusted = ch.peer_untrusted;
    ctx.data = msg.payload;
    ctx.input = &ctx.data;
    ctx.aux = msg.type;
    return Err::ok;
  });
  if (e != Err::ok) return e;
  msg.payload = ctx.data;  // indirect faults rewrite the payload
  return msg;
}

SysStatus Network::send(os::Kernel& k, const os::Site& site, os::Pid pid,
                        Sock s, const Message& msg) {
  auto chit = channels_.find(s);
  if (chit == channels_.end()) return Err::badf;
  SyscallCtx ctx(site, pid, "send", chit->second.peer_or_service, msg.type);
  ctx.data = msg.payload;
  ctx.net_socket_shared = chit->second.shared;
  k.interact(ctx, [] { return Err::ok; });
  return ok_status();
}

SysResult<Sock> Network::connect(os::Kernel& k, const os::Site& site,
                                 os::Pid pid, const std::string& service) {
  SyscallCtx ctx(site, pid, "connect", service);
  if (auto kit = services_.find(service); kit != services_.end())
    ctx.channel_kind = kind_name(kit->second.kind);
  Sock s = -1;
  Err e = k.interact(ctx, [&] {
    auto it = services_.find(service);
    if (it == services_.end() || !it->second.available) return Err::conn;
    s = next_sock_++;
    Channel ch;
    ch.peer_or_service = service;
    ch.kind = it->second.kind;
    ch.peer_untrusted = !it->second.trusted;
    channels_[s] = ch;
    ctx.net_peer_untrusted = ch.peer_untrusted;
    return Err::ok;
  });
  if (e != Err::ok) return e;
  return s;
}

SysResult<Message> Network::query(os::Kernel& k, const os::Site& site,
                                  os::Pid pid, Sock s, const Message& msg) {
  auto chit = channels_.find(s);
  if (chit == channels_.end()) return Err::badf;
  Channel& ch = chit->second;
  auto sit = services_.find(ch.peer_or_service);
  if (sit == services_.end()) return Err::badf;

  SyscallCtx ctx(site, pid, "query", ch.peer_or_service, msg.type);
  ctx.has_input = true;
  ctx.channel_kind = kind_name(ch.kind);
  Message reply;
  Err e = k.interact(ctx, [&] {
    const ServiceDef& svc = sit->second;
    if (!svc.available) return Err::conn;
    reply = svc.handler ? svc.handler(msg) : Message{};
    reply.from = svc.name;
    reply.authentic = true;
    ctx.net_peer_untrusted = !svc.trusted;
    // Only a genuine AUTH_OK from a live, trusted authority counts as
    // confirmation the oracle will accept.
    ctx.net_auth_confirmation = svc.trusted && reply.type == "AUTH_OK";
    ctx.data = reply.payload;
    ctx.input = &ctx.data;
    return Err::ok;
  });
  if (e != Err::ok) return e;
  reply.payload = ctx.data;
  return reply;
}

SysResult<std::string> Network::resolve_host(os::Kernel& k,
                                             const os::Site& site, os::Pid pid,
                                             const std::string& host) {
  SyscallCtx ctx(site, pid, "dns", host);
  ctx.has_input = true;
  Err e = k.interact(ctx, [&] {
    std::string reply;
    Err found = Err::ok;
    if (auto it = dns_override_.find(host); it != dns_override_.end()) {
      reply = it->second;
    } else if (auto hit = hosts_.find(host); hit != hosts_.end()) {
      reply = hit->second;
    } else {
      found = Err::noent;
    }
    ctx.data = std::move(reply);
    ctx.input = &ctx.data;
    return found;
  });
  if (e != Err::ok && ctx.data.empty()) return e;
  return ctx.data;
}

bool Network::socket_shared(Sock s) const {
  auto it = channels_.find(s);
  return it != channels_.end() && it->second.shared;
}

bool Network::peer_trusted(Sock s) const {
  auto it = channels_.find(s);
  return it != channels_.end() && !it->second.peer_untrusted;
}

}  // namespace ep::net
