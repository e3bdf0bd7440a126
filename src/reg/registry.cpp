#include "reg/registry.hpp"

#include <algorithm>

#include "util/cow.hpp"

namespace ep::reg {

using os::SyscallCtx;

void Registry::define_key(Key key) {
  unshare(keys_)[key.path] = std::move(key);
}

const Key* Registry::find(const std::string& path) const {
  auto it = keys_->find(path);
  return it == keys_->end() ? nullptr : &it->second;
}

Key* Registry::writable(const std::string& path) {
  if (!find(path)) return nullptr;
  return &unshare(keys_).find(path)->second;
}

SysResult<std::string> Registry::read_value(os::Kernel& k,
                                            const os::Site& site, os::Pid pid,
                                            const std::string& path) {
  SyscallCtx ctx(site, pid, "regread", path);
  ctx.has_input = true;
  Err e = k.interact(ctx, [&] {
    // Input even for a missing key: an after-hook may supply a value.
    ctx.input = &ctx.data;
    const Key* key = find(path);
    if (!key) return Err::noent;
    if (!os::redzone::intact(key->redzone))
      k.report_redzone_corruption(site, pid, path, key->redzone);
    ctx.data = key->value;
    ctx.object_untrusted = !key->trusted;
    return Err::ok;
  });
  if (e != Err::ok && ctx.data.empty()) return e;
  return ctx.data;
}

SysStatus Registry::write_value(os::Kernel& k, const os::Site& site,
                                os::Pid pid, const std::string& path,
                                const std::string& value) {
  SyscallCtx ctx(site, pid, "regwrite", path);
  ctx.data = value;
  return status_of(k.interact(ctx, [&] {
    const Key* key = find(path);
    if (!key) return Err::noent;
    if (!os::redzone::intact(key->redzone))
      k.report_redzone_corruption(site, pid, path, key->redzone);
    const os::Process& p = k.proc(pid);
    if (!key->acl.everyone_write && p.euid != os::kRootUid &&
        p.euid != key->acl.owner)
      return Err::acces;
    writable(path)->value = value;
    return Err::ok;
  }));
}

bool Registry::attacker_set_value(os::Uid attacker, const std::string& path,
                                  const std::string& value) {
  const Key* key = find(path);
  if (!key) return false;
  if (!key->acl.everyone_write && attacker != os::kRootUid &&
      attacker != key->acl.owner)
    return false;
  writable(path)->value = value;
  return true;
}

void Registry::set_value(const std::string& path, const std::string& value) {
  if (Key* key = writable(path)) key->value = value;
}

void Registry::set_everyone_write(const std::string& path,
                                  bool everyone_write) {
  if (Key* key = writable(path)) key->acl.everyone_write = everyone_write;
}

void Registry::set_trusted(const std::string& path, bool trusted) {
  if (Key* key = writable(path)) key->trusted = trusted;
}

void Registry::remove_key(const std::string& path) {
  if (find(path)) unshare(keys_).erase(path);
}

void Registry::wild_write(const std::string& path, std::size_t overflow,
                          char fill) {
  Key* key = writable(path);
  if (!key) return;
  os::redzone::Guard& zone = key->redzone;
  std::size_t n = std::min(overflow, zone.size());
  for (std::size_t i = 0; i < n; ++i) zone[i] = fill;
}

void Registry::validate_redzones(os::Kernel& k) const {
  if (!k.redzone_audit()) return;
  const os::Site sweep{"registry", 0, "redzone-teardown"};
  for (const auto& [path, key] : *keys_)
    if (!os::redzone::intact(key.redzone))
      k.report_redzone_corruption(sweep, -1, path, key.redzone);
}

std::vector<Key> Registry::unprotected_keys() const {
  std::vector<Key> out;
  for (const auto& [p, key] : *keys_)
    if (key.acl.everyone_write) out.push_back(key);
  return out;
}

std::vector<Key> Registry::unprotected_with_module() const {
  std::vector<Key> out;
  for (const auto& [p, key] : *keys_)
    if (key.acl.everyone_write && !key.used_by_module.empty())
      out.push_back(key);
  return out;
}

std::vector<Key> Registry::unprotected_without_module() const {
  std::vector<Key> out;
  for (const auto& [p, key] : *keys_)
    if (key.acl.everyone_write && key.used_by_module.empty())
      out.push_back(key);
  return out;
}

}  // namespace ep::reg
