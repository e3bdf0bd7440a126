// NT-style registry substrate for the Section 4.2 case study.
//
// The registry is "an organized store for operating system's and
// application's data which are globally shared" — i.e., an environment
// entity. The security-relevant attributes are the per-key ACL (the paper
// scans for keys *everyone* may modify), the value (which modules trust),
// and existence. Reads by modules under test are routed through the
// kernel hook chain, so key values are a perturbable input like any other
// environment input.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "os/redzone.hpp"
#include "util/result.hpp"

namespace ep::reg {

struct Acl {
  os::Uid owner = os::kRootUid;  // SYSTEM
  bool everyone_read = true;
  /// The misconfiguration Section 4.2 hunts: any user may set the value.
  bool everyone_write = false;
};

struct Key {
  std::string path;  // e.g. "HKLM/Software/FontPath"
  std::string value;
  Acl acl;
  /// Static cross-reference: which module reads this key. Empty when the
  /// paper's situation applies — "lack of knowledge of how those modules
  /// work" — and the key cannot be perturb-tested yet.
  std::string used_by_module;
  bool trusted = true;
  /// Poisoned guard region conceptually adjacent to `value`; legitimate
  /// value writes replace the value wholesale and never touch it (see
  /// os/redzone.hpp). Copied with its key when a clone first writes the
  /// table.
  os::redzone::Guard redzone;
};

/// The key table is shared copy-on-write between world snapshots
/// (util/cow.hpp): a clone copies one pointer, and only a write that
/// changes a key (a regkey perturber, a permitted write_value) copies the
/// table, privately to that world.
class Registry {
 public:
  void define_key(Key key);
  [[nodiscard]] const Key* find(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return keys_->size(); }

  // --- module-side operations (hooked) -------------------------------------
  /// Read a value as the module under test; an interaction point with
  /// input (the value), so both fault kinds apply here.
  SysResult<std::string> read_value(os::Kernel& k, const os::Site& site,
                                    os::Pid pid, const std::string& path);
  /// Write a value with ACL enforcement (everyone_write or owner/root).
  SysStatus write_value(os::Kernel& k, const os::Site& site, os::Pid pid,
                        const std::string& path, const std::string& value);

  // --- perturbation / attacker surface (unhooked, direct state access) ----
  /// What any user can do to an everyone-write key; returns false (and
  /// leaves the value) if the ACL actually protects the key.
  bool attacker_set_value(os::Uid attacker, const std::string& path,
                          const std::string& value);
  void set_value(const std::string& path, const std::string& value);
  void set_everyone_write(const std::string& path, bool everyone_write);
  void set_trusted(const std::string& path, bool trusted);
  void remove_key(const std::string& path);
  /// Simulate a write running `overflow` bytes past the end of the key's
  /// value: silently clobbers the leading bytes of its guard region. The
  /// injection half of the redzone oracle (no report here; detection is
  /// in read_value/write_value and validate_redzones).
  void wild_write(const std::string& path, std::size_t overflow,
                  char fill = '!');

  /// Teardown sweep over every key's guard region, in key-path order
  /// (deterministic: the table is a sorted map). Reports through the kernel's
  /// hook chain; driven from core::TargetWorld::validate_redzones()
  /// alongside os::Kernel::validate_redzones().
  void validate_redzones(os::Kernel& k) const;

  // --- the static-analysis scan from Section 4.2 ---------------------------
  /// Keys whose ACL lets everyone write.
  [[nodiscard]] std::vector<Key> unprotected_keys() const;
  /// Unprotected keys with a known consuming module (testable) vs not.
  [[nodiscard]] std::vector<Key> unprotected_with_module() const;
  [[nodiscard]] std::vector<Key> unprotected_without_module() const;

 private:
  using Table = std::map<std::string, Key>;
  /// The key at `path`, made writable (the table unshared first), or null
  /// without a copy when there is no such key.
  Key* writable(const std::string& path);

  std::shared_ptr<Table> keys_ = std::make_shared<Table>();
};

}  // namespace ep::reg
