// Virtual file system: the environment entity store.
//
// Everything Table 6 perturbs about the file system is first-class state
// here: existence (the namespace), ownership (uid/gid), permission (mode
// bits), symbolic links (link inodes with targets), content and name
// invariance (data and directory entries), plus a `trusted` attribute used
// by the entity-trustability perturbation.
//
// Vfs is deliberately policy-free: it implements mechanism (resolution,
// entries, permission *predicates*) and leaves enforcement to the Kernel,
// which knows the calling process's credentials. This lets perturbers and
// the oracle query "could uid U write inode I?" without a process.
//
// Copy-on-write: inodes are held through shared_ptr in one flat table
// indexed by ino, beside each node's parent ino and its name in that
// parent. Copying a Vfs copies that one vector (a pointer, a parent ino
// and a short name per slot); every node is *shared* with the original.
// All mutation goes through mutate(), which unshares a node the first
// time a given Vfs writes it. That makes Vfs copies cheap world snapshots
// (see core/snapshot.hpp): a frozen prototype built once can be cloned
// per injection run, and a run's perturbations only ever touch that run's
// private copies. Sharing is thread-safe as long as the prototype is
// never mutated while clones exist: clones on different threads only read
// shared nodes (unsharing copies from them) and only write nodes they
// alone own — use_count()==1 proves sole ownership because no other
// thread can hold a reference into this Vfs's table.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "os/path.hpp"
#include "os/redzone.hpp"
#include "os/types.hpp"
#include "util/result.hpp"

namespace ep::os {

enum class FileType { regular, directory, symlink };

struct Inode {
  Ino ino = kNoIno;
  FileType type = FileType::regular;
  Uid uid = kRootUid;
  Gid gid = kRootGid;
  unsigned mode = 0644;  // permission bits + kSetUidBit
  /// Regular files: data. Symlinks: link target path.
  std::string content;
  /// Directories: name -> child inode. The transparent comparator lets a
  /// path walk look a component up by string_view.
  std::map<std::string, Ino, std::less<>> entries;
  /// Name of the registered application image this file executes as, empty
  /// for plain data files. The simulated equivalent of an ELF header.
  std::string image;
  /// Entity-trustability attribute (Table 6): perturbations may mark an
  /// entity as originating from an untrusted subject.
  bool trusted = true;
  /// Poisoned guard region conceptually adjacent to `content`. Legitimate
  /// writes replace content wholesale and never touch it; the Kernel
  /// checks it on read/write and at run teardown (see os/redzone.hpp).
  /// Copied verbatim by mutate()'s unsharing copy, so poison — and any
  /// corruption — survives COW cloning.
  redzone::Guard redzone;

  [[nodiscard]] bool is_dir() const { return type == FileType::directory; }
  [[nodiscard]] bool is_symlink() const { return type == FileType::symlink; }
  [[nodiscard]] bool is_regular() const { return type == FileType::regular; }
  [[nodiscard]] bool setuid() const { return (mode & kSetUidBit) != 0; }
};

/// Result of resolving a path down to (but not through) its final
/// component: the directory that holds the leaf, the leaf name, and the
/// leaf inode if it exists.
struct ResolvedParent {
  Ino dir_ino = kNoIno;
  std::string leaf;
  Ino leaf_ino = kNoIno;  // kNoIno if the leaf does not exist
  /// Canonical absolute path of dir + leaf (symlinks in the *directory*
  /// part resolved; the leaf itself is not followed). For a `.` or `..`
  /// leaf, the canonical path of the directory it names.
  std::string canonical;

  /// A final `.` or `..` names a directory (leaf_ino), never an entry of
  /// dir_ino: no call may create, remove or rename it.
  [[nodiscard]] bool dot_leaf() const { return leaf == "." || leaf == ".."; }
};

struct StatInfo {
  Ino ino = kNoIno;
  FileType type = FileType::regular;
  Uid uid = kRootUid;
  Gid gid = kRootGid;
  unsigned mode = 0;
  std::size_t size = 0;
  bool trusted = true;

  [[nodiscard]] bool setuid() const { return (mode & kSetUidBit) != 0; }
};

class Vfs {
 public:
  Vfs();

  // --- inode access -------------------------------------------------------
  [[nodiscard]] Ino root() const { return root_; }
  [[nodiscard]] bool exists(Ino ino) const {
    return ino > 0 && static_cast<std::size_t>(ino) < slots_.size();
  }
  /// Inos are dense and never reused: every ino in [1, ino_end()) is
  /// allocated, linked or detached, for the life of this Vfs.
  [[nodiscard]] Ino ino_end() const { return static_cast<Ino>(slots_.size()); }
  /// Precondition: exists(ino). Throws std::out_of_range otherwise.
  /// The returned reference may go stale for *this* Vfs if the node is
  /// later mutate()d while still shared with a copy; re-fetch after any
  /// call that can mutate (in the kernel: after dispatching hooks).
  [[nodiscard]] const Inode& inode(Ino ino) const { return *slot(ino).node; }
  /// The directory holding `ino`, or kNoIno for the root and for a
  /// detached node. Precondition: exists(ino).
  [[nodiscard]] Ino parent(Ino ino) const { return slot(ino).parent; }
  /// Writable access with copy-on-write: unshares the node if any Vfs
  /// copy still shares it, so the write never leaks into the prototype or
  /// sibling clones. Precondition: exists(ino).
  [[nodiscard]] Inode& mutate(Ino ino);
  /// True when the node is still shared with another Vfs copy (test/debug
  /// introspection for the snapshot layer).
  [[nodiscard]] bool shares_node(Ino ino) const {
    return exists(ino) && slots_[ino].node.use_count() > 1;
  }

  // --- permission predicates (mechanism only; root bypass is Kernel policy)
  /// Would credentials (uid, gid) pass the rwx check on `node`?
  /// No root bypass here: the caller decides whether uid 0 is special.
  [[nodiscard]] static bool permits(const Inode& node, Uid uid, Gid gid,
                                    Perm perm);
  /// Convenience with the kernel's rule: uid 0 passes read/write always and
  /// exec if any x bit is set.
  [[nodiscard]] static bool permits_with_root(const Inode& node, Uid uid,
                                              Gid gid, Perm perm);

  // --- resolution ----------------------------------------------------------
  /// Full resolution: follow directories and symlinks (including a final
  /// symlink when follow_final is true). Path may be relative to cwd.
  /// Errors: noent, notdir, loop, acces (missing search permission; the
  /// credential pair is used with the root bypass), nametoolong.
  [[nodiscard]] SysResult<Ino> resolve(std::string_view p,
                                       std::string_view cwd, Uid uid, Gid gid,
                                       bool follow_final = true) const;

  /// Resolve the parent directory of p; the final component is looked up
  /// but never followed. Used by open(O_CREAT), unlink, symlink, rename.
  /// A final `.` or `..` resolves to the directory it names (see
  /// ResolvedParent::dot_leaf).
  [[nodiscard]] SysResult<ResolvedParent> resolve_parent(std::string_view p,
                                                         std::string_view cwd,
                                                         Uid uid,
                                                         Gid gid) const;

  /// Canonical absolute path of an existing inode, built once from parent
  /// links ("<detached:N>" for a node no longer reachable from the root).
  [[nodiscard]] std::string canonical_path(Ino ino) const;

  /// Resolve fully and return the canonical path, following symlinks.
  [[nodiscard]] SysResult<std::string> canonicalize(std::string_view p,
                                                    std::string_view cwd,
                                                    Uid uid, Gid gid) const;

  // --- namespace mutation (no permission checks; Kernel enforces) ---------
  /// Create a regular file in directory `dir` under `name`.
  SysResult<Ino> create_file(Ino dir, std::string_view name, Uid uid,
                             Gid gid, unsigned mode, std::string content = {});
  SysResult<Ino> create_dir(Ino dir, std::string_view name, Uid uid, Gid gid,
                            unsigned mode);
  SysResult<Ino> create_symlink(Ino dir, std::string_view name, Uid uid,
                                Gid gid, std::string target);
  /// Unlink `name` from `dir`; the inode stays allocated (detached), so
  /// open descriptors keep working. Errors: noent, isdir (use remove_dir),
  /// notempty.
  SysStatus remove(Ino dir, std::string_view name);
  SysStatus remove_dir(Ino dir, std::string_view name);
  /// Rename within or across directories. An existing target is replaced
  /// as on Linux: a non-directory by a non-directory, an empty directory
  /// by a directory. Errors: noent, nametoolong, notdir (`dst_dir`, or a
  /// directory moved onto a non-directory), isdir (a non-directory moved
  /// onto a directory), notempty (a directory moved onto a non-empty
  /// one), inval (a directory moved into itself or its own subtree). On
  /// every error the tree is left unchanged.
  SysStatus rename_entry(Ino src_dir, std::string_view src_name, Ino dst_dir,
                         std::string_view dst_name);
  /// Unconditionally detach an entry (file, symlink, or whole directory
  /// subtree). The experimenter's hand: perturbers use this to replace
  /// objects regardless of type; the detached subtree stays allocated.
  void detach(Ino dir, std::string_view name);

  /// Simulate a write that runs `overflow` bytes past the end of the
  /// node's content: silently clobbers the leading min(overflow,
  /// redzone::kSize) bytes of the node's guard region with `fill`.
  /// Goes through mutate(), so the corruption stays private to this Vfs
  /// copy. This is the injection half of the redzone oracle — nothing
  /// reports here; detection happens in the Kernel's checks.
  void wild_write(Ino ino, std::size_t overflow, char fill = '!');

  [[nodiscard]] SysResult<StatInfo> stat_inode(Ino ino) const;

  /// All canonical paths currently reachable from the root, sorted; handy
  /// for invariant checks and test assertions.
  [[nodiscard]] std::vector<std::string> list_all_paths() const;

  /// Structural invariants: every entry points at a live inode, every
  /// linked inode's parent link and name match its directory entry, and
  /// no entry is named `.` or `..`. Returns a description of the first
  /// violation, or empty if consistent.
  [[nodiscard]] std::string check_invariants() const;

 private:
  /// One inode: the node (shared across Vfs copies until first write, see
  /// mutate()), the directory holding it and its name there. A parent of
  /// kNoIno marks the root or a detached node.
  struct Slot {
    std::shared_ptr<Inode> node;
    Ino parent = kNoIno;
    std::string name;
  };

  [[nodiscard]] const Slot& slot(Ino ino) const;
  Ino alloc(FileType type, Uid uid, Gid gid, unsigned mode);
  /// Enter `child` into `dir` under `name`, and unlink it from its parent.
  void link(Ino dir, std::string_view name, Ino child);
  void unlink_entry(Ino dir, std::string_view name);
  /// `..` from `dir`: its parent, or the root for the root itself.
  [[nodiscard]] Ino up(Ino dir) const;
  /// canonical_path(dir) + "/" + leaf, built in one allocation.
  [[nodiscard]] std::string path_of(Ino dir, std::string_view leaf) const;
  /// The path text a walk has still to consume (defined in vfs.cpp).
  class Pending;
  /// Walk `todo` from the root, component by component.
  SysResult<Ino> walk(Pending& todo, Uid uid, Gid gid,
                      bool follow_final) const;

  /// Indexed by ino. Slot 0 is never allocated. Growing the vector moves
  /// only the pointers, so inode references stay valid across alloc().
  std::vector<Slot> slots_;
  Ino root_ = kNoIno;
};

}  // namespace ep::os
