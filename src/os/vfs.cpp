#include "os/vfs.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/cow.hpp"

namespace ep::os {

namespace {

bool is_dot_name(std::string_view name) { return name == "." || name == ".."; }

/// `s` without its leading slashes.
std::string_view skip_slashes(std::string_view s) {
  std::size_t i = s.find_first_not_of('/');
  return i == std::string_view::npos ? std::string_view{} : s.substr(i);
}

/// Length of `s` with its slashes collapsed and one leading '/' per
/// component: "/a//b/" and "a/b" both count 4 ("/a/b").
std::size_t collapsed_length(std::string_view s) {
  std::size_t n = 0;
  for (s = skip_slashes(s); !s.empty();) {
    std::size_t end = std::min(s.find('/'), s.size());
    n += 1 + end;
    s = skip_slashes(s.substr(end));
  }
  return n;
}

}  // namespace

/// The path text a walk has still to consume, as a stack of segments that
/// borrow from the argument, the cwd and the targets of followed links.
/// Components come off the top segment front to back; a link target is
/// pushed on top, so it is walked before the rest of the path. No segment
/// is ever empty, so `empty()` says the last component has been taken.
/// At most the path, its cwd and one target per followed link are
/// pending, which walk()'s kMaxSymlinkDepth check bounds.
class Vfs::Pending {
 public:
  void push(std::string_view segment) {
    segment = skip_slashes(segment);
    if (segment.empty()) return;
    if (n_ == stack_.size())
      throw std::logic_error("vfs: path walk holds too many segments");
    stack_[n_++] = segment;
  }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  std::string_view next() {
    std::string_view& top = stack_[n_ - 1];
    std::size_t end = std::min(top.find('/'), top.size());
    std::string_view comp = top.substr(0, end);
    top = skip_slashes(top.substr(end));
    if (top.empty()) --n_;
    return comp;
  }

 private:
  std::array<std::string_view, kMaxSymlinkDepth + 2> stack_;
  std::size_t n_ = 0;
};

Vfs::Vfs() {
  slots_.emplace_back();  // ino 0 is never allocated
  root_ = alloc(FileType::directory, kRootUid, kRootGid, 0755);
}

const Vfs::Slot& Vfs::slot(Ino ino) const {
  if (!exists(ino))
    throw std::out_of_range("vfs: no inode " + std::to_string(ino));
  return slots_[ino];
}

Ino Vfs::alloc(FileType type, Uid uid, Gid gid, unsigned mode) {
  Ino ino = static_cast<Ino>(slots_.size());
  auto node = std::make_shared<Inode>();
  node->ino = ino;
  node->type = type;
  node->uid = uid;
  node->gid = gid;
  node->mode = mode;
  slots_.push_back(Slot{std::move(node), kNoIno, {}});
  return ino;
}

Inode& Vfs::mutate(Ino ino) {
  (void)slot(ino);  // bounds check
  // A shared node is still alive in the prototype after the unshare, so
  // previously taken const references stay valid — they just see the
  // pre-write state.
  return unshare(slots_[ino].node);
}

void Vfs::link(Ino dir, std::string_view name, Ino child) {
  mutate(dir).entries.emplace(name, child);
  Slot& s = slots_[child];
  s.parent = dir;
  s.name.assign(name);
}

void Vfs::unlink_entry(Ino dir, std::string_view name) {
  auto& entries = mutate(dir).entries;  // after the unshare: find anew
  auto it = entries.find(name);
  Slot& s = slots_[it->second];
  s.parent = kNoIno;
  s.name.clear();
  entries.erase(it);
}

Ino Vfs::up(Ino dir) const {
  Ino parent = slots_[dir].parent;
  return parent == kNoIno ? root_ : parent;
}

void Vfs::wild_write(Ino ino, std::size_t overflow, char fill) {
  Inode& node = mutate(ino);
  std::size_t n = std::min(overflow, node.redzone.size());
  for (std::size_t i = 0; i < n; ++i) node.redzone[i] = fill;
}

bool Vfs::permits(const Inode& node, Uid uid, Gid gid, Perm perm) {
  unsigned shift = 0;
  if (node.uid == uid) {
    shift = 6;
  } else if (node.gid == gid) {
    shift = 3;
  }
  unsigned bit = 0;
  switch (perm) {
    case Perm::read: bit = 04u << shift; break;
    case Perm::write: bit = 02u << shift; break;
    case Perm::exec: bit = 01u << shift; break;
  }
  return (node.mode & bit) != 0;
}

bool Vfs::permits_with_root(const Inode& node, Uid uid, Gid gid, Perm perm) {
  if (uid == kRootUid) {
    // Root bypasses read/write checks; exec still requires some x bit,
    // matching UNIX semantics.
    if (perm != Perm::exec) return true;
    return (node.mode & (kOwnerExec | kGroupExec | kOtherExec)) != 0;
  }
  return permits(node, uid, gid, perm);
}

SysResult<Ino> Vfs::walk(Pending& todo, Uid uid, Gid gid,
                         bool follow_final) const {
  Ino cur = root_;
  int link_depth = 0;
  while (!todo.empty()) {
    std::string_view comp = todo.next();
    if (comp.size() > kMaxNameLen) return Err::nametoolong;
    if (comp == ".") continue;

    const Inode& dir = inode(cur);
    if (!dir.is_dir()) return Err::notdir;
    if (!permits_with_root(dir, uid, gid, Perm::exec)) return Err::acces;

    if (comp == "..") {
      cur = up(cur);
      continue;
    }

    auto it = dir.entries.find(comp);
    if (it == dir.entries.end()) return Err::noent;
    Ino next = it->second;
    const Inode& child = inode(next);

    if (child.is_symlink()) {
      if (todo.empty() && !follow_final) {
        cur = next;
        continue;
      }
      if (++link_depth > kMaxSymlinkDepth) return Err::loop;
      // The target is walked next; absolute targets restart at /, and a
      // relative one continues from the directory holding the link. The
      // node outlives the walk: nothing mutates this Vfs during it.
      if (path::is_absolute(child.content)) cur = root_;
      todo.push(child.content);
      continue;
    }
    cur = next;
  }
  return cur;
}

SysResult<Ino> Vfs::resolve(std::string_view p, std::string_view cwd, Uid uid,
                            Gid gid, bool follow_final) const {
  if (p.empty()) return Err::noent;
  if (p.size() > kMaxPathLen) return Err::nametoolong;
  Pending todo;
  todo.push(p);
  if (!path::is_absolute(p)) todo.push(cwd);  // walked first
  return walk(todo, uid, gid, follow_final);
}

SysResult<ResolvedParent> Vfs::resolve_parent(std::string_view p,
                                              std::string_view cwd, Uid uid,
                                              Gid gid) const {
  if (p.empty()) return Err::noent;
  if (p.size() > kMaxPathLen) return Err::nametoolong;

  // "/" has no parent entry. A relative p is never all slashes, so only
  // "/", "//", ... lack a leaf.
  std::size_t last = p.find_last_not_of('/');
  if (last == std::string_view::npos) return Err::isdir;
  std::string_view head = p.substr(0, last + 1);
  std::size_t cut = head.rfind('/');
  std::string_view leaf =
      cut == std::string_view::npos ? head : head.substr(cut + 1);
  std::string_view dir_part =
      cut == std::string_view::npos ? std::string_view{} : head.substr(0, cut);
  if (leaf.size() > kMaxNameLen) return Err::nametoolong;

  Pending todo;
  todo.push(dir_part);
  if (!path::is_absolute(p)) {
    // The cwd joined with the directory part is a path of its own, held
    // to the same limit.
    if (collapsed_length(cwd) + collapsed_length(dir_part) > kMaxPathLen)
      return Err::nametoolong;
    todo.push(cwd);
  }
  auto r = walk(todo, uid, gid, /*follow_final=*/true);
  if (!r.ok()) return r.error();
  Ino dir = r.value();
  const Inode& d = inode(dir);
  if (!d.is_dir()) return Err::notdir;
  if (!permits_with_root(d, uid, gid, Perm::exec)) return Err::acces;

  ResolvedParent out;
  out.dir_ino = dir;
  out.leaf.assign(leaf);
  if (is_dot_name(leaf)) {
    out.leaf_ino = leaf == "." ? dir : up(dir);
    out.canonical = canonical_path(out.leaf_ino);
    return out;
  }
  auto it = d.entries.find(leaf);
  out.leaf_ino = it == d.entries.end() ? kNoIno : it->second;
  out.canonical = path_of(dir, leaf);
  return out;
}

std::string Vfs::path_of(Ino dir, std::string_view leaf) const {
  std::size_t len = leaf.empty() ? 0 : 1 + leaf.size();
  for (Ino cur = dir; cur != root_; cur = slots_[cur].parent) {
    if (slots_[cur].parent == kNoIno) {
      std::string detached = "<detached:" + std::to_string(dir) + ">";
      if (!leaf.empty()) (detached += '/') += leaf;
      return detached;
    }
    len += 1 + slots_[cur].name.size();
  }
  if (len == 0) return "/";
  // Filled back to front: every name lands after its own '/'.
  std::string out(len, '/');
  std::size_t pos = len;
  auto place = [&](std::string_view name) {
    pos -= name.size();
    std::copy(name.begin(), name.end(), out.begin() + pos);
    --pos;
  };
  if (!leaf.empty()) place(leaf);
  for (Ino cur = dir; cur != root_; cur = slots_[cur].parent)
    place(slots_[cur].name);
  return out;
}

std::string Vfs::canonical_path(Ino ino) const { return path_of(ino, {}); }

SysResult<std::string> Vfs::canonicalize(std::string_view p,
                                         std::string_view cwd, Uid uid,
                                         Gid gid) const {
  auto r = resolve(p, cwd, uid, gid, /*follow_final=*/true);
  if (!r.ok()) return r.error();
  return canonical_path(r.value());
}

SysResult<Ino> Vfs::create_file(Ino dir, std::string_view name, Uid uid,
                                Gid gid, unsigned mode, std::string content) {
  const Inode& d = inode(dir);
  if (!d.is_dir()) return Err::notdir;
  if (name.empty() || name.size() > kMaxNameLen) return Err::nametoolong;
  if (d.entries.count(name)) return Err::exist;
  Ino ino = alloc(FileType::regular, uid, gid, mode);
  mutate(ino).content = std::move(content);
  link(dir, name, ino);
  return ino;
}

SysResult<Ino> Vfs::create_dir(Ino dir, std::string_view name, Uid uid,
                               Gid gid, unsigned mode) {
  const Inode& d = inode(dir);
  if (!d.is_dir()) return Err::notdir;
  if (name.empty() || name.size() > kMaxNameLen) return Err::nametoolong;
  if (d.entries.count(name)) return Err::exist;
  Ino ino = alloc(FileType::directory, uid, gid, mode);
  link(dir, name, ino);
  return ino;
}

SysResult<Ino> Vfs::create_symlink(Ino dir, std::string_view name, Uid uid,
                                   Gid gid, std::string target) {
  const Inode& d = inode(dir);
  if (!d.is_dir()) return Err::notdir;
  if (name.empty() || name.size() > kMaxNameLen) return Err::nametoolong;
  if (d.entries.count(name)) return Err::exist;
  Ino ino = alloc(FileType::symlink, uid, gid, 0777);
  mutate(ino).content = std::move(target);
  link(dir, name, ino);
  return ino;
}

SysStatus Vfs::remove(Ino dir, std::string_view name) {
  const Inode& d = inode(dir);
  auto it = d.entries.find(name);
  if (it == d.entries.end()) return Err::noent;
  if (inode(it->second).is_dir()) return Err::isdir;
  // The inode is detached, not destroyed: open descriptors keep it alive,
  // which is what makes fd-based (fexecve-style) checks immune to the
  // unlink/recreate perturbation.
  unlink_entry(dir, name);
  return ok_status();
}

SysStatus Vfs::remove_dir(Ino dir, std::string_view name) {
  const Inode& d = inode(dir);
  auto it = d.entries.find(name);
  if (it == d.entries.end()) return Err::noent;
  const Inode& victim = inode(it->second);
  if (!victim.is_dir()) return Err::notdir;
  if (!victim.entries.empty()) return Err::notempty;
  unlink_entry(dir, name);
  return ok_status();
}

SysStatus Vfs::rename_entry(Ino src_dir, std::string_view src_name,
                            Ino dst_dir, std::string_view dst_name) {
  const Inode& sd = inode(src_dir);
  auto it = sd.entries.find(src_name);
  if (it == sd.entries.end()) return Err::noent;
  if (dst_name.empty() || dst_name.size() > kMaxNameLen)
    return Err::nametoolong;
  Ino moving = it->second;
  const Inode& dd = inode(dst_dir);
  if (!dd.is_dir()) return Err::notdir;
  // A directory cannot become its own descendant: linking it under its
  // subtree would cut that subtree off the root in a parent-link cycle.
  for (Ino up = dst_dir; up != kNoIno; up = slots_[up].parent)
    if (up == moving) return Err::inval;
  // Replace an existing target as rename(2) does: a directory only by a
  // directory and only while empty, a non-directory only by a
  // non-directory.
  auto dit = dd.entries.find(dst_name);
  if (dit != dd.entries.end()) {
    if (dit->second == moving) return ok_status();
    const Inode& target = inode(dit->second);
    if (inode(moving).is_dir() != target.is_dir())
      return target.is_dir() ? Err::isdir : Err::notdir;
    if (target.is_dir() && !target.entries.empty()) return Err::notempty;
    unlink_entry(dst_dir, dst_name);
  }
  unlink_entry(src_dir, src_name);
  link(dst_dir, dst_name, moving);
  return ok_status();
}

void Vfs::detach(Ino dir, std::string_view name) {
  const Inode& d = inode(dir);
  if (d.entries.find(name) == d.entries.end()) return;
  unlink_entry(dir, name);
}

SysResult<StatInfo> Vfs::stat_inode(Ino ino) const {
  if (!exists(ino)) return Err::noent;
  const Inode& n = inode(ino);
  StatInfo s;
  s.ino = n.ino;
  s.type = n.type;
  s.uid = n.uid;
  s.gid = n.gid;
  s.mode = n.mode;
  s.size = n.content.size();
  s.trusted = n.trusted;
  return s;
}

std::vector<std::string> Vfs::list_all_paths() const {
  std::vector<std::string> out;
  // Depth-first over the namespace.
  std::vector<Ino> stack{root_};
  while (!stack.empty()) {
    Ino cur = stack.back();
    stack.pop_back();
    const Inode& n = inode(cur);
    if (cur != root_) out.push_back(canonical_path(cur));
    if (n.is_dir())
      for (const auto& [name, child] : n.entries) stack.push_back(child);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Vfs::check_invariants() const {
  // Detached (unlinked but still allocated) inodes are legal; the checks
  // below verify that the *linked* namespace is internally consistent.
  for (Ino ino = 1; ino < ino_end(); ++ino) {
    const Slot& s = slots_[ino];
    if (s.node->is_dir()) {
      for (const auto& [name, child] : s.node->entries) {
        if (is_dot_name(name))
          return "entry named " + name + " in ino " + std::to_string(ino);
        if (!exists(child))
          return "dangling entry " + name + " in ino " + std::to_string(ino);
        if (slots_[child].parent != ino)
          return "parent link mismatch for " + name;
        if (slots_[child].name != name) return "name mismatch for " + name;
      }
    }
    if (s.parent == kNoIno) continue;
    if (!exists(s.parent)) return "parent link points at dead dir";
    if (s.name.empty())
      return "linked inode " + std::to_string(ino) + " has no name";
    const Inode& d = inode(s.parent);
    auto eit = d.entries.find(s.name);
    if (eit == d.entries.end() || eit->second != ino)
      return "entry/name disagreement for " + std::to_string(ino);
  }
  return {};
}

}  // namespace ep::os
