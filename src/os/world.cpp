#include "os/world.hpp"

#include <stdexcept>

#include "os/path.hpp"

namespace ep::os::world {

namespace {

/// Resolve an existing directory as root or die: world-building errors are
/// scenario bugs, not runtime conditions.
Ino need_dir(Kernel& k, const std::string& p) {
  auto r = k.vfs().resolve(p, "/", kRootUid, kRootGid);
  if (!r.ok()) throw std::logic_error("world: missing directory " + p);
  if (!k.vfs().inode(r.value()).is_dir())
    throw std::logic_error("world: not a directory: " + p);
  return r.value();
}

/// A normalized path split at its final component: the directory part
/// ("/" for a top-level or bare leaf) and the leaf, as views into `norm`.
struct DirLeaf {
  std::string_view dir;
  std::string_view leaf;
};

DirLeaf split_leaf(std::string_view norm) {
  std::size_t cut = norm.rfind('/');
  if (cut == std::string_view::npos) return {"/", norm};
  return {cut == 0 ? std::string_view("/") : norm.substr(0, cut),
          norm.substr(cut + 1)};
}

/// mkdirs() on an already normalized path.
Ino make_dirs(Kernel& k, std::string_view norm, Uid uid, Gid gid,
              unsigned mode) {
  Ino cur = k.vfs().root();
  path::for_each_component(norm, [&](std::string_view comp) {
    // Only the leaf takes the caller's owner and mode: an ancestor this
    // call has to create is root:root 0755, as if it had been declared.
    const std::size_t end = comp.data() + comp.size() - norm.data();
    const bool leaf = end == norm.size();
    const Inode& dir = k.vfs().inode(cur);
    auto it = dir.entries.find(comp);
    if (it != dir.entries.end()) {
      Ino next = it->second;
      if (!k.vfs().inode(next).is_dir())
        throw std::logic_error("world: component is not a directory: " +
                               std::string(norm.substr(0, end)));
      cur = next;
      return;
    }
    auto made = leaf ? k.vfs().create_dir(cur, comp, uid, gid, mode)
                     : k.vfs().create_dir(cur, comp, kRootUid, kRootGid,
                                          0755);
    if (!made.ok())
      throw std::logic_error("world: cannot create " +
                             std::string(norm.substr(0, end)));
    cur = made.value();
  });
  return cur;
}

/// Unlink `leaf` from directory `dino` if present, whatever its type.
void remove_leaf(Kernel& k, Ino dino, std::string_view leaf) {
  const Inode& d = k.vfs().inode(dino);
  auto it = d.entries.find(leaf);
  if (it == d.entries.end()) return;
  if (k.vfs().inode(it->second).is_dir())
    (void)k.vfs().remove_dir(dino, leaf);
  else
    (void)k.vfs().remove(dino, leaf);
}

}  // namespace

Ino mkdirs(Kernel& k, std::string_view p, Uid uid, Gid gid, unsigned mode) {
  return make_dirs(k, path::normalize(p), uid, gid, mode);
}

Ino put_file(Kernel& k, const std::string& p, std::string content, Uid uid,
             Gid gid, unsigned mode) {
  const std::string norm = path::normalize(p);
  const DirLeaf at = split_leaf(norm);
  Ino dino = make_dirs(k, at.dir, kRootUid, kRootGid, 0755);
  const Inode& d = k.vfs().inode(dino);
  auto it = d.entries.find(at.leaf);
  if (it != d.entries.end()) {
    Ino ino = it->second;
    Inode& existing = k.vfs().mutate(ino);
    existing.content = std::move(content);
    existing.uid = uid;
    existing.gid = gid;
    existing.mode = mode;
    return ino;
  }
  auto made = k.vfs().create_file(dino, at.leaf, uid, gid, mode,
                                  std::move(content));
  if (!made.ok()) throw std::logic_error("world: cannot create file " + p);
  return made.value();
}

Ino put_symlink(Kernel& k, const std::string& linkpath, std::string target,
                Uid uid, Gid gid) {
  const std::string norm = path::normalize(linkpath);
  const DirLeaf at = split_leaf(norm);
  Ino dino = make_dirs(k, at.dir, kRootUid, kRootGid, 0755);
  remove_leaf(k, dino, at.leaf);
  auto made =
      k.vfs().create_symlink(dino, at.leaf, uid, gid, std::move(target));
  if (!made.ok())
    throw std::logic_error("world: cannot create symlink " + linkpath);
  return made.value();
}

Ino put_program(Kernel& k, const std::string& p, const std::string& image,
                Uid uid, Gid gid, unsigned mode) {
  Ino ino = put_file(k, p, "#!image " + image + "\n", uid, gid, mode);
  k.vfs().mutate(ino).image = image;
  return ino;
}

void force_remove(Kernel& k, const std::string& p) {
  const std::string norm = path::normalize(p);
  const DirLeaf at = split_leaf(norm);
  auto r = k.vfs().resolve(at.dir, "/", kRootUid, kRootGid);
  if (r.ok()) remove_leaf(k, r.value(), at.leaf);
}

void standard_unix(Kernel& k) {
  mkdirs(k, "/etc");
  mkdirs(k, "/bin");
  mkdirs(k, "/usr/bin");
  mkdirs(k, "/usr/local/lib");
  mkdirs(k, "/home");
  mkdirs(k, "/var/spool");
  // /tmp is world-writable; the staging ground for most of the classic
  // attacks the perturbations emulate.
  mkdirs(k, "/tmp", kRootUid, kRootGid, 0777);
  put_file(k, "/etc/passwd", kPasswdContent, kRootUid, kRootGid, 0644);
  put_file(k, "/etc/shadow", kShadowContent, kRootUid, kRootGid, 0600);
  (void)need_dir(k, "/etc");
}

}  // namespace ep::os::world
