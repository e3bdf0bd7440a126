#include "os/world.hpp"

#include <stdexcept>
#include <vector>

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

}  // namespace

Ino mkdirs(Kernel& k, const std::string& p, Uid uid, Gid gid, unsigned mode) {
  Ino cur = k.vfs().root();
  std::string sofar = "/";
  const std::vector<std::string> comps = path::components(path::normalize(p));
  for (const auto& comp : comps) {
    // Only the leaf takes the caller's owner and mode: an ancestor this
    // call has to create is root:root 0755, as if it had been declared.
    const bool leaf = &comp == &comps.back();
    const Inode& dir = k.vfs().inode(cur);
    auto it = dir.entries.find(comp);
    if (it != dir.entries.end()) {
      Ino next = it->second;
      if (!k.vfs().inode(next).is_dir())
        throw std::logic_error("world: component is not a directory: " +
                               sofar + comp);
      cur = next;
    } else {
      auto made = leaf ? k.vfs().create_dir(cur, comp, uid, gid, mode)
                       : k.vfs().create_dir(cur, comp, kRootUid, kRootGid,
                                            0755);
      if (!made.ok())
        throw std::logic_error("world: cannot create " + sofar + comp);
      cur = made.value();
    }
    sofar += comp + "/";
  }
  return cur;
}

Ino put_file(Kernel& k, const std::string& p, std::string content, Uid uid,
             Gid gid, unsigned mode) {
  std::string dir = path::dirname(path::normalize(p));
  std::string leaf = path::basename(path::normalize(p));
  Ino dino = dir == "/" ? k.vfs().root() : mkdirs(k, dir);
  const Inode& d = k.vfs().inode(dino);
  auto it = d.entries.find(leaf);
  if (it != d.entries.end()) {
    Inode& existing = k.vfs().mutate(it->second);
    existing.content = std::move(content);
    existing.uid = uid;
    existing.gid = gid;
    existing.mode = mode;
    return it->second;
  }
  auto made = k.vfs().create_file(dino, leaf, uid, gid, mode,
                                  std::move(content));
  if (!made.ok()) throw std::logic_error("world: cannot create file " + p);
  return made.value();
}

Ino put_symlink(Kernel& k, const std::string& linkpath, std::string target,
                Uid uid, Gid gid) {
  std::string dir = path::dirname(path::normalize(linkpath));
  std::string leaf = path::basename(path::normalize(linkpath));
  Ino dino = dir == "/" ? k.vfs().root() : mkdirs(k, dir);
  force_remove(k, linkpath);
  auto made = k.vfs().create_symlink(dino, leaf, uid, gid, std::move(target));
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
  std::string dir = path::dirname(path::normalize(p));
  std::string leaf = path::basename(path::normalize(p));
  auto r = k.vfs().resolve(dir, "/", kRootUid, kRootGid);
  if (!r.ok()) return;
  Ino dino = r.value();
  const Inode& d = k.vfs().inode(dino);
  auto it = d.entries.find(leaf);
  if (it == d.entries.end()) return;
  if (k.vfs().inode(it->second).is_dir())
    (void)k.vfs().remove_dir(dino, leaf);
  else
    (void)k.vfs().remove(dino, leaf);
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
