#include "os/kernel.hpp"

#include <stdexcept>

#include "util/cow.hpp"
#include "util/strings.hpp"

namespace ep::os {

namespace {

std::string summarize_args(const std::vector<std::string>& args) {
  return ep::join(args, " ");
}

/// Restricted deletion (the sticky bit): in a sticky directory only the
/// entry's owner, the directory's owner, or root may remove or rename an
/// entry, even when the directory itself is writable.
bool sticky_denies(const Process& p, const Inode& dir, const Inode& victim) {
  if ((dir.mode & kStickyBit) == 0) return false;
  return p.euid != kRootUid && p.euid != dir.uid && p.euid != victim.uid;
}

}  // namespace

Kernel::Kernel()
    : users_(std::make_shared<UserTable>()),
      images_(std::make_shared<ImageTable>()) {
  (*users_)[kRootUid] = {"root", kRootGid};
}

void Kernel::add_user(Uid uid, std::string name, Gid gid) {
  unshare(users_)[uid] = {std::move(name), gid};
}

std::string Kernel::user_name(Uid uid) const {
  auto it = users_->find(uid);
  return it == users_->end() ? "uid" + std::to_string(uid)
                             : it->second.first;
}

void Kernel::register_image(const std::string& name, AppImage image) {
  unshare(images_)[name] = std::move(image);
}

bool Kernel::has_image(const std::string& name) const {
  return images_->count(name) != 0;
}

Pid Kernel::make_process(Uid ruid, Gid rgid, std::string cwd,
                         std::map<std::string, std::string> env) {
  Pid pid = next_pid_++;
  Process p;
  p.pid = pid;
  p.ruid = ruid;
  p.euid = ruid;
  p.rgid = rgid;
  p.egid = rgid;
  p.cwd = std::move(cwd);
  p.env = std::move(env);
  procs_[pid] = std::move(p);
  return pid;
}

Process& Kernel::proc(Pid pid) {
  auto it = procs_.find(pid);
  if (it == procs_.end())
    throw std::logic_error("no such process: " + std::to_string(pid));
  return it->second;
}

const Process& Kernel::proc(Pid pid) const {
  auto it = procs_.find(pid);
  if (it == procs_.end())
    throw std::logic_error("no such process: " + std::to_string(pid));
  return it->second;
}

bool Kernel::has_proc(Pid pid) const { return procs_.count(pid) != 0; }

void Kernel::add_interposer(std::shared_ptr<Interposer> hook) {
  run_.hooks.push_back(std::move(hook));
}

void Kernel::clear_interposers() { run_.hooks.clear(); }

void Kernel::dispatch_before(SyscallCtx& ctx) {
  for (auto& h : run_.hooks) h->before(*this, ctx);
}

void Kernel::dispatch_after(SyscallCtx& ctx, Err result) {
  for (auto& h : run_.hooks) h->after(*this, ctx, result);
}

bool Kernel::ancestor_untrusted(Ino ino) const {
  // An untrusted directory taints everything below it (the paper's
  // profile-directory trustability case): walk the parent links up to
  // the root, or to the top of a detached subtree.
  for (Ino cur = ino; cur != kNoIno; cur = vfs_.parent(cur))
    if (!vfs_.inode(cur).trusted) return true;
  return false;
}

void Kernel::describe_object(SyscallCtx& ctx, Ino ino) const {
  ctx.object = ino;
  if (vfs_.exists(ino)) {
    ctx.canonical = vfs_.canonical_path(ino);
    ctx.object_untrusted = ancestor_untrusted(ino);
    if (ctx.pid >= 0 && has_proc(ctx.pid)) {
      const Process& p = proc(ctx.pid);
      const Inode& node = vfs_.inode(ino);
      ctx.object_ruid_readable =
          Vfs::permits_with_root(node, p.ruid, p.rgid, Perm::read);
      ctx.object_ruid_writable =
          Vfs::permits_with_root(node, p.ruid, p.rgid, Perm::write);
    }
  }
}

bool Kernel::uid_can(Uid uid, Gid gid, const std::string& p, Perm perm) const {
  auto r = vfs_.resolve(p, "/", kRootUid, kRootGid);
  if (!r.ok()) return false;
  return Vfs::permits_with_root(vfs_.inode(r.value()), uid, gid, perm);
}

SysResult<std::string> Kernel::peek(const std::string& p) const {
  auto r = vfs_.resolve(p, "/", kRootUid, kRootGid);
  if (!r.ok()) return r.error();
  const Inode& n = vfs_.inode(r.value());
  if (!n.is_regular()) return Err::isdir;
  return n.content;
}

// --- open / close / read / write -------------------------------------------

SysResult<Fd> Kernel::open(const Site& site, Pid pid, const std::string& pth,
                           OpenFlags flags, unsigned create_mode) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "open", pth);
  // Summarize intent for hooks: perturbers and the oracle distinguish
  // read-only opens (disclosure risk) from writing/creating opens
  // (clobbering risk).
  if (flags.has(OpenFlag::rd)) ctx.aux += "r";
  if (flags.has(OpenFlag::wr)) ctx.aux += "w";
  if (flags.has(OpenFlag::creat)) ctx.aux += "c";
  if (flags.has(OpenFlag::excl)) ctx.aux += "x";
  if (flags.has(OpenFlag::trunc)) ctx.aux += "t";
  Fd fd = -1;
  Err e = interact(ctx, [&] {
    auto rp = vfs_.resolve_parent(pth, p.cwd, p.euid, p.egid);
    if (!rp.ok()) return rp.error();
    ResolvedParent cur = rp.value();

    // Follow a final-component symlink chain by hand so that O_CREAT can
    // create *through* a dangling link (the classic spool-file attack)
    // while O_EXCL and O_NOFOLLOW refuse links outright.
    int depth = 0;
    while (cur.leaf_ino != kNoIno && vfs_.inode(cur.leaf_ino).is_symlink()) {
      if (flags.has(OpenFlag::nofollow)) return Err::loop;
      if (flags.has(OpenFlag::creat) && flags.has(OpenFlag::excl))
        return Err::exist;
      if (++depth > kMaxSymlinkDepth) return Err::loop;
      const std::string& target = vfs_.inode(cur.leaf_ino).content;
      std::string base = path::dirname(cur.canonical);
      std::string next =
          path::is_absolute(target) ? target : path::join(base, target);
      auto nrp = vfs_.resolve_parent(next, p.cwd, p.euid, p.egid);
      if (!nrp.ok()) return nrp.error();
      cur = nrp.value();
    }

    Ino file_ino = kNoIno;
    if (cur.leaf_ino != kNoIno) {
      if (flags.has(OpenFlag::creat) && flags.has(OpenFlag::excl)) {
        describe_object(ctx, cur.leaf_ino);
        ctx.object_preexisting = true;
        return Err::exist;
      }
      const Inode& node = vfs_.inode(cur.leaf_ino);
      if (node.is_dir() &&
          (flags.has(OpenFlag::wr) || flags.has(OpenFlag::creat)))
        return Err::isdir;
      if (flags.has(OpenFlag::rd) &&
          !Vfs::permits_with_root(node, p.euid, p.egid, Perm::read))
        return Err::acces;
      if (flags.has(OpenFlag::wr) &&
          !Vfs::permits_with_root(node, p.euid, p.egid, Perm::write))
        return Err::acces;
      if (flags.has(OpenFlag::trunc) && flags.has(OpenFlag::wr))
        vfs_.mutate(cur.leaf_ino).content.clear();
      file_ino = cur.leaf_ino;
      ctx.object_preexisting = true;
    } else {
      if (!flags.has(OpenFlag::creat)) return Err::noent;
      const Inode& dir = vfs_.inode(cur.dir_ino);
      if (!Vfs::permits_with_root(dir, p.euid, p.egid, Perm::write))
        return Err::acces;
      unsigned mode = create_mode & ~p.umask & kPermMask;
      auto created =
          vfs_.create_file(cur.dir_ino, cur.leaf, p.euid, p.egid, mode);
      if (!created.ok()) return created.error();
      file_ino = created.value();
      ctx.object_preexisting = false;
    }

    describe_object(ctx, file_ino);
    OpenFile of;
    of.ino = file_ino;
    of.flags = flags;
    of.opened_path = pth;
    of.offset = flags.has(OpenFlag::append)
                    ? vfs_.inode(file_ino).content.size()
                    : 0;
    fd = p.next_fd++;
    p.fds[fd] = of;
    return Err::ok;
  });
  if (e != Err::ok) return e;
  return fd;
}

SysStatus Kernel::close(Pid pid, Fd fd) {
  Process& p = proc(pid);
  if (p.fds.erase(fd) == 0) return Err::badf;
  return ok_status();
}

SysResult<std::string> Kernel::read(const Site& site, Pid pid, Fd fd,
                                    std::size_t n) {
  return read_input(site, pid, fd, n, /*line=*/false);
}

SysResult<std::string> Kernel::read_line(const Site& site, Pid pid, Fd fd) {
  return read_input(site, pid, fd, std::string::npos, /*line=*/true);
}

SysResult<std::string> Kernel::read_input(const Site& site, Pid pid, Fd fd,
                                          std::size_t n, bool line) {
  Process& p = proc(pid);
  auto it = p.fds.find(fd);
  if (it == p.fds.end()) return Err::badf;
  OpenFile& of = it->second;
  if (!of.flags.has(OpenFlag::rd)) return Err::badf;
  if (!vfs_.exists(of.ino)) return Err::io;
  // A line read at EOF fails here, unhooked.
  if (line && of.offset >= vfs_.inode(of.ino).content.size()) return Err::io;

  SyscallCtx ctx(site, pid, "read", of.opened_path);
  ctx.has_input = true;
  describe_object(ctx, of.ino);
  ctx.object_preexisting = true;
  Err e = interact(ctx, [&] {
    check_inode_redzone(site, pid, of.ino);
    // Fetched only after the hooks ran: a perturber may have rewritten the
    // node, and under copy-on-write a reference taken earlier could still
    // point at the shared pre-perturbation copy.
    const std::string& content = vfs_.inode(of.ino).content;
    std::string chunk;
    if (line) {
      if (of.offset >= content.size()) {
        // A hook shrank the file below our offset: EOF, like read()'s guard.
        of.offset = content.size();
        return Err::io;
      }
      std::size_t nl = content.find('\n', of.offset);
      std::size_t end = nl == std::string::npos ? content.size() : nl;
      chunk = content.substr(of.offset, end - of.offset);
      of.offset = nl == std::string::npos ? end : nl + 1;  // newline consumed
    } else if (of.offset < content.size()) {
      chunk = content.substr(of.offset, n);
      of.offset += chunk.size();
    }
    ctx.data = std::move(chunk);
    ctx.input = &ctx.data;
    return Err::ok;
  });
  if (e != Err::ok) return e;
  return ctx.data;  // possibly rewritten by an indirect fault
}

SysResult<std::size_t> Kernel::write(const Site& site, Pid pid, Fd fd,
                                     std::string_view data) {
  Process& p = proc(pid);
  auto it = p.fds.find(fd);
  if (it == p.fds.end()) return Err::badf;
  OpenFile& of = it->second;
  if (!of.flags.has(OpenFlag::wr)) return Err::badf;
  if (!vfs_.exists(of.ino)) return Err::io;

  SyscallCtx ctx(site, pid, "write", of.opened_path);
  describe_object(ctx, of.ino);
  ctx.object_preexisting = true;  // refined by the oracle's created-set
  ctx.data = std::string(data);
  interact(ctx, [&] {
    check_inode_redzone(site, pid, of.ino);
    Inode& node = vfs_.mutate(of.ino);
    if (of.flags.has(OpenFlag::append)) of.offset = node.content.size();
    if (node.content.size() < of.offset + data.size())
      node.content.resize(of.offset + data.size());
    node.content.replace(of.offset, data.size(), std::string(data));
    of.offset += data.size();
    return Err::ok;
  });
  return data.size();
}

// --- stat family ------------------------------------------------------------

SysResult<StatInfo> Kernel::stat(const Site& site, Pid pid,
                                 const std::string& pth) {
  return stat_path(site, pid, pth, /*follow=*/true);
}

SysResult<StatInfo> Kernel::lstat(const Site& site, Pid pid,
                                  const std::string& pth) {
  return stat_path(site, pid, pth, /*follow=*/false);
}

SysResult<StatInfo> Kernel::stat_path(const Site& site, Pid pid,
                                      const std::string& pth, bool follow) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, follow ? "stat" : "lstat", pth);
  SysResult<StatInfo> s = Err::noent;
  Err e = interact(ctx, [&] {
    auto r = vfs_.resolve(pth, p.cwd, p.euid, p.egid, follow);
    if (!r.ok()) return r.error();
    describe_object(ctx, r.value());
    ctx.object_preexisting = true;
    s = vfs_.stat_inode(r.value());
    return Err::ok;
  });
  if (e != Err::ok) return e;
  return s;
}

SysResult<StatInfo> Kernel::fstat(Pid pid, Fd fd) {
  Process& p = proc(pid);
  auto it = p.fds.find(fd);
  if (it == p.fds.end()) return Err::badf;
  return vfs_.stat_inode(it->second.ino);
}

SysStatus Kernel::access(const Site& site, Pid pid, const std::string& pth,
                         Perm perm) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "access", pth);
  return status_of(interact(ctx, [&] {
    // access(2) answers for the *real* uid — the check set-uid programs
    // use to ask "could my invoker do this?", and the check half of
    // TOCTTOU.
    auto r = vfs_.resolve(pth, p.cwd, p.ruid, p.rgid, /*follow_final=*/true);
    if (!r.ok()) return r.error();
    describe_object(ctx, r.value());
    ctx.object_preexisting = true;
    if (!Vfs::permits_with_root(vfs_.inode(r.value()), p.ruid, p.rgid, perm))
      return Err::acces;
    return Err::ok;
  }));
}

// --- namespace operations ---------------------------------------------------

SysStatus Kernel::mkdir(const Site& site, Pid pid, const std::string& pth,
                        unsigned mode) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "mkdir", pth);
  return status_of(interact(ctx, [&] {
    auto rp = vfs_.resolve_parent(pth, p.cwd, p.euid, p.egid);
    if (!rp.ok()) return rp.error();
    if (rp.value().leaf_ino != kNoIno) return Err::exist;
    const Inode& dir = vfs_.inode(rp.value().dir_ino);
    if (!Vfs::permits_with_root(dir, p.euid, p.egid, Perm::write))
      return Err::acces;
    auto made = vfs_.create_dir(rp.value().dir_ino, rp.value().leaf, p.euid,
                                p.egid, mode & ~p.umask & kPermMask);
    if (!made.ok()) return made.error();
    describe_object(ctx, made.value());
    ctx.object_preexisting = false;
    return Err::ok;
  }));
}

SysStatus Kernel::rmdir(const Site& site, Pid pid, const std::string& pth) {
  return remove_entry(site, pid, pth, /*dir=*/true);
}

SysStatus Kernel::unlink(const Site& site, Pid pid, const std::string& pth) {
  return remove_entry(site, pid, pth, /*dir=*/false);
}

SysStatus Kernel::remove_entry(const Site& site, Pid pid,
                               const std::string& pth, bool dir) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, dir ? "rmdir" : "unlink", pth);
  return status_of(interact(ctx, [&] {
    auto rp = vfs_.resolve_parent(pth, p.cwd, p.euid, p.egid);
    if (!rp.ok()) return rp.error();
    const ResolvedParent& entry = rp.value();
    if (entry.leaf_ino == kNoIno) return Err::noent;
    // A final `.` or `..` names a directory, not an entry: unlink says
    // EISDIR, rmdir EINVAL for `.` and ENOTEMPTY for `..`, as Linux does.
    if (entry.dot_leaf())
      return !dir ? Err::isdir : entry.leaf == "." ? Err::inval
                                                   : Err::notempty;
    describe_object(ctx, entry.leaf_ino);
    ctx.object_preexisting = true;
    ctx.canonical = entry.canonical;
    const Inode& parent = vfs_.inode(entry.dir_ino);
    if (!Vfs::permits_with_root(parent, p.euid, p.egid, Perm::write))
      return Err::acces;
    if (sticky_denies(p, parent, vfs_.inode(entry.leaf_ino))) return Err::perm;
    SysStatus removed = dir ? vfs_.remove_dir(entry.dir_ino, entry.leaf)
                            : vfs_.remove(entry.dir_ino, entry.leaf);
    return removed.error();
  }));
}

SysStatus Kernel::rename(const Site& site, Pid pid, const std::string& from,
                         const std::string& to) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "rename", from, to);
  return status_of(interact(ctx, [&] {
    auto rf = vfs_.resolve_parent(from, p.cwd, p.euid, p.egid);
    if (!rf.ok()) return rf.error();
    if (rf.value().leaf_ino == kNoIno) return Err::noent;
    auto rt = vfs_.resolve_parent(to, p.cwd, p.euid, p.egid);
    if (!rt.ok()) return rt.error();
    if (rf.value().dot_leaf() || rt.value().dot_leaf()) return Err::busy;
    const Inode& fdir = vfs_.inode(rf.value().dir_ino);
    const Inode& tdir = vfs_.inode(rt.value().dir_ino);
    if (!Vfs::permits_with_root(fdir, p.euid, p.egid, Perm::write) ||
        !Vfs::permits_with_root(tdir, p.euid, p.egid, Perm::write))
      return Err::acces;
    if (sticky_denies(p, fdir, vfs_.inode(rf.value().leaf_ino)))
      return Err::perm;
    if (rt.value().leaf_ino != kNoIno &&
        sticky_denies(p, tdir, vfs_.inode(rt.value().leaf_ino)))
      return Err::perm;
    describe_object(ctx, rf.value().leaf_ino);
    ctx.object_preexisting = rt.value().leaf_ino != kNoIno;
    ctx.canonical = rt.value().canonical;
    SysStatus moved = vfs_.rename_entry(rf.value().dir_ino, rf.value().leaf,
                                        rt.value().dir_ino, rt.value().leaf);
    return moved.error();
  }));
}

SysStatus Kernel::symlink(const Site& site, Pid pid, const std::string& target,
                          const std::string& linkpath) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "symlink", linkpath, target);
  return status_of(interact(ctx, [&] {
    auto rp = vfs_.resolve_parent(linkpath, p.cwd, p.euid, p.egid);
    if (!rp.ok()) return rp.error();
    if (rp.value().leaf_ino != kNoIno) return Err::exist;
    const Inode& dir = vfs_.inode(rp.value().dir_ino);
    if (!Vfs::permits_with_root(dir, p.euid, p.egid, Perm::write))
      return Err::acces;
    auto made = vfs_.create_symlink(rp.value().dir_ino, rp.value().leaf,
                                    p.euid, p.egid, target);
    if (!made.ok()) return made.error();
    describe_object(ctx, made.value());
    return Err::ok;
  }));
}

SysResult<std::string> Kernel::readlink(const Site& site, Pid pid,
                                        const std::string& pth) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "readlink", pth);
  ctx.has_input = true;
  Err e = interact(ctx, [&] {
    auto r = vfs_.resolve(pth, p.cwd, p.euid, p.egid, /*follow_final=*/false);
    if (!r.ok()) return r.error();
    const Inode& n = vfs_.inode(r.value());
    if (!n.is_symlink()) return Err::inval;
    describe_object(ctx, r.value());
    ctx.data = n.content;
    ctx.input = &ctx.data;
    return Err::ok;
  });
  if (e != Err::ok) return e;
  return ctx.data;
}

SysResult<std::vector<std::string>> Kernel::readdir(const Site& site, Pid pid,
                                                    const std::string& pth) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "readdir", pth);
  ctx.has_input = true;
  Err e = interact(ctx, [&] {
    auto r = vfs_.resolve(pth, p.cwd, p.euid, p.egid, /*follow_final=*/true);
    if (!r.ok()) return r.error();
    const Inode& n = vfs_.inode(r.value());
    if (!n.is_dir()) return Err::notdir;
    if (!Vfs::permits_with_root(n, p.euid, p.egid, Perm::read))
      return Err::acces;
    describe_object(ctx, r.value());
    std::vector<std::string> names;
    names.reserve(n.entries.size());
    for (const auto& [name, child] : n.entries) names.push_back(name);
    // Deliver the listing through ctx.data (newline-joined) so indirect
    // faults can rewrite it like any other input.
    ctx.data = ep::join(names, "\n");
    ctx.input = &ctx.data;
    return Err::ok;
  });
  if (e != Err::ok) return e;
  return ep::split_nonempty(ctx.data, '\n');
}

SysStatus Kernel::chmod(const Site& site, Pid pid, const std::string& pth,
                        unsigned mode) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "chmod", pth);
  return status_of(interact(ctx, [&] {
    auto r = vfs_.resolve(pth, p.cwd, p.euid, p.egid, /*follow_final=*/true);
    if (!r.ok()) return r.error();
    const Inode& n = vfs_.inode(r.value());
    describe_object(ctx, r.value());
    ctx.object_preexisting = true;
    if (p.euid != kRootUid && p.euid != n.uid) return Err::perm;
    vfs_.mutate(r.value()).mode = mode & (kPermMask | kSetUidBit | kStickyBit);
    return Err::ok;
  }));
}

SysStatus Kernel::chown(const Site& site, Pid pid, const std::string& pth,
                        Uid uid, Gid gid) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "chown", pth);
  return status_of(interact(ctx, [&] {
    auto r = vfs_.resolve(pth, p.cwd, p.euid, p.egid, /*follow_final=*/true);
    if (!r.ok()) return r.error();
    // Classic UNIX: only root may give files away.
    if (p.euid != kRootUid) return Err::perm;
    describe_object(ctx, r.value());
    ctx.object_preexisting = true;
    Inode& n = vfs_.mutate(r.value());
    n.uid = uid;
    n.gid = gid;
    return Err::ok;
  }));
}

SysStatus Kernel::chdir(const Site& site, Pid pid, const std::string& pth) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "chdir", pth);
  return status_of(interact(ctx, [&] {
    auto r = vfs_.resolve(pth, p.cwd, p.euid, p.egid, /*follow_final=*/true);
    if (!r.ok()) return r.error();
    const Inode& n = vfs_.inode(r.value());
    if (!n.is_dir()) return Err::notdir;
    if (!Vfs::permits_with_root(n, p.euid, p.egid, Perm::exec))
      return Err::acces;
    describe_object(ctx, r.value());
    p.cwd = vfs_.canonical_path(r.value());
    return Err::ok;
  }));
}

std::string Kernel::getcwd(Pid pid) const { return proc(pid).cwd; }

// --- input/output pseudo-syscalls -------------------------------------------

SysResult<std::string> Kernel::getenv(const Site& site, Pid pid,
                                      const std::string& name) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "getenv", {}, name);
  ctx.has_input = true;
  Err e = interact(ctx, [&] {
    auto it = p.env.find(name);
    bool found = it != p.env.end();
    ctx.data = found ? it->second : std::string{};
    ctx.input = &ctx.data;
    return found ? Err::ok : Err::noent;
  });
  // An injected value can materialize a variable the OS never set — the
  // "initialization the programmer never sees" case from Section 2.3.1.
  if (e != Err::ok && ctx.data.empty()) return e;
  return ctx.data;
}

std::string Kernel::arg(const Site& site, Pid pid, std::size_t idx) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "arg", {}, std::to_string(idx));
  ctx.has_input = true;
  interact(ctx, [&] {
    ctx.data = idx < p.args.size() ? p.args[idx] : std::string{};
    ctx.input = &ctx.data;
    return Err::ok;
  });
  return ctx.data;
}

std::size_t Kernel::argc(Pid pid) const { return proc(pid).args.size(); }

void Kernel::output(const Site& site, Pid pid, std::string_view text) {
  Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "output");
  ctx.data = std::string(text);
  interact(ctx, [&] {
    p.stdout_text += text;
    p.stdout_text += '\n';
    return Err::ok;
  });
}

void Kernel::app_fault(const Site& site, Pid pid, AppFault kind,
                       const std::string& detail) {
  SyscallCtx ctx(site, pid, "app_fault");
  switch (kind) {
    case AppFault::buffer_overflow: ctx.aux = "buffer_overflow"; break;
    case AppFault::crash: ctx.aux = "crash"; break;
    case AppFault::assertion: ctx.aux = "assertion"; break;
    case AppFault::redzone_corruption: ctx.aux = "redzone_corruption"; break;
  }
  ctx.data = detail;
  interact(ctx, [] { return Err::ok; });
}

// --- redzone memory oracle --------------------------------------------------

void Kernel::register_redzone_guard(const Site& site, Pid pid,
                                    std::string label,
                                    const redzone::Guard* zone) {
  run_.redzone_guards.push_back({site, pid, std::move(label), zone});
}

void Kernel::unregister_redzone_guard(const redzone::Guard* zone) {
  auto& guards = run_.redzone_guards;
  for (auto it = guards.begin(); it != guards.end(); ++it) {
    if (it->zone != zone) continue;
    if (!redzone::intact(*zone))
      report_redzone_corruption(it->site, it->pid, it->label, *zone);
    guards.erase(it);
    return;
  }
}

void Kernel::report_redzone_corruption(const Site& site, Pid pid,
                                       const std::string& object,
                                       std::string_view zone) {
  if (!redzone_audit_) return;
  // One violation per corrupted region per run, no matter how many
  // syscalls touch it afterwards — keeps reports (and the wire bytes
  // downstream) independent of how often a region happens to be re-read.
  if (!run_.redzone_reported.insert(object).second) return;
  std::size_t n = redzone::clobbered_prefix(zone);
  std::string detail =
      n > 0 ? std::to_string(n) + " byte(s) of poison overwritten past " +
                  object
            : "guard region damaged past " + object;
  // ctx.path holds the object: the oracle's per-object dedup key.
  SyscallCtx ctx(site, pid, "app_fault", object, "redzone_corruption");
  ctx.data = detail;
  interact(ctx, [] { return Err::ok; });
}

void Kernel::check_inode_redzone(const Site& site, Pid pid, Ino ino) {
  if (!redzone_audit_ || !vfs_.exists(ino)) return;
  const Inode& node = vfs_.inode(ino);
  if (redzone::intact(node.redzone)) return;
  report_redzone_corruption(site, pid, vfs_.canonical_path(ino),
                            node.redzone);
}

void Kernel::validate_redzones() {
  if (!redzone_audit_) return;
  const Site sweep{"kernel", 0, "redzone-teardown"};
  // Still-live app guards first, in registration order. Buffers normally
  // validate themselves at destruction (unregister); this catches ones
  // still alive when the run is torn down.
  for (const auto& g : run_.redzone_guards)
    if (g.zone && !redzone::intact(*g.zone))
      report_redzone_corruption(g.site, g.pid, g.label, *g.zone);
  // Then every inode in ino order — a deterministic order regardless of
  // clone history, jobs count, or data plane.
  for (Ino ino = 1; ino < vfs_.ino_end(); ++ino) {
    const Inode& node = vfs_.inode(ino);
    if (!redzone::intact(node.redzone))
      report_redzone_corruption(sweep, -1, vfs_.canonical_path(ino),
                                node.redzone);
  }
}

void Kernel::privileged_action(const Site& site, Pid pid,
                               const std::string& what,
                               bool believes_authorized) {
  SyscallCtx ctx(site, pid, "privileged_action", {}, what);
  ctx.data = believes_authorized ? "authorized" : "unauthorized";
  interact(ctx, [] { return Err::ok; });
}

// --- exec -------------------------------------------------------------------

SysResult<Ino> Kernel::resolve_exec_target(const Process& p,
                                           const std::string& command) {
  auto try_path = [&](const std::string& candidate) {
    return vfs_.resolve(candidate, p.cwd, p.euid, p.egid,
                        /*follow_final=*/true);
  };
  if (ep::contains(command, "/")) return try_path(command);
  // $PATH search: the invisible use of an internal entity Section 2.3.1
  // warns about — the process's environment decides what runs.
  std::string search = "/bin:/usr/bin";
  if (auto it = p.env.find("PATH"); it != p.env.end()) search = it->second;
  for (const auto& dir : ep::split_nonempty(search, ':')) {
    auto t = try_path(path::join(dir, command));
    if (t.ok()) return t;
  }
  return Err::noent;
}

SysResult<int> Kernel::run_process(Process c, Ino ino, const Site& crash_site,
                                   const std::string& invoked_as) {
  const Inode& node = vfs_.inode(ino);
  if (!node.is_regular()) return Err::acces;
  if (!Vfs::permits_with_root(node, c.euid, c.egid, Perm::exec))
    return Err::acces;
  if (node.image.empty() || !images_->count(node.image)) return Err::noexec;
  if (exec_depth_ > 16) return Err::again;  // exec recursion; spawn is at 0

  const Pid cpid = next_pid_++;
  c.pid = cpid;
  if (node.setuid()) c.euid = node.uid;
  c.exe = vfs_.canonical_path(ino);
  procs_[cpid] = std::move(c);

  // Held through the table, not copied: an image that registers another
  // unshares the table, and this reference keeps the one it runs from.
  const std::shared_ptr<const ImageTable> images = images_;
  const AppImage& image = images->at(node.image);
  int code = 0;
  ++exec_depth_;
  try {
    code = image(*this, cpid);
  } catch (const AppCrash& crash) {
    code = crash.code;
    procs_.at(cpid).crashed = true;
    app_fault(crash_site, cpid, AppFault::crash,
              invoked_as + ": " + crash.reason);
  }
  --exec_depth_;
  Process& done = procs_.at(cpid);
  done.exit_code = code;
  console_ += done.stdout_text;
  return code;
}

template <typename Resolve>
SysResult<int> Kernel::exec_interaction(const Site& site, Pid pid,
                                        const std::string& invoked_as,
                                        std::vector<std::string> args,
                                        Resolve&& resolve) {
  const Process& p = proc(pid);
  SyscallCtx ctx(site, pid, "exec", invoked_as, summarize_args(args));
  int code = 0;
  Err e = interact(ctx, [&] {
    SysResult<Ino> target = resolve();
    if (!target.ok()) return target.error();
    describe_object(ctx, target.value());
    ctx.object_preexisting = true;
    Process c;
    c.ppid = pid;
    c.ruid = p.ruid;
    c.rgid = p.rgid;
    c.euid = p.euid;
    c.egid = p.egid;
    c.cwd = p.cwd;
    c.umask = p.umask;
    c.env = p.env;
    c.args = std::move(args);
    SysResult<int> r =
        run_process(std::move(c), target.value(), site, invoked_as);
    if (r.ok()) code = r.value();
    return r.error();
  });
  if (e != Err::ok) return e;
  return code;
}

SysResult<int> Kernel::exec(const Site& site, Pid pid,
                            const std::string& command,
                            std::vector<std::string> args) {
  return exec_interaction(site, pid, command, std::move(args), [&] {
    return resolve_exec_target(proc(pid), command);
  });
}

SysResult<int> Kernel::fexec(const Site& site, Pid pid, Fd fd,
                             std::vector<std::string> args) {
  Process& p = proc(pid);
  auto it = p.fds.find(fd);
  if (it == p.fds.end()) return Err::badf;
  const OpenFile& of = it->second;
  return exec_interaction(
      site, pid, of.opened_path, std::move(args), [&]() -> SysResult<Ino> {
        // Perturbations that rewired the *path* between the program's
        // check and this exec do not bite: the descriptor pins the inode.
        if (!vfs_.exists(of.ino)) return Err::io;
        return of.ino;
      });
}

SysResult<int> Kernel::spawn(const std::string& exe_path,
                             std::vector<std::string> args, Uid ruid, Gid rgid,
                             std::map<std::string, std::string> env,
                             std::string cwd) {
  // The harness invoking the program under test: not an interaction of the
  // program with its environment, so no hooks fire here.
  auto r = vfs_.resolve(exe_path, cwd, ruid, rgid, /*follow_final=*/true);
  if (!r.ok()) return r.error();
  if (env.find("PATH") == env.end()) env["PATH"] = "/bin:/usr/bin";
  Process c;
  c.ppid = 0;
  c.ruid = ruid;
  c.rgid = rgid;
  c.euid = ruid;
  c.egid = rgid;
  c.cwd = std::move(cwd);
  c.env = std::move(env);
  c.args = std::move(args);
  return run_process(std::move(c), r.value(), Site{"kernel", 0, "spawn-crash"},
                     exe_path);
}

}  // namespace ep::os
