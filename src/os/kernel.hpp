// The simulated kernel: processes + VFS + syscall layer + hook chain.
//
// Every syscall takes a Site (the call-site id in the target program) and
// crosses the interposer chain (see hooks.hpp) once, through interact().
// Permission checks use the calling process's *effective* uid, set-uid
// exec raises privilege, and access(2) checks the *real* uid — the exact
// semantics the paper's vulnerabilities (lpr, turnin) depend on.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "os/hooks.hpp"
#include "os/process.hpp"
#include "os/redzone.hpp"
#include "os/types.hpp"
#include "os/vfs.hpp"
#include "util/result.hpp"

namespace ep::net {
class Network;
}
namespace ep::reg {
class Registry;
}

namespace ep::os {

/// Thrown by application images to simulate an abnormal termination
/// (SIGSEGV after a wild copy, abort, ...). Caught by the kernel's exec
/// machinery and converted into a crashed process + exit code.
struct AppCrash {
  int code = 139;
  std::string reason;
};

/// A registered program body. The simulated equivalent of an on-disk
/// executable: binaries in the VFS name an image (Inode::image); exec
/// looks the image up and runs it in the context of the child process.
using AppImage = std::function<int(Kernel&, Pid)>;

class Kernel {
 public:
  Kernel();

  /// Copying a kernel is the world-snapshot operation: the VFS copy
  /// shares inodes copy-on-write (see vfs.hpp), the user and image tables
  /// are shared until add_user/register_image writes one (a world's build
  /// does; its runs do not), processes are value-copied, and the
  /// RunOnlyState sub-struct (interposer chain, substrate back-pointers)
  /// deliberately copies to fresh — hooks (injector, oracle, recorder)
  /// are per-run state, and sharing live hook objects across runs would
  /// couple them. Default-generated so a member added to Kernel later is
  /// copied by construction.
  Kernel(const Kernel& other) = default;
  Kernel& operator=(const Kernel&) = delete;

  Vfs& vfs() { return vfs_; }
  const Vfs& vfs() const { return vfs_; }

  // --- sibling substrates --------------------------------------------------
  /// Wired by TargetWorld to its own network/registry (and re-wired on
  /// every clone). App images must reach the substrates through these
  /// instead of capturing pointers at build time: a captured pointer
  /// would still aim at the prototype's substrate after a clone, leaking
  /// one run's perturbations into another world. Null for standalone
  /// kernels (unit tests, micro-benches).
  void attach_substrates(net::Network* network, reg::Registry* registry) {
    run_.net = network;
    run_.reg = registry;
  }
  [[nodiscard]] net::Network* network() const { return run_.net; }
  [[nodiscard]] reg::Registry* registry() const { return run_.reg; }

  // --- users ---------------------------------------------------------------
  using UserTable = std::map<Uid, std::pair<std::string, Gid>>;
  void add_user(Uid uid, std::string name, Gid gid);
  [[nodiscard]] std::string user_name(Uid uid) const;
  [[nodiscard]] const UserTable& users() const { return *users_; }

  // --- images --------------------------------------------------------------
  void register_image(const std::string& name, AppImage image);
  [[nodiscard]] bool has_image(const std::string& name) const;

  // --- processes -----------------------------------------------------------
  /// Create a bare process (scenario setup / tests). Not hooked.
  Pid make_process(Uid ruid, Gid rgid, std::string cwd = "/",
                   std::map<std::string, std::string> env = {});
  [[nodiscard]] Process& proc(Pid pid);
  [[nodiscard]] const Process& proc(Pid pid) const;
  [[nodiscard]] bool has_proc(Pid pid) const;

  /// Run the program installed at exe_path as user `ruid` (the paper's
  /// "user invokes the application"): resolves the binary, applies set-uid
  /// semantics, runs the image synchronously, returns its exit code.
  SysResult<int> spawn(const std::string& exe_path,
                       std::vector<std::string> args, Uid ruid, Gid rgid,
                       std::map<std::string, std::string> env = {},
                       std::string cwd = "/");

  /// exec from inside a process: `command` with no '/' is searched along
  /// the process's $PATH (the interaction the PATH perturbations target).
  SysResult<int> exec(const Site& site, Pid pid, const std::string& command,
                      std::vector<std::string> args);

  /// fexecve-style exec through an already-open descriptor: path-based
  /// perturbations between check and exec cannot bite (used by hardened
  /// programs to close the TOCTTOU window).
  SysResult<int> fexec(const Site& site, Pid pid, Fd fd,
                       std::vector<std::string> args);

  // --- file syscalls ---------------------------------------------------
  SysResult<Fd> open(const Site& site, Pid pid, const std::string& path,
                     OpenFlags flags, unsigned create_mode = 0666);
  SysStatus close(Pid pid, Fd fd);
  /// Read up to n bytes from the descriptor (default: to EOF).
  SysResult<std::string> read(const Site& site, Pid pid, Fd fd,
                              std::size_t n = std::string::npos);
  /// Read one '\n'-terminated line (newline consumed, not returned);
  /// Err::io at EOF.
  SysResult<std::string> read_line(const Site& site, Pid pid, Fd fd);
  SysResult<std::size_t> write(const Site& site, Pid pid, Fd fd,
                               std::string_view data);
  SysResult<StatInfo> stat(const Site& site, Pid pid, const std::string& path);
  SysResult<StatInfo> lstat(const Site& site, Pid pid,
                            const std::string& path);
  /// fstat carries no environment interaction (the inode is pinned), so it
  /// is not hooked — which is exactly why fd-based re-checks are immune to
  /// perturbation.
  SysResult<StatInfo> fstat(Pid pid, Fd fd);
  /// access(2): checks with the *real* uid.
  SysStatus access(const Site& site, Pid pid, const std::string& path,
                   Perm perm);
  SysStatus mkdir(const Site& site, Pid pid, const std::string& path,
                  unsigned mode = 0777);
  SysStatus rmdir(const Site& site, Pid pid, const std::string& path);
  SysStatus unlink(const Site& site, Pid pid, const std::string& path);
  SysStatus rename(const Site& site, Pid pid, const std::string& from,
                   const std::string& to);
  SysStatus symlink(const Site& site, Pid pid, const std::string& target,
                    const std::string& linkpath);
  SysResult<std::string> readlink(const Site& site, Pid pid,
                                  const std::string& path);
  SysResult<std::vector<std::string>> readdir(const Site& site, Pid pid,
                                              const std::string& path);
  SysStatus chmod(const Site& site, Pid pid, const std::string& path,
                  unsigned mode);
  SysStatus chown(const Site& site, Pid pid, const std::string& path, Uid uid,
                  Gid gid);
  SysStatus chdir(const Site& site, Pid pid, const std::string& path);
  [[nodiscard]] std::string getcwd(Pid pid) const;

  // --- input/output pseudo-syscalls -------------------------------------
  /// Environment-variable input (indirect fault category 2).
  SysResult<std::string> getenv(const Site& site, Pid pid,
                                const std::string& name);
  /// Command-line input (indirect fault category 1). Returns "" past argc.
  std::string arg(const Site& site, Pid pid, std::size_t idx);
  [[nodiscard]] std::size_t argc(Pid pid) const;
  /// Program output; what the confidentiality policy watches.
  void output(const Site& site, Pid pid, std::string_view text);
  /// Application-level fault report (buffer overflow, crash, ...).
  void app_fault(const Site& site, Pid pid, AppFault kind,
                 const std::string& detail);
  /// The program is about to perform its security-critical effect (grant a
  /// login, apply an update...). `believes_authorized` is the program's own
  /// belief; the oracle holds it against network/IPC ground truth.
  void privileged_action(const Site& site, Pid pid, const std::string& what,
                         bool believes_authorized);

  // --- redzone memory oracle (see os/redzone.hpp, docs/ORACLES.md) -----
  /// Master switch (`epa_cli --no-redzone` turns it off). A plain value
  /// member, so snapshots copy it; the executor (re)sets it per run.
  void set_redzone_audit(bool on) { redzone_audit_ = on; }
  [[nodiscard]] bool redzone_audit() const { return redzone_audit_; }

  /// Track a live app-side guard region (apps/fixed_buffer.hpp registers
  /// in its constructor). `zone` must stay valid until the matching
  /// unregister. Guards are per-run state: they live in RunOnlyState and
  /// never survive a world snapshot.
  void register_redzone_guard(const Site& site, Pid pid, std::string label,
                              const redzone::Guard* zone);
  /// Validate and drop a guard (buffer destruction — the app-buffer
  /// equivalent of the teardown sweep). Reports redzone_corruption at the
  /// buffer's registration site if the poison was overwritten.
  void unregister_redzone_guard(const redzone::Guard* zone);

  /// Deterministic end-of-run sweep: every still-registered guard in
  /// registration order, then every VFS inode redzone in ino order.
  /// Registry value redzones are swept by reg::Registry::
  /// validate_redzones(), driven alongside this from
  /// core::TargetWorld::validate_redzones().
  void validate_redzones();

  /// Route a corrupted-guard finding through the hook chain as an
  /// app_fault with `aux = "redzone_corruption"` and the corrupted
  /// object's identity in ctx.path (the oracle's dedup key needs the
  /// object; plain app_fault() leaves path empty). Public so sibling
  /// substrates (registry) report through the same seam. Reported once
  /// per object per run; no-op while the audit is off.
  void report_redzone_corruption(const Site& site, Pid pid,
                                 const std::string& object,
                                 std::string_view zone);

  // --- hook chain ------------------------------------------------------
  void add_interposer(std::shared_ptr<Interposer> hook);
  void clear_interposers();
  [[nodiscard]] std::size_t interposer_count() const {
    return run_.hooks.size();
  }

  /// The interaction seam: every hooked call crosses the chain here, once.
  /// The before-hooks see `ctx` as the call described it; `act` performs
  /// the call and returns its Err, filling in what the after-hooks read
  /// (the resolved object, ctx.data, ctx.input); the after-hooks then see
  /// `ctx` and that Err, which is returned. Public so the sibling
  /// substrates (network, registry) cross the same seam. A template, not
  /// a std::function: this is the per-syscall path.
  template <typename Act>
  Err interact(SyscallCtx& ctx, Act&& act) {
    dispatch_before(ctx);
    const Err e = act();
    dispatch_after(ctx, e);
    return e;
  }

  // --- queries used by perturbers and the oracle ----------------------
  /// Would (uid,gid) pass `perm` on the object at canonical path `p`?
  /// Resolution runs with root privilege so the answer reflects the object
  /// itself, not search permissions along the way.
  [[nodiscard]] bool uid_can(Uid uid, Gid gid, const std::string& p,
                             Perm perm) const;
  /// Read a file's content with root privilege (oracle/test helper).
  [[nodiscard]] SysResult<std::string> peek(const std::string& p) const;
  /// All process output concatenated in spawn order (examples/demos).
  [[nodiscard]] std::string console() const { return console_; }

 private:
  void dispatch_before(SyscallCtx& ctx);
  void dispatch_after(SyscallCtx& ctx, Err result);

  /// read() and read_line(): one "read" interaction on descriptor `fd`,
  /// delivering up to `n` bytes, or one line when `line` is set.
  SysResult<std::string> read_input(const Site& site, Pid pid, Fd fd,
                                    std::size_t n, bool line);
  /// stat() and lstat(): `follow` says whether a final symlink is followed.
  SysResult<StatInfo> stat_path(const Site& site, Pid pid,
                                const std::string& path, bool follow);
  /// unlink() and rmdir(): remove the entry `path`, a directory when `dir`.
  SysStatus remove_entry(const Site& site, Pid pid, const std::string& path,
                         bool dir);
  /// exec() and fexec(): one "exec" interaction naming `invoked_as`;
  /// `resolve` finds the binary's inode once the before-hooks have run.
  template <typename Resolve>
  SysResult<int> exec_interaction(const Site& site, Pid pid,
                                  const std::string& invoked_as,
                                  std::vector<std::string> args,
                                  Resolve&& resolve);
  SysResult<Ino> resolve_exec_target(const Process& p,
                                     const std::string& command);
  /// spawn() and exec(): run the image of binary `ino` to completion as
  /// the new process `c`. Set-uid raises c's effective uid; an AppCrash
  /// marks it crashed and reports an app_fault at `crash_site`.
  SysResult<int> run_process(Process c, Ino ino, const Site& crash_site,
                             const std::string& invoked_as);
  /// Fill ctx.canonical/object/object_untrusted from a resolved inode.
  void describe_object(SyscallCtx& ctx, Ino ino) const;
  [[nodiscard]] bool ancestor_untrusted(Ino ino) const;
  /// Inline guard check on a file syscall path: report if this inode's
  /// redzone is no longer intact.
  void check_inode_redzone(const Site& site, Pid pid, Ino ino);

  /// Per-run, never-snapshot state: the interposer chain and the
  /// substrate back-pointers. Its copy constructor is a deliberate no-op
  /// (fresh chain, unwired substrates — the owning TargetWorld re-wires),
  /// which is what lets Kernel's copy constructor stay defaulted.
  struct RunOnlyState {
    std::vector<std::shared_ptr<Interposer>> hooks;
    net::Network* net = nullptr;
    reg::Registry* reg = nullptr;

    /// Live app-buffer guards, in registration order (the teardown
    /// sweep's iteration order). Per-run like the hook chain: a snapshot
    /// must not inherit pointers into another run's stack frames.
    struct RedzoneGuard {
      Site site;
      Pid pid = -1;
      std::string label;
      const redzone::Guard* zone = nullptr;
    };
    std::vector<RedzoneGuard> redzone_guards;
    /// Objects already reported corrupted this run — one violation per
    /// region no matter how many syscalls touch it afterwards.
    std::set<std::string> redzone_reported;

    RunOnlyState() = default;
    RunOnlyState(const RunOnlyState& /*other*/) {}
    RunOnlyState& operator=(const RunOnlyState&) = delete;
  };

  using ImageTable = std::map<std::string, AppImage>;

  Vfs vfs_;
  std::map<Pid, Process> procs_;
  /// Shared copy-on-write between snapshots (util/cow.hpp).
  std::shared_ptr<UserTable> users_;
  std::shared_ptr<ImageTable> images_;
  RunOnlyState run_;
  Pid next_pid_ = 1;
  std::string console_;
  int exec_depth_ = 0;
  bool redzone_audit_ = true;
};

}  // namespace ep::os
