// The interposition seam.
//
// Every environment-application interaction (file syscalls, getenv, argv
// access, network receive, registry reads, program output, app-level fault
// reports) crosses the hook chain once, as a SyscallCtx, through
// Kernel::interact (kernel.hpp). This is the simulated equivalent of the
// ptrace/LD_PRELOAD interception a real implementation of the paper's tool
// would use, and it is where all three roles of the methodology plug in:
//
//   * the trace recorder discovers interaction points (procedure step 3),
//   * the injector perturbs the environment in `before` (direct faults)
//     or the returned input in `after` (indirect faults; step 6),
//   * the security oracle watches completed interactions for policy
//     violations (step 8).
#pragma once

#include <string>
#include <utility>

#include "os/types.hpp"
#include "util/errno.hpp"

namespace ep::os {

class Kernel;

/// Application-level fault classes reported through the kernel so that
/// both the oracle (security violation?) and the Fuzz baseline (crash?)
/// can observe them.
enum class AppFault {
  buffer_overflow,     // unchecked copy exceeded a fixed buffer
  crash,               // unhandled condition, simulated SIGSEGV
  assertion,           // internal consistency check failed
  redzone_corruption,  // poisoned guard region past a buffer was overwritten
};

struct SyscallCtx {
  SyscallCtx() = default;
  /// The call as the program made it; the fields are described below.
  SyscallCtx(const Site& site, Pid pid, std::string call,
             std::string path = {}, std::string aux = {})
      : site(site),
        pid(pid),
        call(std::move(call)),
        path(std::move(path)),
        aux(std::move(aux)) {}

  Site site;
  Pid pid = -1;
  std::string call;  // "open", "read", "getenv", "arg", "exec", "recv", ...
  std::string path;  // primary object as named by the program (pre-resolution)
  std::string aux;   // secondary operand: symlink target, env var name,
                     // service name, exec argv summary, fault detail ...
  bool has_input = false;        // does this call return input to the program?
  std::string* input = nullptr;  // mutable payload for after-hooks

  // Filled by the kernel before after-hooks run:
  std::string canonical;  // final resolved object path (empty if none)
  Ino object = kNoIno;    // final resolved inode (kNoIno if none)
  bool object_preexisting = false;  // object existed before this call
  bool object_untrusted = false;    // object or an ancestor marked untrusted
  // Could the *real* uid (the invoking user) access the object on its own?
  // Captured at interaction time, before the operation changes anything.
  bool object_ruid_readable = false;
  bool object_ruid_writable = false;
  std::string data;       // content written / read / output / message

  // Network/IPC ground truth (set by ep_net when the ctx is a channel op):
  bool net_unauthentic = false;         // message failed authenticity
  bool net_protocol_violation = false;  // message out of protocol order
  bool net_peer_untrusted = false;
  bool net_socket_shared = false;
  bool net_auth_confirmation = false;  // genuine AUTH_OK from a live,
                                       // trusted authority
  std::string channel_kind;            // "network" or "ipc" for channel ops
};

class Interposer {
 public:
  virtual ~Interposer() = default;
  /// Runs before the kernel acts. Direct environment faults are injected
  /// here: the hook mutates kernel state (file attributes, network flags)
  /// so the interaction meets a perturbed environment.
  virtual void before(Kernel& /*k*/, SyscallCtx& /*ctx*/) {}
  /// Runs after the kernel acted, with the outcome. Indirect faults are
  /// injected here by rewriting *ctx.input before the program sees it.
  virtual void after(Kernel& /*k*/, SyscallCtx& /*ctx*/, Err /*result*/) {}
};

}  // namespace ep::os
