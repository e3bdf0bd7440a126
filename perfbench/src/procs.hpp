// Child-process control for the fleet workloads: every op's processes
// live in one process group, the driver is a child subreaper (orphaned
// workers come back to it), and a group is always killed and reaped
// before the op returns — on success, failure, timeout or SIGINT.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// SIGINT or SIGTERM arrived: unwind, clean up, exit.
class Interrupted : public std::runtime_error {
 public:
  Interrupted() : std::runtime_error("interrupted") {}
};

/// Installs SIGINT/SIGTERM handlers (no SA_RESTART, so blocking waits
/// return) and makes this process the subreaper of its descendants.
void install_process_guards();
/// Throws Interrupted once a signal has arrived.
void check_interrupted();

struct ChildResult {
  bool timed_out = false;
  int status = 0;        ///< exit code, or -signo when killed
  long maxrss_kb = 0;    ///< from wait4 rusage
};

struct SpawnSpec {
  std::vector<std::string> argv;
  std::string stdout_path;  ///< empty = /dev/null
  std::string stderr_path;  ///< empty = /dev/null
};

/// One op's processes. The first start() leads a new process group and
/// later ones join it; the destructor SIGKILLs whatever is left of the
/// group (grandchildren included) and reaps all of it.
class ChildGroup {
 public:
  ChildGroup() = default;
  ~ChildGroup();
  ChildGroup(const ChildGroup&) = delete;
  ChildGroup& operator=(const ChildGroup&) = delete;

  pid_t start(const SpawnSpec& spec);
  /// Reap `pid`, waiting until `deadline_ns` (steady clock); on timeout
  /// the child is left running (timed_out = true) for the destructor.
  ChildResult wait(pid_t pid, std::int64_t deadline_ns);
  /// Wait until `path` exists with content, `pid` exits, or the deadline
  /// passes; true only in the first case.
  bool wait_for_file(const std::string& path, pid_t pid,
                     std::int64_t deadline_ns);

 private:
  /// SIGKILL the group and reap every member.
  void kill_all();

  pid_t pgid_ = 0;
};

struct Captured {
  ChildResult result;
  std::string out;
  std::string err;
};

/// Run one command to completion with stdout/stderr captured through
/// files under `scratch_dir`.
Captured run_capture(const std::vector<std::string>& argv,
                     const std::string& scratch_dir,
                     std::int64_t timeout_ns);

std::string read_file(const std::string& path);

/// A directory removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(std::string path);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
