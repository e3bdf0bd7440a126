#include "procs.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "spans.hpp"

namespace perfbench {

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

int open_or_null(const std::string& path) {
  return path.empty() ? ::open("/dev/null", O_WRONLY)
                      : ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                               0644);
}

int pidfd_open(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  errno = ENOSYS;
  return -1;
#endif
}

/// Block until `pid` has exited (without reaping it) or `timeout_ns`
/// passes. True when it exited.
bool wait_exit(pid_t pid, std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  int fd = pidfd_open(pid);
  for (;;) {
    std::int64_t left = deadline - now_ns();
    if (left < 0) left = 0;
    if (fd >= 0) {
      pollfd p{fd, POLLIN, 0};
      timespec ts{static_cast<time_t>(left / 1000000000),
                  static_cast<long>(left % 1000000000)};
      int rc = ::ppoll(&p, 1, &ts, nullptr);
      if (rc > 0) {
        ::close(fd);
        return true;
      }
      if (rc < 0 && errno != EINTR) {
        ::close(fd);
        fd = -1;
        continue;
      }
    } else {
      siginfo_t info{};
      if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                   WEXITED | WNOHANG | WNOWAIT) == 0 &&
          info.si_pid == pid)
        return true;
      if (left > 0) {
        timespec ts{0, static_cast<long>(std::min<std::int64_t>(left, 200000))};
        ::nanosleep(&ts, nullptr);
      }
    }
    if (g_signalled) {
      if (fd >= 0) ::close(fd);
      throw Interrupted();
    }
    if (now_ns() >= deadline) {
      if (fd >= 0) ::close(fd);
      return false;
    }
  }
}

}  // namespace

void install_process_guards() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking waits return EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0);
}

void check_interrupted() {
  if (g_signalled) throw Interrupted();
}

ChildGroup::~ChildGroup() {
  if (pgid_ > 0 && ::kill(-pgid_, 0) == 0) kill_all();
}

pid_t ChildGroup::start(const SpawnSpec& spec) {
  check_interrupted();
  std::vector<std::string> args = spec.argv;
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t group = pgid_;
  pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") +
                                        std::strerror(errno));
  if (pid == 0) {
    ::setpgid(0, group);
    ::signal(SIGPIPE, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    int in = ::open("/dev/null", O_RDONLY);
    int out = open_or_null(spec.stdout_path);
    int err = open_or_null(spec.stderr_path);
    if (in < 0 || out < 0 || err < 0) ::_exit(126);
    ::dup2(in, STDIN_FILENO);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::setpgid(pid, group == 0 ? pid : group);  // both sides: no race
  if (pgid_ == 0) pgid_ = pid;
  return pid;
}

ChildResult ChildGroup::wait(pid_t pid, std::int64_t deadline_ns) {
  ChildResult r;
  if (!wait_exit(pid, deadline_ns - now_ns())) {
    r.timed_out = true;
    return r;
  }
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  r.status = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  r.maxrss_kb = ru.ru_maxrss;
  return r;
}

bool ChildGroup::wait_for_file(const std::string& path, pid_t pid,
                               std::int64_t deadline_ns) {
  for (;;) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && st.st_size > 0) return true;
    if (now_ns() >= deadline_ns) return false;
    if (wait_exit(pid, 200000)) return false;  // 0.2 ms poll, or it died
  }
}

void ChildGroup::kill_all() {
  if (pgid_ <= 0) return;
  ::kill(-pgid_, SIGKILL);
  int status = 0;
  while (::waitpid(-pgid_, &status, 0) > 0 || errno == EINTR) {
  }
}

Captured run_capture(const std::vector<std::string>& argv,
                     const std::string& scratch_dir,
                     std::int64_t timeout_ns) {
  static std::atomic<unsigned> counter{0};
  const std::string stem =
      scratch_dir + "/capture" + std::to_string(counter++);
  Captured c;
  {
    ChildGroup group;
    pid_t pid = group.start({argv, stem + ".out", stem + ".err"});
    c.result = group.wait(pid, now_ns() + timeout_ns);
  }
  c.out = read_file(stem + ".out");
  c.err = read_file(stem + ".err");
  std::remove((stem + ".out").c_str());
  std::remove((stem + ".err").c_str());
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TempDir::TempDir(std::string path) : path_(std::move(path)) {
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
