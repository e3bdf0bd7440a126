#include "core/transport.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace ep::core {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw OrchestratorError(what + ": " + std::strerror(errno));
}

void set_cloexec(int fd) {
  int flags = ::fcntl(fd, F_GETFD);
  if (flags < 0 || ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) < 0)
    sys_fail("fcntl(FD_CLOEXEC)");
}

/// Write all of `text`, ignoring EPIPE: a worker that died mid-write
/// surfaces as a preempted/died event from wait_any(), which is where
/// the orchestrator handles death — not here.
void write_line(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EPIPE et al.: the death event carries the real story
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string read_file_or_throw(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    throw OrchestratorError("cannot read lease report '" + path +
                            "': " + std::strerror(errno));
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad)
    throw OrchestratorError("error while reading lease report '" + path +
                            "'");
  return out;
}

/// SIGTERM-family deaths are preemptions (the cluster took the host
/// back); anything else — SIGSEGV, SIGABRT — is a worker bug that a
/// respawn would only repeat.
bool signal_is_preemption(int signo) {
  return signo == SIGTERM || signo == SIGKILL || signo == SIGINT ||
         signo == SIGHUP;
}

}  // namespace

LocalProcessTransport::LocalProcessTransport(LocalProcessConfig config)
    : config_(std::move(config)) {
  // A worker can die between our poll() and our write(); without this
  // the resulting EPIPE would kill the coordinator instead of surfacing
  // as an ordinary worker-death event.
  std::signal(SIGPIPE, SIG_IGN);
}

LocalProcessTransport::~LocalProcessTransport() {
  for (Proc& p : procs_) {
    if (!p.alive) continue;
    if (p.in_fd >= 0) ::close(p.in_fd);
    if (p.out_fd >= 0) ::close(p.out_fd);
    ::kill(p.pid, SIGTERM);
    int status = 0;
    while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
    }
    p.alive = false;
  }
}

std::string LocalProcessTransport::self_exe(const char* argv0) {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0 ? argv0 : "epa_cli";
}

std::vector<std::string> LocalProcessTransport::worker_args() const {
  std::vector<std::string> args = {"worker", config_.plan_path};
  append_common_args(args);
  return args;
}

void LocalProcessTransport::append_common_args(
    std::vector<std::string>& args) const {
  args.push_back("--jobs");
  args.push_back(std::to_string(config_.jobs));
  if (!config_.use_world_cache) args.push_back("--no-world-cache");
  if (!config_.use_redzone) args.push_back("--no-redzone");
  if (config_.preempt_after > 0) {
    args.push_back("--preempt-after");
    args.push_back(std::to_string(config_.preempt_after));
  }
  if (config_.checkpoint > 0) {
    args.push_back("--checkpoint");
    args.push_back(std::to_string(config_.checkpoint));
  }
  if (config_.drain_delay_ms > 0) {
    args.push_back("--drain-delay-ms");
    args.push_back(std::to_string(config_.drain_delay_ms));
  }
  if (!config_.scenario_file.empty()) {
    args.push_back("--scenario-file");
    args.push_back(config_.scenario_file);
  }
}

std::string LocalProcessTransport::plan_token() const {
  return config_.plan_path;
}

void LocalProcessTransport::plan_loaded(const std::string& prefix) {
  config_.file_prefix = prefix;
  ++plan_gen_;
}

void LocalProcessTransport::sync_plan(Proc& p) {
  if (p.plan_gen == plan_gen_) return;
  p.plan_gen = plan_gen_;
  write_line(p.in_fd, format_plan(plan_token()) + "\n");
}

void LocalProcessTransport::load_plan(const InjectionPlan& plan,
                                      const std::vector<Lease>& leases) {
  (void)leases;
  const std::string path =
      config_.out_dir + "/" + plan.scenario_name + ".plan.json";
  const std::string json = plan.to_json();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) sys_fail("cannot write plan '" + path + "'");
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !ok) sys_fail("cannot write plan '" + path + "'");
  config_.plan_path = path;
  plan_loaded(plan.scenario_name);
}

std::string LocalProcessTransport::lease_token(const Lease& lease) const {
  return config_.out_dir + "/" + config_.file_prefix + ".lease" +
         std::to_string(lease.seq) + ".json";
}

void LocalProcessTransport::load_report(const Proc& p,
                                        const ProtocolMsg& done,
                                        WorkerEvent& ev) {
  if (done.has_handoff)
    throw OrchestratorError(
        "DONE carries an arena handoff on the file data plane");
  ev.label = p.lease_token;
  try {
    ev.report = shard_report_from_json(read_file_or_throw(p.lease_token));
  } catch (const WireError& e) {
    throw OrchestratorError(p.lease_token + ": " + e.what());
  }
}

std::optional<std::size_t> LocalProcessTransport::spawn() {
  int to_child[2];   // coordinator writes, worker reads (stdin)
  int from_child[2]; // worker writes (stdout), coordinator reads
  if (::pipe(to_child) < 0) sys_fail("pipe");
  if (::pipe(from_child) < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    sys_fail("pipe");
  }
  // The coordinator-side ends must not leak into *any* worker: a sibling
  // holding a copy of this worker's stdin write-end would defeat the
  // EOF-on-shutdown signal.
  set_cloexec(to_child[1]);
  set_cloexec(from_child[0]);

  // Built before fork: the data plane decides the argv tail.
  std::vector<std::string> args = {config_.epa_cli};
  for (std::string& a : worker_args()) args.push_back(std::move(a));

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    sys_fail("fork");
  }
  if (pid == 0) {
    // Worker: protocol on stdin/stdout, stderr inherited.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(from_child[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "epa: cannot exec worker '%s': %s\n",
                 config_.epa_cli.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);

  Proc p;
  p.pid = pid;
  p.in_fd = to_child[1];
  p.out_fd = from_child[0];
  p.alive = true;
  p.plan_gen = plan_gen_;  // its argv named the current plan
  procs_.push_back(std::move(p));
  return procs_.size() - 1;
}

void LocalProcessTransport::submit(std::size_t worker, const Lease& lease) {
  if (worker >= procs_.size())
    throw OrchestratorError("submit: unknown worker " +
                            std::to_string(worker));
  Proc& p = procs_[worker];
  p.has_lease = true;
  p.lease = lease;
  p.lease_token = lease_token(lease);
  if (p.in_fd < 0) return;  // already shut down; death event will follow
  sync_plan(p);
  write_line(p.in_fd,
             format_lease(lease.begin, lease.end, p.lease_token) + "\n");
}

void LocalProcessTransport::feedback(std::size_t worker,
                                     const InjectionPlan& plan,
                                     std::size_t begin, std::size_t end) {
  if (worker >= procs_.size())
    throw OrchestratorError("feedback: unknown worker " +
                            std::to_string(worker));
  Proc& p = procs_[worker];
  if (!p.alive || p.in_fd < 0) return;  // death event will follow anyway
  sync_plan(p);
  write_line(p.in_fd,
             format_feedback(begin, end, feedback_spec(plan, begin, end)) +
                 "\n");
}

void LocalProcessTransport::steal(std::size_t worker) {
  if (worker >= procs_.size())
    throw OrchestratorError("steal: unknown worker " +
                            std::to_string(worker));
  Proc& p = procs_[worker];
  if (!p.alive || p.in_fd < 0) return;  // death event will follow anyway
  write_line(p.in_fd, format_steal() + "\n");
}

WorkerEvent LocalProcessTransport::handle_line(std::size_t worker,
                                               const std::string& line) {
  Proc& p = procs_[worker];
  ProtocolMsg msg;
  if (!parse_protocol_line(line, &msg))
    throw OrchestratorError("worker " + std::to_string(worker) +
                            ": unexpected protocol line '" + line + "'");

  WorkerEvent ev;
  ev.worker = worker;

  if (msg.type == ProtocolMsg::Type::hello) {
    if (p.said_hello)
      throw OrchestratorError("worker " + std::to_string(worker) +
                              " sent HELLO twice");
    if (msg.version != kWorkerProtocolVersion)
      throw OrchestratorError(
          "worker " + std::to_string(worker) +
          " speaks worker protocol version " +
          std::to_string(msg.version) +
          "; this coordinator speaks version " +
          std::to_string(kWorkerProtocolVersion) +
          " — upgrade so both ends match");
    p.said_hello = true;
    ev.kind = WorkerEvent::Kind::heartbeat;
    return ev;
  }
  if (!p.said_hello)
    throw OrchestratorError(
        "worker " + std::to_string(worker) +
        " did not open with HELLO " +
        std::to_string(kWorkerProtocolVersion) +
        " (a pre-handshake fleet?); first line was '" + line + "'");

  switch (msg.type) {
    case ProtocolMsg::Type::ping:
      ev.kind = WorkerEvent::Kind::heartbeat;
      return ev;
    case ProtocolMsg::Type::yield: {
      // YIELD <mid> <end>: the worker keeps [begin, mid) of its lease
      // and surrenders [mid, end). Shrink our record so the upcoming
      // DONE <begin> <mid> matches it.
      if (!p.has_lease || msg.begin <= p.lease.begin ||
          msg.begin >= p.lease.end || msg.end != p.lease.end)
        throw OrchestratorError("worker " + std::to_string(worker) +
                                ": unexpected yield '" + line + "'");
      ev.kind = WorkerEvent::Kind::lease_yielded;
      ev.lease = p.lease;
      ev.yield_mid = msg.begin;
      p.lease.end = msg.begin;
      return ev;
    }
    case ProtocolMsg::Type::done: {
      if (!p.has_lease || msg.begin != p.lease.begin ||
          msg.end != p.lease.end)
        throw OrchestratorError("worker " + std::to_string(worker) +
                                ": unexpected protocol line '" + line +
                                "'");
      ev.kind = WorkerEvent::Kind::lease_done;
      ev.lease = p.lease;
      try {
        load_report(p, msg, ev);
      } catch (const OrchestratorError&) {
        throw;
      } catch (const std::exception& e) {
        throw OrchestratorError("worker " + std::to_string(worker) + ": " +
                                e.what());
      }
      p.has_lease = false;
      return ev;
    }
    default:
      // BYE belongs to the tcp transport; LEASE/STEAL/EXIT are
      // coordinator-to-worker only.
      throw OrchestratorError("worker " + std::to_string(worker) +
                              ": unexpected protocol line '" + line + "'");
  }
}

WorkerEvent LocalProcessTransport::reap(std::size_t worker) {
  Proc& p = procs_[worker];
  if (p.in_fd >= 0) ::close(p.in_fd);
  ::close(p.out_fd);
  p.in_fd = p.out_fd = -1;
  int status = 0;
  while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
  }
  p.alive = false;
  WorkerEvent ev;
  ev.worker = worker;
  if (WIFEXITED(status)) {
    ev.status = WEXITSTATUS(status);
    ev.kind = ev.status == 0   ? WorkerEvent::Kind::exited
              : ev.status == 4 ? WorkerEvent::Kind::preempted
                               : WorkerEvent::Kind::died;
  } else if (WIFSIGNALED(status)) {
    ev.status = -WTERMSIG(status);
    ev.kind = signal_is_preemption(WTERMSIG(status))
                  ? WorkerEvent::Kind::preempted
                  : WorkerEvent::Kind::died;
  } else {
    ev.kind = WorkerEvent::Kind::died;
  }
  return ev;
}

std::optional<WorkerEvent> LocalProcessTransport::wait_any(
    long timeout_ms) {
  for (;;) {
    // Deliver buffered protocol lines before reaping: a worker that
    // printed DONE and exited must yield lease_done first, or its
    // finished lease would be pointlessly re-drained.
    for (std::size_t w = 0; w < procs_.size(); ++w) {
      Proc& p = procs_[w];
      if (!p.alive) continue;
      std::size_t nl = p.buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = p.buf.substr(0, nl);
        p.buf.erase(0, nl + 1);
        return handle_line(w, line);
      }
      if (p.saw_eof) return reap(w);
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    for (std::size_t w = 0; w < procs_.size(); ++w) {
      Proc& p = procs_[w];
      if (!p.alive || p.saw_eof) continue;
      fds.push_back({p.out_fd, POLLIN, 0});
      owners.push_back(w);
    }
    if (fds.empty())
      throw OrchestratorError("wait_any: no live workers to wait on");
    int ready = ::poll(fds.data(), fds.size(),
                       timeout_ms < 0 ? -1 : static_cast<int>(timeout_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }
    if (ready == 0) return std::nullopt;  // the deadman's polling edge
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Proc& p = procs_[owners[i]];
      char buf[4096];
      ssize_t n = ::read(p.out_fd, buf, sizeof buf);
      if (n > 0)
        p.buf.append(buf, static_cast<std::size_t>(n));
      else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN))
        p.saw_eof = true;
    }
  }
}

void LocalProcessTransport::shutdown(std::size_t worker) {
  if (worker >= procs_.size())
    throw OrchestratorError("shutdown: unknown worker " +
                            std::to_string(worker));
  Proc& p = procs_[worker];
  if (!p.alive || p.in_fd < 0) return;
  write_line(p.in_fd, format_exit() + "\n");
  // Close stdin too: EOF ends the worker loop even if the EXIT line was
  // lost to a full pipe or a half-dead worker.
  ::close(p.in_fd);
  p.in_fd = -1;
}

void LocalProcessTransport::kill(std::size_t worker) {
  if (worker >= procs_.size())
    throw OrchestratorError("kill: unknown worker " +
                            std::to_string(worker));
  Proc& p = procs_[worker];
  if (!p.alive) return;
  if (p.in_fd >= 0) ::close(p.in_fd);
  if (p.out_fd >= 0) ::close(p.out_fd);
  p.in_fd = p.out_fd = -1;
  // SIGKILL, not SIGTERM: the deadman fires for workers that are wedged
  // (stopped, swallowing signals, spinning) — the polite signal already
  // had its chance via the heartbeat window.
  ::kill(p.pid, SIGKILL);
  int status = 0;
  while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
  }
  p.alive = false;
  p.buf.clear();
}

std::size_t arena_segment_bytes(std::size_t lease_items) {
  // Base covers the report frame and metadata; the per-item budget is a
  // hard upper bound on one outcome's columns (ids, exit codes, flags,
  // and a violated outcome's site/description strings).
  constexpr std::size_t kBase = 8192;
  constexpr std::size_t kPerItem = 4096;
  return kBase + lease_items * kPerItem;
}

namespace {

/// The arena for `plan` at `path`, one segment per lease in `leases`.
/// kMaxLeaseSplits extra segments: stolen-tail leases take fresh seqs
/// past the partition, and each needs a segment home. A stolen tail is
/// a sub-range of some partition lease, so the per-segment size bound
/// already covers it.
ShmArena plan_arena(const std::string& path, const InjectionPlan& plan,
                    const std::vector<Lease>& leases) {
  std::size_t most = 0;
  for (const Lease& l : leases) most = std::max(most, l.end - l.begin);
  return ShmArena::create(path, plan_to_binary(plan),
                          leases.size() + kMaxLeaseSplits,
                          arena_segment_bytes(most));
}

}  // namespace

ShmLocalTransport::ShmLocalTransport(LocalProcessConfig config,
                                     const InjectionPlan& plan,
                                     const std::vector<Lease>& leases)
    : LocalProcessTransport(std::move(config)),
      arena_(plan_arena(this->config().out_dir + "/" +
                            this->config().file_prefix + ".arena",
                        plan, leases)) {}

void ShmLocalTransport::load_plan(const InjectionPlan& plan,
                                  const std::vector<Lease>& leases) {
  // Move-assigning unmaps the previous plan's arena; its workers map the
  // new one when their PLAN line arrives.
  arena_ = plan_arena(config().out_dir + "/" + plan.scenario_name + ".arena",
                      plan, leases);
  plan_loaded(plan.scenario_name);
}

std::string ShmLocalTransport::plan_token() const { return arena_.path(); }

std::vector<std::string> ShmLocalTransport::worker_args() const {
  std::vector<std::string> args = {"worker", "--arena", arena_.path()};
  append_common_args(args);
  return args;
}

std::string ShmLocalTransport::lease_token(const Lease& lease) const {
  return "@" + std::to_string(lease.seq);
}

void ShmLocalTransport::load_report(const Proc& p, const ProtocolMsg& done,
                                    WorkerEvent& ev) {
  if (!done.has_handoff)
    throw OrchestratorError(
        "DONE is missing the arena (offset, length) handoff");
  ev.label = arena_.path() + "#seg" + std::to_string(p.lease.seq);
  try {
    arena_.check_handoff(p.lease.seq, done.offset, done.length);
    // Decoding straight from the coordinator's own mapping — the DONE
    // line on the pipe is the ordering edge, so the worker's writes to
    // this MAP_SHARED segment are visible here.
    ev.report = shard_report_from_binary(arena_.data() + done.offset,
                                         done.length);
  } catch (const WireError& e) {
    throw OrchestratorError(ev.label + ": " + e.what());
  } catch (const ArenaError& e) {
    throw OrchestratorError(e.what());
  }
}

}  // namespace ep::core
