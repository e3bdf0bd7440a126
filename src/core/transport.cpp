#include "core/transport.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <utility>

namespace ep::core {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw OrchestratorError(what + ": " + std::strerror(errno));
}

/// SIGTERM-family deaths are preemptions (the cluster took the host
/// back); anything else — SIGSEGV, SIGABRT — is a worker bug that a
/// respawn would only repeat.
bool signal_is_preemption(int signo) {
  return signo == SIGTERM || signo == SIGKILL || signo == SIGINT ||
         signo == SIGHUP;
}

}  // namespace

WorkerEvent::Kind FramedTransport::kind_of_status(int status) {
  return status == 0   ? WorkerEvent::Kind::exited
         : status == 4 ? WorkerEvent::Kind::preempted
                       : WorkerEvent::Kind::died;
}

FramedTransport::FramedTransport(std::string kind) : kind_(std::move(kind)) {
  // A worker can die between our poll() and our write(); without this
  // the resulting EPIPE would kill the coordinator instead of surfacing
  // as an ordinary worker-death event.
  std::signal(SIGPIPE, SIG_IGN);
}

FramedTransport::~FramedTransport() {
  for (std::size_t w = 0; w < conns_.size(); ++w) close_stream(w);
}

std::string FramedTransport::who(std::size_t worker) const {
  return kind_ + " " + std::to_string(worker);
}

FramedTransport::Conn& FramedTransport::conn(std::size_t worker,
                                             const char* op) {
  if (worker >= conns_.size())
    throw OrchestratorError(std::string(op) + ": unknown worker " +
                            std::to_string(worker));
  return conns_[worker];
}

void FramedTransport::close_stream(std::size_t worker) {
  Conn& c = conns_[worker];
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
}

void FramedTransport::check_hello(const std::string& who,
                                  const std::string& frame) {
  ProtocolMsg msg;
  if (!parse_protocol_line(frame, &msg) || msg.type != ProtocolMsg::Type::hello)
    throw OrchestratorError(who + " opened with " + quote_frame(frame) +
                            " instead of HELLO " +
                            std::to_string(kWorkerProtocolVersion));
  if (msg.version != kWorkerProtocolVersion)
    throw OrchestratorError(
        who + " speaks worker protocol version " +
        std::to_string(msg.version) + "; this coordinator speaks version " +
        std::to_string(kWorkerProtocolVersion) +
        " — upgrade so both ends match");
}

std::size_t FramedTransport::adopt(int fd, bool greeted) {
  Conn c;
  c.fd = fd;
  c.greeted = greeted;
  // Until HELLO the peer is unproven: its opening frame gets the
  // control-line cap, rejected the moment the 4-byte header lands.
  if (!greeted) c.frames.set_max_frame(kMaxOpeningFrameBytes);
  c.plan_gen = plan_gen_;
  // A worker that dies before reading it surfaces from wait_any().
  send_frame(fd, plan_wire_);
  conns_.push_back(std::move(c));
  return conns_.size() - 1;
}

void FramedTransport::load_plan(const InjectionPlan& plan) {
  plan_wire_ = plan_to_binary(plan);
  ++plan_gen_;
}

void FramedTransport::sync_plan(Conn& c) {
  if (c.plan_gen == plan_gen_) return;
  c.plan_gen = plan_gen_;
  send_frame(c.fd, format_plan());
  send_frame(c.fd, plan_wire_);
}

void FramedTransport::submit(std::size_t worker, const Lease& lease) {
  Conn& c = conn(worker, "submit");
  c.has_lease = true;
  c.lease = lease;
  if (c.fd < 0 || !c.writable) return;  // its death event will follow
  sync_plan(c);
  send_frame(c.fd, format_lease(lease.begin, lease.end));
}

void FramedTransport::feedback(std::size_t worker, const InjectionPlan& plan,
                               std::size_t begin, std::size_t end) {
  Conn& c = conn(worker, "feedback");
  if (c.fd < 0 || !c.writable) return;  // its death event will follow
  sync_plan(c);
  send_frame(c.fd,
             format_feedback(begin, end, feedback_spec(plan, begin, end)));
}

void FramedTransport::steal(std::size_t worker) {
  Conn& c = conn(worker, "steal");
  if (c.fd < 0 || !c.writable) return;
  send_frame(c.fd, format_steal());
}

void FramedTransport::shutdown(std::size_t worker) {
  Conn& c = conn(worker, "shutdown");
  if (c.fd < 0 || !c.writable) return;
  send_frame(c.fd, format_exit());
  ::shutdown(c.fd, SHUT_WR);
  c.writable = false;
}

void FramedTransport::kill(std::size_t worker) {
  Conn& c = conn(worker, "kill");
  if (c.fd < 0) return;
  close_stream(worker);
  c.frames = FrameBuffer{};
  killed(worker);
}

std::optional<WorkerEvent> FramedTransport::dispatch(
    std::size_t worker, const std::string& frame) {
  Conn& c = conns_[worker];
  WorkerEvent ev;
  ev.worker = worker;

  if (!c.greeted) {
    check_hello(who(worker), frame);
    c.greeted = true;
    c.frames.set_max_frame(kMaxFrameBytes);
    ev.kind = WorkerEvent::Kind::heartbeat;
    return ev;
  }
  if (c.awaiting_report) {
    c.awaiting_report = false;
    c.has_lease = false;
    ev.kind = WorkerEvent::Kind::lease_done;
    ev.lease = c.lease;
    ev.label = who(worker) + " lease " + std::to_string(c.lease.seq);
    try {
      ev.report = shard_report_from_binary(frame.data(), frame.size());
    } catch (const WireError& e) {
      throw OrchestratorError(ev.label + ": report frame: " + e.what());
    }
    return ev;
  }

  ProtocolMsg msg;
  if (!parse_protocol_line(frame, &msg))
    throw OrchestratorError(who(worker) + ": unexpected frame " +
                            quote_frame(frame));
  switch (msg.type) {
    case ProtocolMsg::Type::ping:
      ev.kind = WorkerEvent::Kind::heartbeat;
      return ev;
    case ProtocolMsg::Type::yield:
      // YIELD <mid> <end>: the worker keeps [begin, mid) of its lease
      // and surrenders [mid, end). Shrink our record so the upcoming
      // DONE <begin> <mid> matches it.
      if (!c.has_lease || msg.begin <= c.lease.begin ||
          msg.begin >= c.lease.end || msg.end != c.lease.end)
        throw OrchestratorError(who(worker) + ": unexpected yield " +
                                quote_frame(frame));
      ev.kind = WorkerEvent::Kind::lease_yielded;
      ev.lease = c.lease;
      ev.yield_mid = msg.begin;
      c.lease.end = msg.begin;
      return ev;
    case ProtocolMsg::Type::done:
      if (!c.has_lease || msg.begin != c.lease.begin ||
          msg.end != c.lease.end)
        throw OrchestratorError(who(worker) + ": unexpected frame " +
                                quote_frame(frame));
      c.awaiting_report = true;
      return std::nullopt;  // the next frame carries the report
    case ProtocolMsg::Type::bye:
      // The exit announcement; the event is raised when the close lands.
      c.bye = msg.status;
      return std::nullopt;
    case ProtocolMsg::Type::hello:
      throw OrchestratorError(who(worker) + " sent HELLO twice");
    default:
      // LEASE/FEEDBACK/PLAN/STEAL/EXIT are coordinator-to-worker only.
      throw OrchestratorError(who(worker) + ": unexpected frame " +
                              quote_frame(frame));
  }
}

WorkerEvent FramedTransport::reap(std::size_t worker) {
  close_stream(worker);
  WorkerEvent ev = ended(worker, conns_[worker].bye);
  ev.worker = worker;
  return ev;
}

std::optional<WorkerEvent> FramedTransport::wait_any(long timeout_ms) {
  for (;;) {
    // Deliver buffered frames before reaping: a worker that sent DONE,
    // its report and BYE, then exited, must yield lease_done first, or
    // its finished lease would be pointlessly re-drained.
    for (std::size_t w = 0; w < conns_.size(); ++w) {
      Conn& c = conns_[w];
      if (c.fd < 0) continue;
      std::string frame;
      while (c.frames.pop(&frame)) {
        std::optional<WorkerEvent> ev = dispatch(w, frame);
        if (ev) return ev;
      }
      if (c.saw_eof) return reap(w);
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    for (std::size_t w = 0; w < conns_.size(); ++w) {
      const Conn& c = conns_[w];
      if (c.fd < 0 || c.saw_eof) continue;
      fds.push_back({c.fd, POLLIN, 0});
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
      Conn& c = conns_[owners[i]];
      char buf[1 << 16];
      ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n > 0)
        c.frames.feed(buf, static_cast<std::size_t>(n));
      else if (n == 0 || (errno != EINTR && errno != EAGAIN))
        c.saw_eof = true;
    }
  }
}

LocalProcessTransport::LocalProcessTransport(LocalProcessConfig config)
    : FramedTransport("worker"), config_(std::move(config)) {
  if (config_.plan_path.empty()) return;
  std::FILE* f = std::fopen(config_.plan_path.c_str(), "rb");
  if (!f) sys_fail("cannot read plan '" + config_.plan_path + "'");
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  try {
    load_plan(looks_like_binary_wire(text) ? plan_from_binary(text)
                                           : plan_from_json(text));
  } catch (const WireError& e) {
    throw OrchestratorError(config_.plan_path + ": " + e.what());
  }
}

LocalProcessTransport::~LocalProcessTransport() {
  for (std::size_t w = 0; w < pids_.size(); ++w) {
    if (!alive(w)) continue;
    close_stream(w);
    ::kill(pids_[w], SIGTERM);
    int status = 0;
    while (::waitpid(pids_[w], &status, 0) < 0 && errno == EINTR) {
    }
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

std::optional<std::size_t> LocalProcessTransport::spawn() {
  if (!has_plan()) throw OrchestratorError("spawn: no plan loaded");
  std::vector<std::string> args = {config_.epa_cli, "worker", "--jobs",
                                   std::to_string(config_.jobs)};
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

  int sv[2];  // sv[0]: ours; sv[1]: the worker's stdin and stdout
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) < 0) sys_fail("socketpair");
  // Our end must not leak into any later worker: a sibling holding a
  // copy would keep this stream open past this worker's death.
  int flags = ::fcntl(sv[0], F_GETFD);
  if (flags < 0 || ::fcntl(sv[0], F_SETFD, flags | FD_CLOEXEC) < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    sys_fail("fcntl(FD_CLOEXEC)");
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    sys_fail("fork");
  }
  if (pid == 0) {
    // Worker: frames on stdin/stdout, stderr inherited.
    ::dup2(sv[1], STDIN_FILENO);
    ::dup2(sv[1], STDOUT_FILENO);
    if (sv[1] > STDOUT_FILENO) ::close(sv[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "epa: cannot exec worker '%s': %s\n",
                 config_.epa_cli.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  ::close(sv[1]);
  std::size_t w = adopt(sv[0], false);
  pids_.resize(w + 1, -1);
  pids_[w] = pid;
  return w;
}

WorkerEvent LocalProcessTransport::ended(std::size_t worker,
                                         std::optional<int> bye) {
  (void)bye;  // the wait status is the authority on this machine
  int status = 0;
  while (::waitpid(pids_[worker], &status, 0) < 0 && errno == EINTR) {
  }
  WorkerEvent ev;
  if (WIFEXITED(status)) {
    ev.status = WEXITSTATUS(status);
    ev.kind = kind_of_status(ev.status);
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

void LocalProcessTransport::killed(std::size_t worker) {
  // SIGKILL, not SIGTERM: the deadman fires for workers that are wedged
  // (stopped, swallowing signals, spinning) — the polite signal already
  // had its chance via the heartbeat window.
  ::kill(pids_[worker], SIGKILL);
  int status = 0;
  while (::waitpid(pids_[worker], &status, 0) < 0 && errno == EINTR) {
  }
}

ShmLocalTransport::ShmLocalTransport(LocalProcessConfig config,
                                     const InjectionPlan& plan,
                                     const std::vector<Lease>& leases)
    : LocalProcessTransport(std::move(config)) {
  (void)leases;
  load_plan(plan);
}

}  // namespace ep::core
