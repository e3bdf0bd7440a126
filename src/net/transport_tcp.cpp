#include "net/transport_tcp.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "core/protocol.hpp"

namespace ep::net {

namespace {

using core::OrchestratorError;

[[noreturn]] void sys_fail(const std::string& what) {
  throw OrchestratorError(what + ": " + std::strerror(errno));
}

/// Without this, each write-write-read exchange (plan frame then LEASE,
/// DONE then report frame) holds its second write until the peer's
/// delayed ACK fires, ~40 ms per lease. A failure closes `fd` and throws:
/// ignoring it would bring that stall back silently.
void set_nodelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("setsockopt(TCP_NODELAY)");
  }
}

}  // namespace

FrameTooLarge::FrameTooLarge(std::size_t bytes, std::size_t limit)
    : OrchestratorError("tcp: oversized frame (" + std::to_string(bytes) +
                        " bytes, limit " + std::to_string(limit) +
                        ") — corrupt length prefix"),
      bytes_(bytes) {}

void FrameBuffer::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

bool FrameBuffer::pop(std::string* payload) {
  if (buf_.size() < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(buf_.data());
  std::size_t len = static_cast<std::size_t>(p[0]) |
                    (static_cast<std::size_t>(p[1]) << 8) |
                    (static_cast<std::size_t>(p[2]) << 16) |
                    (static_cast<std::size_t>(p[3]) << 24);
  if (len > max_frame_) throw FrameTooLarge(len, max_frame_);
  if (buf_.size() < 4 + len) return false;
  payload->assign(buf_, 4, len);
  buf_.erase(0, 4 + len);
  return true;
}

bool send_frame(int fd, const std::string& payload) {
  if (fd < 0) return false;
  unsigned char header[4] = {
      static_cast<unsigned char>(payload.size() & 0xFF),
      static_cast<unsigned char>((payload.size() >> 8) & 0xFF),
      static_cast<unsigned char>((payload.size() >> 16) & 0xFF),
      static_cast<unsigned char>((payload.size() >> 24) & 0xFF)};
  std::string wire(reinterpret_cast<char*>(header), 4);
  wire += payload;
  std::size_t off = 0;
  while (off < wire.size()) {
    ssize_t n = ::write(fd, wire.data() + off, wire.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // the read side tells the death story
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_frame(int fd, FrameBuffer* fb, std::string* payload,
                long timeout_ms) {
  for (;;) {
    if (fb->pop(payload)) return true;
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1,
                       timeout_ms < 0 ? -1 : static_cast<int>(timeout_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }
    if (ready == 0)
      throw OrchestratorError("tcp: timed out waiting for a frame");
    char buf[1 << 16];
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      fb->feed(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      if (fb->mid_frame())
        throw OrchestratorError("tcp: connection closed mid-frame");
      return false;
    } else if (errno != EINTR && errno != EAGAIN) {
      return false;  // reset: same as a close for our purposes
    }
  }
}

bool pump_nonblocking(int fd, FrameBuffer* fb) {
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 0);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return true;
    }
    if (ready == 0) return true;
    char buf[1 << 16];
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      fb->feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN) return true;
    return false;
  }
}

int tcp_listen(int port, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("bind to port " + std::to_string(port));
  }
  if (::listen(fd, 64) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("getsockname");
  }
  if (bound_port) *bound_port = ntohs(addr.sin_port);
  return fd;
}

int tcp_accept(int listen_fd, long timeout_ms) {
  for (;;) {
    pollfd pfd{listen_fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1,
                       timeout_ms < 0 ? -1 : static_cast<int>(timeout_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll(listen)");
    }
    if (ready == 0) return -1;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    sys_fail("accept");
  }
}

int tcp_connect(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &res);
  if (rc != 0)
    throw OrchestratorError("cannot resolve '" + host +
                            "': " + ::gai_strerror(rc));
  int fd = -1;
  int saved = 0;
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    saved = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    errno = saved;
    sys_fail("connect to " + host + ":" + std::to_string(port));
  }
  set_nodelay(fd);
  return fd;
}

TcpTransport::TcpTransport(TcpTransportConfig config,
                           const core::InjectionPlan& plan)
    : config_(std::move(config)), plan_wire_(core::plan_to_binary(plan)) {
  // A worker can vanish between poll() and write(); EPIPE must surface
  // as a death event, not kill the coordinator.
  std::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = tcp_listen(config_.listen_port, &port_);
  if (!config_.port_file.empty()) {
    // Written via rename so a script polling the file never reads a
    // half-written port number.
    std::string tmp = config_.port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (!f || std::fprintf(f, "%d\n", port_) < 0 || std::fclose(f) != 0)
      sys_fail("write port file '" + config_.port_file + "'");
    if (std::rename(tmp.c_str(), config_.port_file.c_str()) != 0)
      sys_fail("rename port file '" + config_.port_file + "'");
  }
}

TcpTransport::~TcpTransport() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.alive = false;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::optional<std::size_t> TcpTransport::spawn() {
  // The initial fleet is worth a long wait; a respawn only polls the
  // accept queue — a pre-started spare is adopted instantly, and nullopt
  // otherwise lets the orchestrator run on with fewer workers.
  const bool initial = accepted_ < static_cast<std::size_t>(config_.workers);
  int fd = tcp_accept(listen_fd_,
                      initial ? config_.accept_timeout_ms : 250);
  if (fd < 0) return std::nullopt;
  ++accepted_;

  Conn c;
  c.fd = fd;
  c.alive = true;
  // Until HELLO the peer is unauthenticated: its opening frame gets the
  // control-line cap, rejected the moment the 4-byte header lands.
  c.frames.set_max_frame(kMaxOpeningFrameBytes);
  std::string line;
  try {
    if (!recv_frame(fd, &c.frames, &line, config_.handshake_timeout_ms)) {
      ::close(fd);
      return std::nullopt;  // dud connection: dialed in, said nothing
    }
  } catch (const FrameTooLarge& e) {
    ::close(fd);
    throw OrchestratorError(
        "tcp worker opened with a " + std::to_string(e.bytes()) +
        "-byte frame instead of HELLO (at most " +
        std::to_string(kMaxOpeningFrameBytes) + " bytes before the handshake)");
  } catch (const OrchestratorError&) {
    ::close(fd);
    return std::nullopt;  // timed out or died mid-handshake
  }
  c.frames.set_max_frame(kMaxFrameBytes);
  core::ProtocolMsg msg;
  if (!core::parse_protocol_line(line, &msg) ||
      msg.type != core::ProtocolMsg::Type::hello) {
    ::close(fd);
    throw OrchestratorError("tcp worker opened with '" + line +
                            "' instead of HELLO");
  }
  if (msg.version != core::kWorkerProtocolVersion) {
    ::close(fd);
    throw OrchestratorError(
        "tcp worker speaks worker protocol version " +
        std::to_string(msg.version) + "; this coordinator speaks version " +
        std::to_string(core::kWorkerProtocolVersion) +
        " — upgrade so both ends match");
  }
  if (!send_frame(fd, plan_wire_)) {
    ::close(fd);
    return std::nullopt;  // died before taking the plan
  }
  conns_.push_back(std::move(c));
  return conns_.size() - 1;
}

void TcpTransport::submit(std::size_t worker, const core::Lease& lease) {
  if (worker >= conns_.size())
    throw OrchestratorError("submit: unknown worker " +
                            std::to_string(worker));
  Conn& c = conns_[worker];
  c.has_lease = true;
  c.lease = lease;
  // `-` as the target: the report has no name here — it comes back as
  // the frame after DONE.
  send_frame(c.fd, core::format_lease(lease.begin, lease.end, "-"));
}

void TcpTransport::feedback(std::size_t worker,
                            const core::InjectionPlan& plan,
                            std::size_t begin, std::size_t end) {
  if (worker >= conns_.size())
    throw OrchestratorError("feedback: unknown worker " +
                            std::to_string(worker));
  Conn& c = conns_[worker];
  if (!c.alive) return;  // death event will follow anyway
  send_frame(c.fd, core::format_feedback(
                       begin, end, core::feedback_spec(plan, begin, end)));
}

void TcpTransport::steal(std::size_t worker) {
  if (worker >= conns_.size())
    throw OrchestratorError("steal: unknown worker " +
                            std::to_string(worker));
  Conn& c = conns_[worker];
  if (!c.alive) return;
  send_frame(c.fd, core::format_steal());
}

std::optional<core::WorkerEvent> TcpTransport::handle_frame(
    std::size_t worker, const std::string& frame) {
  Conn& c = conns_[worker];

  if (c.awaiting_report) {
    core::WorkerEvent ev = std::move(c.done_ev);
    c.awaiting_report = false;
    c.has_lease = false;
    try {
      ev.report = core::shard_report_from_binary(frame.data(), frame.size());
    } catch (const core::WireError& e) {
      throw OrchestratorError("tcp worker " + std::to_string(worker) +
                              "'s report frame: " + e.what());
    }
    return ev;
  }

  core::ProtocolMsg msg;
  if (!core::parse_protocol_line(frame, &msg))
    throw OrchestratorError("tcp worker " + std::to_string(worker) +
                            ": unexpected control frame '" + frame + "'");

  core::WorkerEvent ev;
  ev.worker = worker;
  switch (msg.type) {
    case core::ProtocolMsg::Type::ping:
      ev.kind = core::WorkerEvent::Kind::heartbeat;
      return ev;
    case core::ProtocolMsg::Type::yield:
      if (!c.has_lease || msg.begin <= c.lease.begin ||
          msg.begin >= c.lease.end || msg.end != c.lease.end)
        throw OrchestratorError("tcp worker " + std::to_string(worker) +
                                ": unexpected yield '" + frame + "'");
      ev.kind = core::WorkerEvent::Kind::lease_yielded;
      ev.lease = c.lease;
      ev.yield_mid = msg.begin;
      c.lease.end = msg.begin;
      return ev;
    case core::ProtocolMsg::Type::done:
      if (!c.has_lease || msg.begin != c.lease.begin ||
          msg.end != c.lease.end || msg.has_handoff)
        throw OrchestratorError("tcp worker " + std::to_string(worker) +
                                ": unexpected control frame '" + frame +
                                "'");
      c.done_ev = core::WorkerEvent{};
      c.done_ev.kind = core::WorkerEvent::Kind::lease_done;
      c.done_ev.worker = worker;
      c.done_ev.lease = c.lease;
      c.done_ev.label = "tcp worker " + std::to_string(worker) + " lease " +
                        std::to_string(c.lease.seq);
      c.awaiting_report = true;
      return std::nullopt;  // the next frame carries the report
    case core::ProtocolMsg::Type::bye:
      // The exit announcement; the event is raised when the close lands.
      c.said_bye = true;
      c.bye_status = msg.status;
      return std::nullopt;
    default:
      throw OrchestratorError("tcp worker " + std::to_string(worker) +
                              ": unexpected control frame '" + frame + "'");
  }
}

core::WorkerEvent TcpTransport::reap(std::size_t worker) {
  Conn& c = conns_[worker];
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  c.alive = false;
  core::WorkerEvent ev;
  ev.worker = worker;
  if (!c.said_bye) {
    // Dropped without a word: the host is gone (kill -9, power, network)
    // — indistinguishable from preemption, so treat it as one.
    ev.kind = core::WorkerEvent::Kind::preempted;
    ev.status = -1;
    return ev;
  }
  ev.status = c.bye_status;
  ev.kind = c.bye_status == 0   ? core::WorkerEvent::Kind::exited
            : c.bye_status == 4 ? core::WorkerEvent::Kind::preempted
                                : core::WorkerEvent::Kind::died;
  return ev;
}

std::optional<core::WorkerEvent> TcpTransport::wait_any(long timeout_ms) {
  for (;;) {
    // Drain buffered frames before reaping, so a worker that sent
    // DONE + report + BYE and closed yields the lease_done first.
    for (std::size_t w = 0; w < conns_.size(); ++w) {
      Conn& c = conns_[w];
      if (!c.alive) continue;
      std::string frame;
      while (c.frames.pop(&frame)) {
        std::optional<core::WorkerEvent> ev = handle_frame(w, frame);
        if (ev) return ev;
      }
      if (c.saw_eof) return reap(w);
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    for (std::size_t w = 0; w < conns_.size(); ++w) {
      Conn& c = conns_[w];
      if (!c.alive || c.saw_eof) continue;
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
      else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN))
        c.saw_eof = true;
    }
  }
}

void TcpTransport::shutdown(std::size_t worker) {
  if (worker >= conns_.size())
    throw OrchestratorError("shutdown: unknown worker " +
                            std::to_string(worker));
  Conn& c = conns_[worker];
  if (!c.alive) return;
  // The socket stays open: BYE (or the close) still has to arrive.
  send_frame(c.fd, core::format_exit());
}

void TcpTransport::kill(std::size_t worker) {
  if (worker >= conns_.size())
    throw OrchestratorError("kill: unknown worker " +
                            std::to_string(worker));
  Conn& c = conns_[worker];
  if (!c.alive) return;
  // Closing the socket is all the reach we have across machines. The
  // worker behind it sees EOF and exits; a wedged one is the remote
  // host's problem — its lease is already re-leased here.
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  c.alive = false;
}

}  // namespace ep::net
