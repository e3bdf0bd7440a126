#include "net/transport_tcp.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "core/protocol.hpp"
#include "util/atomic_file.hpp"

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
    : FramedTransport("tcp worker"), config_(std::move(config)) {
  load_plan(plan);
  listen_fd_ = tcp_listen(config_.listen_port, &port_);
  if (!config_.port_file.empty()) {
    // Through a fresh temp file and a rename: a script polling the file
    // never reads a half-written port number, and a symlink planted at
    // the path or beside it is replaced, never followed. Not fsynced —
    // the port means nothing once this coordinator is gone.
    try {
      write_file_atomic(config_.port_file, std::to_string(port_) + "\n",
                        /*durable=*/false);
    } catch (const std::runtime_error& e) {
      ::close(listen_fd_);
      throw OrchestratorError(std::string("port file: ") + e.what());
    }
  }
}

TcpTransport::~TcpTransport() {
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

  // Until HELLO the peer is unauthenticated: its opening frame gets the
  // control-line cap, rejected the moment the 4-byte header lands, and
  // no plan goes out before the version is checked.
  core::FrameBuffer opening;
  opening.set_max_frame(core::kMaxOpeningFrameBytes);
  std::string hello;
  bool got = false;
  try {
    got = core::recv_frame(fd, &opening, &hello,
                           config_.handshake_timeout_ms);
  } catch (const core::FrameTooLarge& e) {
    ::close(fd);
    throw OrchestratorError(
        "tcp worker opened with a " + std::to_string(e.bytes()) +
        "-byte frame instead of HELLO (at most " +
        std::to_string(core::kMaxOpeningFrameBytes) +
        " bytes before the handshake)");
  } catch (const OrchestratorError&) {
    got = false;  // timed out or died mid-handshake
  }
  if (!got) {
    ::close(fd);
    return std::nullopt;  // a dud connection costs only itself
  }
  try {
    check_hello("tcp worker", hello);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return adopt(fd, /*greeted=*/true);
}

core::WorkerEvent TcpTransport::ended(std::size_t worker,
                                      std::optional<int> bye) {
  (void)worker;
  core::WorkerEvent ev;
  if (!bye) {
    // Dropped without a word: the host is gone (kill -9, power, network)
    // — indistinguishable from preemption, so treat it as one.
    ev.kind = core::WorkerEvent::Kind::preempted;
    ev.status = -1;
    return ev;
  }
  ev.status = *bye;
  ev.kind = kind_of_status(*bye);
  return ev;
}

}  // namespace ep::net
