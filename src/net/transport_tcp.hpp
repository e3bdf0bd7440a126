// TcpTransport: the remote side of the one worker wire — no shared
// filesystem, no fork. The coordinator listens; workers are started on
// any host (`epa_cli worker --connect host:port`) and dial in. spawn()
// adopts a connection from the accept queue and checks the HELLO
// handshake before the plan frame is shipped; everything after that —
// the frames, the dispatcher, plan switches — is the FramedTransport
// every worker shares (core/transport.hpp, core/protocol.hpp). A local
// worker's stream is a socketpair; a remote one's is this socket.
//
// Both ends set TCP_NODELAY (tcp_accept and tcp_connect). Three exchanges
// write more than once before they read: the coordinator sends the plan
// frame, then LEASE; on a plan switch it sends `PLAN`, the plan frame,
// then FEEDBACK (and its items frame) or LEASE; the worker sends DONE,
// then the report frame. Under
// Nagle's algorithm the second write waits for the ACK of the first,
// and the peer, which is only reading, delays that ACK by ~40 ms, so
// every lease round trip would pay the delayed-ACK timer.
//
// Death has no exit status here, only silence and resets, so the
// classification is wire-level: a worker announces its exit with
// `BYE <status>` before closing (0 clean, 4 preempted, else failure); a
// connection that drops without BYE is a lost host — preempted, and the
// orchestrator's deadman covers the worse case of a socket that stays
// open while the worker behind it is wedged.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/transport.hpp"

namespace ep::net {

/// --- Socket plumbing ---

/// Bind + listen on `port` (0 = ephemeral); `*bound_port` gets the
/// actual port. Throws core::OrchestratorError on failure.
int tcp_listen(int port, int* bound_port);

/// Accept one connection, waiting up to `timeout_ms` (< 0 = forever).
/// Returns -1 on timeout. The socket has TCP_NODELAY set.
int tcp_accept(int listen_fd, long timeout_ms);

/// Connect to host:port; the socket has TCP_NODELAY set. Throws
/// core::OrchestratorError on failure.
int tcp_connect(const std::string& host, int port);

/// --- The transport ---

struct TcpTransportConfig {
  /// Port to listen on; 0 picks an ephemeral port (see port()).
  int listen_port = 0;
  /// When set, the bound port is written here (write_file_atomic), so
  /// scripts that started the coordinator with --listen 0 can learn
  /// where to aim the workers.
  std::string port_file;
  /// Initial fleet size. The first this-many spawn() calls block up to
  /// accept_timeout_ms for a worker to dial in; later spawns (respawns
  /// after a death) only poll the accept queue briefly — a spare worker
  /// someone pre-started is adopted instantly, and nullopt otherwise
  /// lets the orchestrator continue with the smaller fleet.
  int workers = 2;
  long long accept_timeout_ms = 30000;
  /// How long a freshly accepted connection gets to say HELLO. An
  /// opening frame over kMaxOpeningFrameBytes is rejected at its header.
  long long handshake_timeout_ms = 10000;
};

class TcpTransport : public core::FramedTransport {
 public:
  /// Binds and listens immediately; `plan` is encoded once and shipped
  /// to every worker that completes the handshake until load_plan()
  /// replaces it.
  TcpTransport(TcpTransportConfig config, const core::InjectionPlan& plan);
  /// Closes the listening socket; the shared half closes every worker
  /// socket, so workers see EOF and exit — none are left holding a dead
  /// coordinator's connection.
  ~TcpTransport() override;

  std::optional<std::size_t> spawn() override;

  int port() const { return port_; }

 protected:
  /// BYE's status, or preempted (-1) for a connection dropped without.
  core::WorkerEvent ended(std::size_t worker,
                          std::optional<int> bye) override;

 private:
  TcpTransportConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::size_t accepted_ = 0;
};

}  // namespace ep::net
