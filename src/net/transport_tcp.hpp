// TcpTransport: the first *remote* data plane — no shared filesystem,
// no fork. The coordinator listens; workers are started on any host
// (`epa_cli worker --connect host:port`) and dial in. spawn() adopts a
// connection from the accept queue, checks the HELLO handshake, and
// ships the current plan down the socket as one binary EPAB frame; lease
// reports ride back as binary frames. load_plan() switches a connected
// fleet to another plan: each worker gets `PLAN -` and the new plan
// frame before its next FEEDBACK or LEASE. The control protocol is the
// same versioned line grammar every transport speaks (core/protocol.hpp)
// — one line per frame instead of one line per '\n'.
//
// Framing is the simplest thing that works on a byte stream: a u32
// little-endian payload length, then the payload. Control frames carry
// protocol-line text; a DONE control frame is followed immediately by
// one binary frame holding the lease's ShardReport (EPAB bytes). The
// first frame a connection sends must be HELLO, and until it arrives
// the coordinator accepts no frame above kMaxOpeningFrameBytes.
//
// Both ends set TCP_NODELAY (tcp_accept and tcp_connect). Three exchanges
// write more than once before they read: the coordinator sends the plan
// frame, then LEASE; on a plan switch it sends `PLAN -`, the plan frame,
// then FEEDBACK or LEASE; the worker sends DONE, then the report frame. Under
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

#include "core/orchestrator.hpp"

namespace ep::net {

/// --- Frame plumbing, shared by coordinator, worker, and bench ---

/// Anything bigger is a corrupt length prefix, not a frame: the largest
/// real payload is a plan or report, megabytes at worst.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

/// The cap on a connection's opening frame, before HELLO has proven the
/// peer is a worker: the same 64 KiB a pipe worker allows one command
/// line, so a 4-byte header cannot make the coordinator buffer 1 GiB.
inline constexpr std::size_t kMaxOpeningFrameBytes = 65536;

/// A length prefix above the FrameBuffer's cap — corruption or a hostile
/// peer; bytes() is the announced length.
class FrameTooLarge : public core::OrchestratorError {
 public:
  FrameTooLarge(std::size_t bytes, std::size_t limit);
  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_;
};

/// Incremental frame reassembly: feed() raw bytes, pop() complete
/// payloads. mid_frame() says bytes are buffered but incomplete — how
/// EOF-mid-frame is told apart from EOF at a boundary. pop() throws
/// FrameTooLarge as soon as a header announces more than the cap
/// (kMaxFrameBytes unless set_max_frame() lowered it); nothing that
/// size is waited for.
class FrameBuffer {
 public:
  void set_max_frame(std::size_t max_frame) { max_frame_ = max_frame; }
  void feed(const char* data, std::size_t n);
  bool pop(std::string* payload);
  bool mid_frame() const { return !buf_.empty(); }

 private:
  std::string buf_;
  std::size_t max_frame_ = kMaxFrameBytes;
};

/// Write one length-prefixed frame. Returns false on any write failure
/// (EPIPE, reset) — like the pipe transport's write_line, the death
/// story belongs to the read side, not here.
bool send_frame(int fd, const std::string& payload);

/// Block until one frame is available in `fb` (reading from `fd` as
/// needed), the peer closes (returns false), or `timeout_ms` passes
/// (throws; < 0 = wait forever). EOF mid-frame throws — the peer died
/// mid-sentence.
bool recv_frame(int fd, FrameBuffer* fb, std::string* payload,
                long timeout_ms = -1);

/// Drain whatever is readable *right now* into `fb` without blocking —
/// how a draining worker polls for STEAL between chunks. Returns false
/// once the peer has closed.
bool pump_nonblocking(int fd, FrameBuffer* fb);

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
  /// When set, the bound port is written here (atomic rename), so
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

class TcpTransport : public core::Transport {
 public:
  /// Binds and listens immediately; `plan` is encoded once and shipped
  /// to every worker that completes the handshake until load_plan()
  /// replaces it.
  TcpTransport(TcpTransportConfig config, const core::InjectionPlan& plan);
  /// Closes every socket — workers see EOF and exit; none are left
  /// holding a dead coordinator's connection.
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  std::optional<std::size_t> spawn() override;
  void submit(std::size_t worker, const core::Lease& lease) override;
  void steal(std::size_t worker) override;
  /// FEEDBACK as a control frame — same line bytes the pipe transport
  /// writes, framed like every other control message.
  void feedback(std::size_t worker, const core::InjectionPlan& plan,
                std::size_t begin, std::size_t end) override;
  /// Re-encodes the plan frame. Workers accepted later get it at the
  /// handshake; connected ones get `PLAN -` plus the frame, once, before
  /// their next FEEDBACK or LEASE. `leases` is unused on this plane.
  void load_plan(const core::InjectionPlan& plan,
                 const std::vector<core::Lease>& leases) override;
  std::optional<core::WorkerEvent> wait_any(long timeout_ms) override;
  void shutdown(std::size_t worker) override;
  void kill(std::size_t worker) override;

  int port() const { return port_; }

 private:
  struct Conn {
    int fd = -1;
    bool alive = false;
    bool saw_eof = false;
    bool said_bye = false;
    int bye_status = 0;
    bool has_lease = false;
    bool awaiting_report = false;  // DONE seen; next frame is the report
    core::Lease lease;
    core::WorkerEvent done_ev;  // built from DONE, completed by the frame
    FrameBuffer frames;
    std::size_t plan_gen = 0;  // the load_plan() generation it holds
  };

  std::optional<core::WorkerEvent> handle_frame(std::size_t worker,
                                                const std::string& frame);
  core::WorkerEvent reap(std::size_t worker);
  /// Send `PLAN -` and the current plan frame to a worker still on an
  /// older plan, ahead of the FEEDBACK or LEASE about to follow.
  void sync_plan(Conn& c);

  TcpTransportConfig config_;
  std::string plan_wire_;  // binary EPAB plan, shipped per worker
  std::size_t plan_gen_ = 0;  // bumped by every load_plan()
  int listen_fd_ = -1;
  int port_ = 0;
  std::size_t accepted_ = 0;
  std::vector<Conn> conns_;
};

}  // namespace ep::net
