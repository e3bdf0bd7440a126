// The worker protocol — one grammar and one framing, shared by every
// transport.
//
// PR 5/6 grew the control protocol ad hoc: each transport parsed DONE
// lines with sscanf and stuffed everything after "DONE <b> <e>" into a
// string remainder its subclass hook re-parsed. A third transport (tcp)
// would have meant a third copy of that parsing, so the protocol is a
// module of its own: typed messages, one parser, one formatter set, and
// one frame codec, used by the coordinator's transports (local and tcp)
// and by the worker loop in epa_cli alike.
//
// Every byte between a coordinator and a worker is a **frame**: a u32
// little-endian payload length, then the payload. A local worker speaks
// frames on its stdin/stdout, a remote one on its socket — the same
// bytes either way. Control frames carry one message of the grammar
// below (no newline); three frame kinds carry bulk payloads, each the
// frame right after its message: the binary plan (the first frame a
// worker receives, and the frame after each `PLAN`), the binary work
// items (after each FEEDBACK) and the binary report (after each DONE).
//
// Version 7 grammar (version 1 had no HELLO/PING/STEAL/YIELD/BYE;
// version 3 added FEEDBACK, the search plane's item append; version 4
// added PLAN, which lets one worker fleet serve many plans; version 5
// marked the shard report v4 / binary v3 encodings; version 6 made the
// frame stream the only wire; version 7 moves FEEDBACK's items into a
// binary frame and drops the `-` target of LEASE and PLAN):
//
//   worker -> coordinator
//     HELLO <version>                 first message a worker ever sends
//     PING                            liveness, sent at checkpoints
//     YIELD <mid> <end>               answer to STEAL: the worker keeps
//                                     [begin, mid) and surrenders
//                                     [mid, end) of its in-flight lease
//     DONE <begin> <end>              lease finished; the binary report
//                                     frame follows
//     BYE <status>                    exit status, sent before closing
//
//   coordinator -> worker
//     LEASE <begin> <end>             drain [begin, end); the report
//                                     comes back as the frame after DONE
//     FEEDBACK <begin> <end>          append search-generated work items
//                                     [begin, end) to the worker's plan
//                                     before their lease arrives; the
//                                     binary work-items frame follows
//     PLAN                            replace the worker's plan before its
//                                     next FEEDBACK or LEASE; the binary
//                                     plan frame follows
//     STEAL                           yield the undrained tail of the
//                                     current lease at the next checkpoint
//     EXIT                            finish up and exit 0
//
// A worker that opens with anything but `HELLO <kWorkerProtocolVersion>`
// is rejected with a diagnostic naming both versions — old fleets fail
// fast instead of wedging mid-campaign.
#pragma once

#include <cstddef>
#include <string>

#include "core/orchestrator.hpp"

namespace ep::core {

/// The control-protocol version this build speaks. Bumped whenever the
/// grammar above or the plan/report encodings it carries change
/// incompatibly; the HELLO handshake enforces agreement before any lease
/// is granted.
inline constexpr long long kWorkerProtocolVersion = 7;

/// One parsed protocol message, either direction.
struct ProtocolMsg {
  enum class Type {
    hello,  ///< version
    ping,
    yield,  ///< begin = mid (the split point), end
    done,   ///< begin, end
    bye,    ///< status
    lease,     ///< begin, end
    feedback,  ///< begin, end
    plan,
    steal,
    exit_cmd,
  };
  Type type = Type::ping;
  long long version = 0;        // hello
  std::size_t begin = 0;        // lease, done, feedback; yield's split point
  std::size_t end = 0;          // lease, done, yield, feedback
  int status = 0;               // bye
};

/// Parse one message. Returns false when the payload matches no
/// production — the caller decides whether that is a protocol error or
/// a worker gone rogue.
bool parse_protocol_line(const std::string& line, ProtocolMsg* out);

/// Formatters — the exact payload bytes of each control frame.
/// parse_protocol_line() round-trips each of these verbatim (the
/// WireFormatDoc test holds the documented grammar to that).
std::string format_hello(long long version);
std::string format_ping();
std::string format_yield(std::size_t mid, std::size_t end);
std::string format_done(std::size_t begin, std::size_t end);
std::string format_bye(int status);
std::string format_lease(std::size_t begin, std::size_t end);
std::string format_feedback(std::size_t begin, std::size_t end);
std::string format_plan();
std::string format_steal();
std::string format_exit();

/// Format one message back to its payload — the inverse of
/// parse_protocol_line(), used by the doc test to prove the documented
/// transcript is canonical.
std::string format_protocol_msg(const ProtocolMsg& msg);

/// A frame quoted for a diagnostic: `'...'` with non-printable bytes as
/// '?' and at most 80 of them, so a control frame reads as itself and a
/// binary one cannot garble a terminal.
std::string quote_frame(const std::string& frame);

/// --- Frames ---

/// Anything bigger is a corrupt length prefix, not a frame: the largest
/// real payload is a plan or report, megabytes at worst.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

/// The cap on a worker's opening frame, before HELLO has proven the peer
/// is a worker, so a 4-byte header cannot make the coordinator buffer
/// 1 GiB.
inline constexpr std::size_t kMaxOpeningFrameBytes = 65536;

/// A length prefix above the FrameBuffer's cap — corruption or a hostile
/// peer; bytes() is the announced length.
class FrameTooLarge : public OrchestratorError {
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
  /// Bytes held right now: at most one partial frame past the last pop.
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  std::size_t max_frame_ = kMaxFrameBytes;
};

/// Write one length-prefixed frame. Returns false on any write failure
/// (EPIPE, reset): the death story belongs to the read side, not here.
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

/// A worker's one channel to its coordinator: frames in on `in_fd`,
/// frames out on `out_fd` — fds 0 and 1 for a forked worker, one socket
/// twice for a dialed-in one. Raw fds rather than stdio: the STEAL poll
/// between checkpoint chunks needs a non-blocking read that does not
/// fight a buffered FILE*. The fds are not owned.
class FrameChannel {
 public:
  FrameChannel(int in_fd, int out_fd) : in_(in_fd), out_(out_fd) {}
  /// False on a dead peer; the read side tells the death story.
  bool send(const std::string& payload) { return send_frame(out_, payload); }
  /// Block for the next frame. False on EOF at a frame boundary.
  bool recv(std::string* payload);
  /// Pop one already-arrived frame without blocking.
  bool poll(std::string* payload);
  const FrameBuffer& buffer() const { return frames_; }

 private:
  int in_;
  int out_;
  FrameBuffer frames_;
  bool eof_ = false;
};

}  // namespace ep::core
