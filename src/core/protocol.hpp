// The worker line protocol — one grammar shared by every transport.
//
// PR 5/6 grew the control protocol ad hoc: each transport parsed DONE
// lines with sscanf and stuffed everything after "DONE <b> <e>" into a
// string remainder its subclass hook re-parsed. A third transport (tcp)
// would have meant a third copy of that parsing, so the protocol is now
// a module of its own: typed messages, one parser, one formatter set,
// used by the coordinator-side transports (pipe, shm, tcp) and by the
// worker loop in epa_cli alike. Over pipes a message is one newline-
// terminated line; over tcp the same line rides as one length-prefixed
// frame — the bytes between the delimiters are identical.
//
// Version 4 grammar (version 1 had no HELLO/PING/STEAL/YIELD/BYE;
// version 3 added FEEDBACK, the search-plane item append; version 4 adds
// PLAN, which lets one worker fleet serve many plans):
//
//   worker -> coordinator
//     HELLO <version>                 first message a worker ever sends
//     PING                            liveness, sent at checkpoint flushes
//     YIELD <mid> <end>               answer to STEAL: the worker keeps
//                                     [begin, mid) and surrenders
//                                     [mid, end) of its in-flight lease
//     DONE <begin> <end>              lease finished (JSON/tcp data plane)
//     DONE <begin> <end> <off> <len>  lease finished, shm arena handoff
//     BYE <status>                    tcp only: exit status before closing
//
//   coordinator -> worker
//     LEASE <begin> <end> <target>    target: report path, @<seq> arena
//                                     segment, or `-` (report returns as
//                                     a tcp frame)
//     FEEDBACK <begin> <end> <spec>   append search-generated work items
//                                     [begin, end) to the worker's plan
//                                     before their lease arrives; <spec>
//                                     is one space-free token of comma-
//                                     separated point:kind:fault:param
//                                     entries (kind is `i` or `d`)
//     PLAN <token>                    replace the worker's plan before its
//                                     next FEEDBACK or LEASE; <token> is
//                                     the plan file (pipe), the arena path
//                                     (shm), or `-` (tcp: one binary plan
//                                     frame follows)
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

namespace ep::core {

/// The control-protocol version this build speaks. Bumped whenever the
/// grammar above changes incompatibly; the HELLO handshake enforces
/// agreement before any lease is granted.
inline constexpr long long kWorkerProtocolVersion = 4;

/// One parsed protocol message, either direction.
struct ProtocolMsg {
  enum class Type {
    hello,  ///< version
    ping,
    yield,  ///< begin = mid (the split point), end
    done,   ///< begin, end [+ offset/length when has_handoff]
    bye,    ///< status
    lease,  ///< begin, end, target
    feedback,  ///< begin, end, target = the item spec token
    plan,      ///< target = the plan token
    steal,
    exit_cmd,
  };
  Type type = Type::ping;
  long long version = 0;        // hello
  std::size_t begin = 0;        // lease, done, feedback; yield's split point
  std::size_t end = 0;          // lease, done, yield, feedback
  std::string target;           // lease; feedback's item spec; plan
  bool has_handoff = false;     // done: shm (offset, length) present
  std::size_t offset = 0;       // done, shm handoff
  std::size_t length = 0;       // done, shm handoff
  int status = 0;               // bye
};

/// Parse one message (no trailing newline). Returns false when the line
/// matches no production — the caller decides whether that is a protocol
/// error or a worker gone rogue.
bool parse_protocol_line(const std::string& line, ProtocolMsg* out);

/// Formatters — the exact bytes between the delimiters, no newline.
/// parse_protocol_line() round-trips each of these verbatim (the
/// WireFormatDoc test holds the documented grammar to that).
std::string format_hello(long long version);
std::string format_ping();
std::string format_yield(std::size_t mid, std::size_t end);
std::string format_done(std::size_t begin, std::size_t end);
std::string format_done(std::size_t begin, std::size_t end,
                        std::size_t offset, std::size_t length);
std::string format_bye(int status);
std::string format_lease(std::size_t begin, std::size_t end,
                         const std::string& target);
std::string format_feedback(std::size_t begin, std::size_t end,
                            const std::string& spec);
std::string format_plan(const std::string& token);
std::string format_steal();
std::string format_exit();

/// Format one message back to its line — the inverse of
/// parse_protocol_line(), used by the doc test to prove the documented
/// transcript is canonical.
std::string format_protocol_msg(const ProtocolMsg& msg);

}  // namespace ep::core
