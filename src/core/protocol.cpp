#include "core/protocol.hpp"

#include <cctype>
#include <limits>

namespace ep::core {
namespace {

/// Strict token scanner: the protocol is machine-to-machine, so parsing
/// is exact — single spaces between tokens, no leading/trailing slack,
/// numbers are plain non-negative decimal with no sign or prefix.
class Scanner {
 public:
  explicit Scanner(const std::string& line) : s_(line) {}

  bool literal(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool space() {
    if (pos_ >= s_.size() || s_[pos_] != ' ') return false;
    ++pos_;
    return true;
  }

  bool number(long long* out) {
    std::size_t start = pos_;
    unsigned long long v = 0;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(
                                   s_[pos_]))) {
      unsigned long long digit =
          static_cast<unsigned long long>(s_[pos_] - '0');
      if (v > (~0ULL - digit) / 10) return false;  // overflow
      v = v * 10 + digit;
      ++pos_;
    }
    if (pos_ == start) return false;
    if (v > static_cast<unsigned long long>(
                std::numeric_limits<long long>::max()))
      return false;
    *out = static_cast<long long>(v);
    return true;
  }

  bool size(std::size_t* out) {
    long long v = 0;
    if (!number(&v)) return false;
    *out = static_cast<std::size_t>(v);
    return true;
  }

  /// The rest of the line, which must be non-empty and spaceless — a
  /// lease target or a plan token is one token.
  bool token_to_end(std::string* out) {
    if (pos_ >= s_.size()) return false;
    std::string rest = s_.substr(pos_);
    if (rest.find(' ') != std::string::npos) return false;
    pos_ = s_.size();
    *out = rest;
    return true;
  }

  bool at_end() const { return pos_ == s_.size(); }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_protocol_line(const std::string& line, ProtocolMsg* out) {
  ProtocolMsg msg;
  Scanner sc(line);
  if (sc.literal("HELLO")) {
    msg.type = ProtocolMsg::Type::hello;
    if (!sc.space() || !sc.number(&msg.version) || !sc.at_end())
      return false;
  } else if (sc.literal("PING")) {
    msg.type = ProtocolMsg::Type::ping;
    if (!sc.at_end()) return false;
  } else if (sc.literal("YIELD")) {
    msg.type = ProtocolMsg::Type::yield;
    if (!sc.space() || !sc.size(&msg.begin) || !sc.space() ||
        !sc.size(&msg.end) || !sc.at_end())
      return false;
  } else if (sc.literal("DONE")) {
    msg.type = ProtocolMsg::Type::done;
    if (!sc.space() || !sc.size(&msg.begin) || !sc.space() ||
        !sc.size(&msg.end))
      return false;
    if (!sc.at_end()) {
      msg.has_handoff = true;
      if (!sc.space() || !sc.size(&msg.offset) || !sc.space() ||
          !sc.size(&msg.length) || !sc.at_end())
        return false;
    }
  } else if (sc.literal("BYE")) {
    msg.type = ProtocolMsg::Type::bye;
    long long status = 0;
    if (!sc.space() || !sc.number(&status) || !sc.at_end()) return false;
    if (status > 255) return false;  // wait()-style exit statuses only
    msg.status = static_cast<int>(status);
  } else if (sc.literal("LEASE")) {
    msg.type = ProtocolMsg::Type::lease;
    if (!sc.space() || !sc.size(&msg.begin) || !sc.space() ||
        !sc.size(&msg.end) || !sc.space() || !sc.token_to_end(&msg.target))
      return false;
  } else if (sc.literal("FEEDBACK")) {
    msg.type = ProtocolMsg::Type::feedback;
    if (!sc.space() || !sc.size(&msg.begin) || !sc.space() ||
        !sc.size(&msg.end) || !sc.space() || !sc.token_to_end(&msg.target))
      return false;
  } else if (sc.literal("PLAN")) {
    msg.type = ProtocolMsg::Type::plan;
    if (!sc.space() || !sc.token_to_end(&msg.target)) return false;
  } else if (sc.literal("STEAL")) {
    msg.type = ProtocolMsg::Type::steal;
    if (!sc.at_end()) return false;
  } else if (sc.literal("EXIT")) {
    msg.type = ProtocolMsg::Type::exit_cmd;
    if (!sc.at_end()) return false;
  } else {
    return false;
  }
  *out = msg;
  return true;
}

std::string format_hello(long long version) {
  return "HELLO " + std::to_string(version);
}

std::string format_ping() { return "PING"; }

std::string format_yield(std::size_t mid, std::size_t end) {
  return "YIELD " + std::to_string(mid) + " " + std::to_string(end);
}

std::string format_done(std::size_t begin, std::size_t end) {
  return "DONE " + std::to_string(begin) + " " + std::to_string(end);
}

std::string format_done(std::size_t begin, std::size_t end,
                        std::size_t offset, std::size_t length) {
  return format_done(begin, end) + " " + std::to_string(offset) + " " +
         std::to_string(length);
}

std::string format_bye(int status) {
  return "BYE " + std::to_string(status);
}

std::string format_lease(std::size_t begin, std::size_t end,
                         const std::string& target) {
  return "LEASE " + std::to_string(begin) + " " + std::to_string(end) +
         " " + target;
}

std::string format_feedback(std::size_t begin, std::size_t end,
                            const std::string& spec) {
  return "FEEDBACK " + std::to_string(begin) + " " + std::to_string(end) +
         " " + spec;
}

std::string format_plan(const std::string& token) { return "PLAN " + token; }

std::string format_steal() { return "STEAL"; }

std::string format_exit() { return "EXIT"; }

std::string format_protocol_msg(const ProtocolMsg& msg) {
  switch (msg.type) {
    case ProtocolMsg::Type::hello:
      return format_hello(msg.version);
    case ProtocolMsg::Type::ping:
      return format_ping();
    case ProtocolMsg::Type::yield:
      return format_yield(msg.begin, msg.end);
    case ProtocolMsg::Type::done:
      return msg.has_handoff
                 ? format_done(msg.begin, msg.end, msg.offset, msg.length)
                 : format_done(msg.begin, msg.end);
    case ProtocolMsg::Type::bye:
      return format_bye(msg.status);
    case ProtocolMsg::Type::lease:
      return format_lease(msg.begin, msg.end, msg.target);
    case ProtocolMsg::Type::feedback:
      return format_feedback(msg.begin, msg.end, msg.target);
    case ProtocolMsg::Type::plan:
      return format_plan(msg.target);
    case ProtocolMsg::Type::steal:
      return format_steal();
    case ProtocolMsg::Type::exit_cmd:
      return format_exit();
  }
  return {};
}

}  // namespace ep::core
