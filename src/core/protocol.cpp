#include "core/protocol.hpp"

#include <cerrno>
#include <cctype>
#include <cstring>
#include <limits>
#include <poll.h>
#include <unistd.h>

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
        !sc.size(&msg.end) || !sc.at_end())
      return false;
  } else if (sc.literal("BYE")) {
    msg.type = ProtocolMsg::Type::bye;
    long long status = 0;
    if (!sc.space() || !sc.number(&status) || !sc.at_end()) return false;
    if (status > 255) return false;  // wait()-style exit statuses only
    msg.status = static_cast<int>(status);
  } else if (sc.literal("LEASE")) {
    msg.type = ProtocolMsg::Type::lease;
    if (!sc.space() || !sc.size(&msg.begin) || !sc.space() ||
        !sc.size(&msg.end) || !sc.at_end())
      return false;
  } else if (sc.literal("FEEDBACK")) {
    msg.type = ProtocolMsg::Type::feedback;
    if (!sc.space() || !sc.size(&msg.begin) || !sc.space() ||
        !sc.size(&msg.end) || !sc.at_end())
      return false;
  } else if (sc.literal("PLAN")) {
    msg.type = ProtocolMsg::Type::plan;
    if (!sc.at_end()) return false;
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

std::string format_bye(int status) {
  return "BYE " + std::to_string(status);
}

std::string format_lease(std::size_t begin, std::size_t end) {
  return "LEASE " + std::to_string(begin) + " " + std::to_string(end);
}

std::string format_feedback(std::size_t begin, std::size_t end) {
  return "FEEDBACK " + std::to_string(begin) + " " + std::to_string(end);
}

std::string format_plan() { return "PLAN"; }

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
      return format_done(msg.begin, msg.end);
    case ProtocolMsg::Type::bye:
      return format_bye(msg.status);
    case ProtocolMsg::Type::lease:
      return format_lease(msg.begin, msg.end);
    case ProtocolMsg::Type::feedback:
      return format_feedback(msg.begin, msg.end);
    case ProtocolMsg::Type::plan:
      return format_plan();
    case ProtocolMsg::Type::steal:
      return format_steal();
    case ProtocolMsg::Type::exit_cmd:
      return format_exit();
  }
  return {};
}

std::string quote_frame(const std::string& frame) {
  std::string out = "'";
  for (char c : frame.substr(0, 80))
    out.push_back(c >= 0x20 && c < 0x7f ? c : '?');
  return out + (frame.size() > 80 ? "...'" : "'");
}

FrameTooLarge::FrameTooLarge(std::size_t bytes, std::size_t limit)
    : OrchestratorError("oversized frame (" + std::to_string(bytes) +
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
      throw OrchestratorError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready == 0) throw OrchestratorError("timed out waiting for a frame");
    char buf[1 << 16];
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      fb->feed(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      if (fb->mid_frame())
        throw OrchestratorError("stream closed mid-frame");
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

bool FrameChannel::recv(std::string* payload) {
  if (eof_) return false;
  if (!recv_frame(in_, &frames_, payload, -1)) eof_ = true;
  return !eof_;
}

bool FrameChannel::poll(std::string* payload) {
  if (frames_.pop(payload)) return true;
  if (!eof_) eof_ = !pump_nonblocking(in_, &frames_);
  return frames_.pop(payload);
}

}  // namespace ep::core
