// The real `epa_cli worker` over its framed stdin/stdout, with this test
// playing coordinator: the conversation a local orchestrate has with
// every worker it forks (core/protocol.hpp). Then the frame stream
// itself under mutation: one real transcript, recorded in both
// directions, with every length prefix corrupted and every truncation
// point, fed to the coordinator's dispatcher and to the worker's channel.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/report.hpp"
#include "core/transport.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

/// stdout of an epa_cli command line (binary-safe).
std::string epa_cli_output(const std::string& args) {
  std::string cmd = std::string(EP_EPA_CLI) + " " + args;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (!p) return {};
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
  ::pclose(p);
  return out;
}

/// The binary plan frame of `plan ARGS`: plan files are JSON, frames
/// binary.
std::string plan_frame(const std::string& args) {
  return plan_to_binary(plan_from_json(epa_cli_output("plan " + args)));
}

void write_raw(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Everything readable from `fd` until the peer closes.
std::string read_all(int fd) {
  std::string out;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0)
    out.append(buf, static_cast<std::size_t>(n));
  return out;
}

/// One forked `epa_cli worker`: frames on a socketpair as its stdin and
/// stdout, stderr captured in a temp file.
class Worker {
 public:
  Worker() {
    std::signal(SIGPIPE, SIG_IGN);  // a dead worker is an EOF, not a kill
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    err_ = std::tmpfile();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(sv[1], STDIN_FILENO);
      ::dup2(sv[1], STDOUT_FILENO);
      ::dup2(::fileno(err_), STDERR_FILENO);
      ::close(sv[0]);
      ::close(sv[1]);
      ::execl(EP_EPA_CLI, EP_EPA_CLI, "worker", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(sv[1]);
    fd_ = sv[0];
  }
  ~Worker() {
    if (fd_ >= 0) ::close(fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (err_) std::fclose(err_);
  }

  void send(const std::string& payload) {
    EXPECT_TRUE(send_frame(fd_, payload));
  }
  void send_raw(const std::string& bytes) { write_raw(fd_, bytes); }
  /// The next frame, or nullopt at EOF.
  std::optional<std::string> next() {
    std::string payload;
    if (!recv_frame(fd_, &frames_, &payload, 20000)) return std::nullopt;
    return payload;
  }
  /// Everything the worker writes, raw, until it closes.
  std::string rest() { return read_all(fd_); }
  /// Close our end, reap, and return the exit status (-1 if signaled).
  int exit_status() {
    ::close(fd_);
    fd_ = -1;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  std::string stderr_text() {
    std::fflush(err_);
    std::rewind(err_);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, err_)) > 0) out.append(buf, n);
    return out;
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  std::FILE* err_ = nullptr;
  FrameBuffer frames_;
};

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1))
    ++n;
  return n;
}

TEST(WorkerStdio, DrainsManyLeasesWithOneParse) {
  // One worker process serves several leases with exactly one plan
  // parse + prototype freeze, answers each with DONE and its report
  // frame, and the reports merge byte-identically to `run`.
  const std::string wire = plan_frame("lpr --sites create-tempfile");
  InjectionPlan plan = plan_from_binary(wire);
  ASSERT_GE(plan.items.size(), 4u);

  Worker w;
  w.send(wire);
  w.send(format_lease(0, 3));
  w.send(format_lease(3, 4));
  w.send(format_exit());
  std::vector<std::string> control;
  std::vector<ShardReport> reports;
  while (std::optional<std::string> f = w.next()) {
    control.push_back(*f);
    if (starts_with(*f, "DONE ")) {
      std::optional<std::string> report = w.next();
      ASSERT_TRUE(report.has_value());
      reports.push_back(shard_report_from_binary(*report));
    }
  }
  EXPECT_EQ(w.exit_status(), 0);
  EXPECT_EQ(control, (std::vector<std::string>{
                         "HELLO 7", "DONE 0 3", "DONE 3 4", "BYE 0"}));
  EXPECT_EQ(count_of(w.stderr_text(), "prototype frozen"), 1u);

  ASSERT_EQ(reports.size(), 2u);
  CampaignResult merged =
      merge_shard_reports(plan, reports, {"lease 0", "lease 1"});
  EXPECT_EQ(render_json(merged),
            epa_cli_output("run lpr --sites create-tempfile --json"));
}

TEST(WorkerStdio, MalformedControlFrameExitsOne) {
  Worker w;
  w.send(plan_frame("lpr"));
  w.send("FROB");
  (void)w.rest();
  EXPECT_EQ(w.exit_status(), 1);
  EXPECT_TRUE(contains(w.stderr_text(), "epa: worker: malformed command 'FROB'"))
      << w.stderr_text();
}

TEST(WorkerStdio, LeaseBeyondThePlanExitsOne) {
  Worker w;
  w.send(plan_frame("lpr"));
  w.send(format_lease(0, 99999));
  (void)w.rest();
  EXPECT_EQ(w.exit_status(), 1);
  EXPECT_TRUE(contains(w.stderr_text(), "epa: ")) << w.stderr_text();
}

TEST(WorkerStdio, LeaseReportIsTheDocumentedExample) {
  // docs/WIRE_FORMAT.md's lease example is exactly the report frame a
  // worker returns for `LEASE 1 3` against the documented plan.
  std::ifstream in(std::string(EP_SOURCE_DIR) + "/docs/WIRE_FORMAT.md");
  std::ostringstream doc;
  doc << in.rdbuf();
  const std::string text = doc.str();
  const std::size_t marker =
      text.find("<!-- wire-format-example: shard-report-lease -->");
  ASSERT_NE(marker, std::string::npos);
  const std::size_t open = text.find("```json\n", marker) + 8;
  const std::string example = text.substr(open, text.find("```", open) - open);

  Worker w;
  w.send(plan_frame("lpr --sites create-tempfile"));
  w.send(format_lease(1, 3));
  w.send(format_exit());
  EXPECT_EQ(w.next(), "HELLO 7");
  EXPECT_EQ(w.next(), "DONE 1 3");
  std::optional<std::string> report = w.next();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(shard_report_from_binary(*report).to_json(), example)
      << "regenerate the shard-report-lease example from this report";
  (void)w.rest();
  EXPECT_EQ(w.exit_status(), 0);
}

TEST(SearchFeedback, WorkerAppendsTheItemsFrameAndChecksItsRange) {
  // A search worker starts on a plan with no items; FEEDBACK and the
  // work-items frame after it append them by stable id, and the lease
  // over them reports exactly what the full plan's lease reports.
  const InjectionPlan full =
      plan_from_json(epa_cli_output("plan lpr --sites create-tempfile"));
  ASSERT_GE(full.items.size(), 2u);
  InjectionPlan empty = full;
  empty.items.clear();
  const std::size_t n = full.items.size();
  {
    Worker w;
    w.send(plan_to_binary(empty));
    w.send(format_feedback(0, n));
    w.send(work_items_to_binary(full, 0, n));
    w.send(format_lease(0, n));
    w.send(format_exit());
    EXPECT_EQ(w.next(), "HELLO 7");
    EXPECT_EQ(w.next(), "DONE 0 " + std::to_string(n));
    std::optional<std::string> report = w.next();
    ASSERT_TRUE(report.has_value());
    Worker control;
    control.send(plan_to_binary(full));
    control.send(format_lease(0, n));
    control.send(format_exit());
    EXPECT_EQ(control.next(), "HELLO 7");
    EXPECT_EQ(control.next(), "DONE 0 " + std::to_string(n));
    EXPECT_EQ(control.next(), report);
    (void)w.rest();
    (void)control.rest();
    EXPECT_EQ(w.exit_status(), 0);
    EXPECT_EQ(control.exit_status(), 0);
  }
  {
    // A gap: the append must start at the worker's item count.
    Worker w;
    w.send(plan_to_binary(empty));
    w.send(format_feedback(1, n));
    w.send(work_items_to_binary(full, 1, n));
    (void)w.rest();
    EXPECT_EQ(w.exit_status(), 1);
    EXPECT_TRUE(contains(w.stderr_text(), "(lost feedback?)"))
        << w.stderr_text();
  }
  {
    // The frame must hold the announced range, no more and no less.
    Worker w;
    w.send(plan_to_binary(empty));
    w.send(format_feedback(0, n));
    w.send(work_items_to_binary(full, 0, n - 1));
    (void)w.rest();
    EXPECT_EQ(w.exit_status(), 1);
    EXPECT_TRUE(contains(w.stderr_text(), "but the frame carries"))
        << w.stderr_text();
  }
}

// --- the frame stream under mutation ----------------------------------------

/// The shared dispatcher over one end of a socketpair.
class PairTransport : public FramedTransport {
 public:
  explicit PairTransport(const InjectionPlan& plan)
      : FramedTransport("worker") {
    load_plan(plan);
  }
  std::optional<std::size_t> spawn() override { return std::nullopt; }
  std::size_t add(int fd) { return adopt(fd, /*greeted=*/false); }

 protected:
  WorkerEvent ended(std::size_t, std::optional<int> bye) override {
    WorkerEvent ev;
    ev.kind = bye ? kind_of_status(*bye) : WorkerEvent::Kind::preempted;
    return ev;
  }
};

/// One real transcript of `lpr`: every byte the coordinator's
/// dispatcher sends a worker (plan frame, one lease over the whole plan,
/// EXIT) and every byte the real worker sends back (HELLO, DONE, report
/// frame, BYE).
struct Transcript {
  InjectionPlan plan;
  std::string down;
  std::string up;
};

const Transcript& lpr_transcript() {
  static const Transcript t = [] {
    Transcript r;
    r.plan = plan_from_json(epa_cli_output("plan lpr"));
    {
      PairTransport coordinator(r.plan);
      int sv[2];
      EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      const std::size_t w = coordinator.add(sv[0]);
      coordinator.submit(w, {0, 0, r.plan.items.size()});
      coordinator.shutdown(w);
      r.down = read_all(sv[1]);
      ::close(sv[1]);
    }
    Worker worker;
    worker.send_raw(r.down);
    r.up = worker.rest();
    EXPECT_EQ(worker.exit_status(), 0);
    return r;
  }();
  return t;
}

/// The u32 little-endian length prefix at `at`.
std::uint32_t prefix_at(const std::string& stream, std::size_t at) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(stream[at + i]))
           << (8 * i);
  return len;
}

/// Offsets of every length prefix in a well-formed frame stream.
std::vector<std::size_t> prefixes(const std::string& stream) {
  std::vector<std::size_t> at;
  std::size_t off = 0;
  while (off + 4 <= stream.size()) {
    at.push_back(off);
    off += 4 + prefix_at(stream, off);
  }
  EXPECT_EQ(off, stream.size()) << "the recorded stream is not all frames";
  return at;
}

/// Every mutant: each prefix set to 0, ±1 of itself, 2^31 and
/// 0xFFFFFFFF, then the stream truncated at every byte.
std::vector<std::string> mutants(const std::string& stream) {
  std::vector<std::string> out;
  for (std::size_t at : prefixes(stream)) {
    const std::uint32_t len = prefix_at(stream, at);
    for (std::uint32_t v :
         {0u, len - 1, len + 1, 0x80000000u, 0xFFFFFFFFu}) {
      std::string m = stream;
      for (int i = 0; i < 4; ++i)
        m[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
      out.push_back(std::move(m));
    }
  }
  for (std::size_t cut = 0; cut < stream.size(); ++cut)
    out.push_back(stream.substr(0, cut));
  return out;
}

enum class End { hang, error, closed };

/// Replay `up` as a worker's whole output into the dispatcher, with the
/// transcript's lease in flight. Events are delivered until the stream's
/// end is classified (closed) or the dispatcher throws one of the wire's
/// own errors (FrameTooLarge is an OrchestratorError). Any other
/// exception escapes and fails the test. `done` counts lease_done events.
End replay_up(const Transcript& t, const std::string& up, int* done) {
  PairTransport transport(t.plan);
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::size_t w = transport.add(sv[0]);
  transport.submit(w, {0, 0, t.plan.items.size()});
  write_raw(sv[1], up);
  ::close(sv[1]);
  *done = 0;
  for (int i = 0; i < 16; ++i) {
    std::optional<WorkerEvent> ev;
    try {
      ev = transport.wait_any(5000);
    } catch (const OrchestratorError&) {
      return End::error;
    } catch (const WireError&) {
      return End::error;
    }
    if (!ev) return End::hang;
    if (ev->kind == WorkerEvent::Kind::lease_done) ++*done;
    if (ev->kind == WorkerEvent::Kind::exited ||
        ev->kind == WorkerEvent::Kind::preempted ||
        ev->kind == WorkerEvent::Kind::died)
      return End::closed;
  }
  return End::hang;
}

/// Feed `down` to a worker's channel and read it the way the worker
/// does: the first frame and the frame after each `PLAN` are plans,
/// every other frame a control message (one that does not parse is the
/// worker's exit-1 diagnostic). The channel never buffers more than
/// arrived, whatever a prefix announces.
End replay_down(const std::string& down) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  write_raw(sv[0], down);
  ::close(sv[0]);
  FrameChannel chan(sv[1], sv[1]);
  End end = End::closed;
  try {
    bool want_plan = true;
    std::string frame;
    while (chan.recv(&frame)) {
      EXPECT_LE(chan.buffer().buffered(), down.size());
      if (want_plan) {
        (void)plan_from_binary(frame);
        want_plan = false;
        continue;
      }
      ProtocolMsg msg;
      if (!parse_protocol_line(frame, &msg)) {
        end = End::error;
        break;
      }
      want_plan = msg.type == ProtocolMsg::Type::plan;
    }
  } catch (const OrchestratorError&) {
    end = End::error;
  } catch (const WireError&) {
    end = End::error;
  }
  ::close(sv[1]);
  return end;
}

TEST(FrameMutation, CoordinatorDispatcherEndsCleanlyOnEveryMutant) {
  const Transcript& t = lpr_transcript();
  int done = 0;
  ASSERT_EQ(replay_up(t, t.up, &done), End::closed);
  ASSERT_EQ(done, 1) << "the unmutated transcript delivers its report";

  std::size_t errors = 0, closes = 0, n = 0;
  for (const std::string& m : mutants(t.up)) {
    End end = replay_up(t, m, &done);
    ASSERT_NE(end, End::hang) << "mutant " << n << " hung the dispatcher";
    (end == End::error ? errors : closes) += 1;
    ++n;
  }
  EXPECT_GT(n, t.up.size());  // every truncation point ran
  EXPECT_GT(errors, 0u);
  EXPECT_GT(closes, 0u);
}

TEST(FrameMutation, WorkerChannelEndsCleanlyOnEveryMutant) {
  const Transcript& t = lpr_transcript();
  ASSERT_EQ(replay_down(t.down), End::closed);

  std::size_t errors = 0, closes = 0;
  for (const std::string& m : mutants(t.down))
    (replay_down(m) == End::error ? errors : closes) += 1;
  EXPECT_GT(errors, 0u);
  EXPECT_GT(closes, 0u);
}

}  // namespace
}  // namespace ep::core
