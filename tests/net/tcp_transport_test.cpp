// TcpTransport (net/transport_tcp.hpp): framing (core/protocol.hpp),
// socket plumbing, and the coordinator's side of the worker protocol,
// driven from a scripted in-test "worker" on the other end of a loopback
// socket. Everything is single-threaded: the client pre-writes whatever
// the transport will want next, so no call here ever blocks on the other
// side of the test.
// The real worker binary is exercised by the CLI tcp pipeline tests.
#include "net/transport_tcp.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/protocol.hpp"
#include "core/report.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::net {
namespace {

using core::FrameBuffer;
using core::FrameTooLarge;
using core::kMaxFrameBytes;
using core::pump_nonblocking;
using core::recv_frame;
using core::send_frame;

TEST(FrameBuffer, ReassemblesFramesFromArbitraryDribbles) {
  // One frame: length prefix 5, payload "hello", delivered a byte at a
  // time — pop() must stay false until the last byte lands.
  std::string wire = {5, 0, 0, 0};
  wire += "hello";
  FrameBuffer fb;
  std::string payload;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(fb.pop(&payload)) << "frame complete after " << i;
    fb.feed(wire.data() + i, 1);
  }
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "hello");
  EXPECT_FALSE(fb.mid_frame());
}

TEST(FrameBuffer, PopsBackToBackFramesFromOneFeed) {
  std::string wire = {2, 0, 0, 0};
  wire += "ab";
  wire += std::string{0, 0, 0, 0};  // an empty frame is legal
  wire += std::string{1, 0, 0, 0};
  wire += "c";
  FrameBuffer fb;
  fb.feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "ab");
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "c");
  EXPECT_FALSE(fb.pop(&payload));
}

TEST(FrameBuffer, MidFrameReportsBufferedIncompleteBytes) {
  std::string wire = {9, 0, 0, 0};
  wire += "inco";  // 4 of 9 payload bytes
  FrameBuffer fb;
  EXPECT_FALSE(fb.mid_frame());
  fb.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_FALSE(fb.pop(&payload));
  EXPECT_TRUE(fb.mid_frame());
}

TEST(FrameBuffer, OversizedLengthPrefixIsCorruptionNotAFrame) {
  // 0xFFFFFFFF bytes is no real plan or report; waiting for it to
  // "complete" would hang forever, so the buffer throws immediately.
  std::string wire = {'\xFF', '\xFF', '\xFF', '\xFF'};
  FrameBuffer fb;
  fb.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_THROW((void)fb.pop(&payload), core::OrchestratorError);
}

TEST(FrameBuffer, CapIsCheckedAtTheHeaderAndCanBeRaised) {
  // The coordinator caps a connection's opening frame low and raises
  // the cap once HELLO is in: the header alone decides, and the error
  // names the announced size.
  std::string wire = {9, 0, 0, 0};
  FrameBuffer fb;
  fb.set_max_frame(8);
  fb.feed(wire.data(), wire.size());
  std::string payload;
  try {
    (void)fb.pop(&payload);
    FAIL() << "expected FrameTooLarge";
  } catch (const FrameTooLarge& e) {
    EXPECT_EQ(e.bytes(), 9u);
    EXPECT_TRUE(contains(e.what(), "9 bytes")) << e.what();
  }
  fb.set_max_frame(kMaxFrameBytes);
  wire = "ninebytes";
  fb.feed(wire.data(), wire.size());
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "ninebytes");
}

TEST(Frames, SendRecvRoundTripsOverASocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string big(100000, 'x');  // bigger than one read() chunk
  ASSERT_TRUE(send_frame(sv[0], "LEASE 0 4"));
  ASSERT_TRUE(send_frame(sv[0], big));
  FrameBuffer fb;
  std::string payload;
  ASSERT_TRUE(recv_frame(sv[1], &fb, &payload, 1000));
  EXPECT_EQ(payload, "LEASE 0 4");
  ASSERT_TRUE(recv_frame(sv[1], &fb, &payload, 1000));
  EXPECT_EQ(payload, big);
  // Clean EOF at a frame boundary: false, not an error.
  ::close(sv[0]);
  EXPECT_FALSE(recv_frame(sv[1], &fb, &payload, 1000));
  ::close(sv[1]);
}

TEST(Frames, EofMidFrameThrowsWhereEofAtABoundaryDoesNot) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char partial[] = {9, 0, 0, 0, 'x'};  // promises 9, delivers 1
  ASSERT_EQ(::write(sv[0], partial, sizeof partial),
            static_cast<ssize_t>(sizeof partial));
  ::close(sv[0]);
  FrameBuffer fb;
  std::string payload;
  EXPECT_THROW((void)recv_frame(sv[1], &fb, &payload, 1000),
               core::OrchestratorError);
  ::close(sv[1]);
}

TEST(Frames, RecvTimesOutWhenThePeerSaysNothing) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  FrameBuffer fb;
  std::string payload;
  EXPECT_THROW((void)recv_frame(sv[1], &fb, &payload, 20),
               core::OrchestratorError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Frames, PumpNonblockingNeverWaitsAndSpotsTheClose) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  FrameBuffer fb;
  EXPECT_TRUE(pump_nonblocking(sv[1], &fb));  // nothing there: no wait
  ASSERT_TRUE(send_frame(sv[0], "STEAL"));
  EXPECT_TRUE(pump_nonblocking(sv[1], &fb));
  std::string payload;
  ASSERT_TRUE(fb.pop(&payload));
  EXPECT_EQ(payload, "STEAL");
  ::close(sv[0]);
  EXPECT_FALSE(pump_nonblocking(sv[1], &fb));  // peer gone
  ::close(sv[1]);
}

/// The coordinator under test plus one scripted loopback "worker". The
/// client connects (and usually says HELLO) before spawn() runs, so the
/// accept + handshake + plan shipment all complete without another
/// thread; socket buffers hold the small frames both directions.
struct ScriptedWorker {
  int fd = -1;
  FrameBuffer fb;

  explicit ScriptedWorker(int port) : fd(tcp_connect("127.0.0.1", port)) {}
  ~ScriptedWorker() {
    if (fd >= 0) ::close(fd);
  }

  void say(const std::string& line) { ASSERT_TRUE(send_frame(fd, line)); }
  std::string hear() {
    std::string payload;
    EXPECT_TRUE(recv_frame(fd, &fb, &payload, 2000));
    return payload;
  }
  void hang_up() {
    ::close(fd);
    fd = -1;
  }
};

core::InjectionPlan planned_toy(core::Scenario* out_scenario) {
  *out_scenario = core::toy_scenario();
  core::CampaignOptions opts;
  opts.use_world_cache = true;
  return core::Planner(*out_scenario).plan(opts);
}

TcpTransportConfig loopback_config(int workers) {
  TcpTransportConfig cfg;
  cfg.listen_port = 0;
  cfg.workers = workers;
  cfg.accept_timeout_ms = 2000;
  cfg.handshake_timeout_ms = 2000;
  return cfg;
}

TEST(TcpTransport, HandshakePlanLeaseAndReportAllCrossTheWire) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ASSERT_GT(transport.port(), 0);

  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());

  // The plan arrives as one binary EPAB frame, decodable to the same
  // plan the coordinator holds.
  core::InjectionPlan shipped = core::plan_from_binary(worker.hear());
  ASSERT_EQ(shipped.items.size(), plan.items.size());

  // LEASE goes out with `-` as the target: the report returns in-band.
  core::Lease lease{0, 0, 2};
  transport.submit(*w, lease);
  EXPECT_EQ(worker.hear(), "LEASE 0 2");

  // The scripted worker drains the lease for real and answers with the
  // DONE control frame plus the binary report frame.
  core::Executor ex(s);
  core::ShardReport report = core::run_lease(ex, plan, {0, 2}, {});
  worker.say(core::format_done(0, 2));
  worker.say(core::shard_report_to_binary(report));
  std::optional<core::WorkerEvent> ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::lease_done);
  EXPECT_EQ(ev->worker, *w);
  EXPECT_EQ(ev->lease.seq, lease.seq);
  EXPECT_EQ(ev->report.to_json(), report.to_json());

  // PING is a heartbeat event; YIELD answers a STEAL with a split.
  worker.say(core::format_ping());
  ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::heartbeat);

  core::Lease second{1, 2, 6};
  transport.submit(*w, second);
  EXPECT_EQ(worker.hear(), "LEASE 2 6");
  transport.steal(*w);
  EXPECT_EQ(worker.hear(), "STEAL");
  worker.say(core::format_yield(4, 6));
  ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::lease_yielded);
  EXPECT_EQ(ev->yield_mid, 4u);
  EXPECT_EQ(ev->lease.end, 6u);  // the event names the original range

  // The worker now owes [2, 4); finish it so shutdown finds it idle.
  core::ShardReport head = core::run_lease(ex, plan, {2, 4}, {});
  worker.say(core::format_done(2, 4));
  worker.say(core::shard_report_to_binary(head));
  ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::lease_done);

  // Clean exit: EXIT out, BYE 0 + close back, exited event.
  transport.shutdown(*w);
  EXPECT_EQ(worker.hear(), "EXIT");
  worker.say(core::format_bye(0));
  worker.hang_up();
  ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::exited);
  EXPECT_EQ(ev->status, 0);
}

TEST(TcpTransport, HandshakeVersionMismatchNamesBothVersions) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say("HELLO 1");
  try {
    (void)transport.spawn();
    FAIL() << "expected OrchestratorError";
  } catch (const core::OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "version 1"));
    EXPECT_TRUE(contains(
        e.what(),
        "version " + std::to_string(core::kWorkerProtocolVersion)));
  }
}

TEST(TcpTransport, OpeningWithAnythingButHelloIsRejected) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say("PING");
  try {
    (void)transport.spawn();
    FAIL() << "expected OrchestratorError";
  } catch (const core::OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "instead of HELLO"));
  }
}

TEST(TcpTransport, OversizedOpeningFrameIsRejectedAtItsHeader) {
  // An unauthenticated peer announces 1 MiB before saying HELLO. The
  // coordinator must neither buffer it nor wait out the handshake
  // timeout: the 4-byte header alone gets the connection rejected.
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransportConfig cfg = loopback_config(1);
  cfg.handshake_timeout_ms = 10000;
  TcpTransport transport(cfg, plan);
  ScriptedWorker peer(transport.port());
  const char header[4] = {0, 0, 0x10, 0};  // 1 MiB, little-endian
  ASSERT_EQ(::write(peer.fd, header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  auto t0 = std::chrono::steady_clock::now();
  try {
    (void)transport.spawn();
    FAIL() << "expected OrchestratorError";
  } catch (const core::OrchestratorError& e) {
    EXPECT_TRUE(contains(e.what(), "instead of HELLO")) << e.what();
    EXPECT_TRUE(contains(e.what(), "1048576")) << e.what();
  }
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_LT(ms, 2000) << "rejected after " << ms << " ms";
}

TEST(TcpTransport, FramesAfterHelloKeepTheLargeCap) {
  // Past the handshake a report may run to megabytes: a 1 MiB header is
  // a frame still arriving, not an error.
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  (void)worker.hear();
  transport.submit(*w, {0, 0, 2});
  EXPECT_EQ(worker.hear(), "LEASE 0 2");
  worker.say(core::format_done(0, 2));
  const char header[4] = {0, 0, 0x10, 0};
  ASSERT_EQ(::write(worker.fd, header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  EXPECT_FALSE(transport.wait_any(50).has_value());
}

int nodelay_of(int fd) {
  int v = 0;
  socklen_t len = sizeof v;
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, &len), 0);
  return v;
}

TEST(TcpTransport, BothEndsSetNoDelaySoLeasesSkipTheAckTimer) {
  // Both helpers that open a tcp-plane socket turn Nagle off.
  int port = 0;
  int lfd = tcp_listen(0, &port);
  int cfd = tcp_connect("127.0.0.1", port);
  int afd = tcp_accept(lfd, 2000);
  ASSERT_GE(afd, 0);
  EXPECT_EQ(nodelay_of(cfd), 1);
  EXPECT_EQ(nodelay_of(afd), 1);
  ::close(afd);
  ::close(cfd);
  ::close(lfd);

  // What it buys: the worker writes DONE and then the report before the
  // coordinator answers, and the coordinator writes the plan and then
  // LEASE. With Nagle on, each second write waits for the peer's delayed
  // ACK (~40 ms): 20 round trips take over 800 ms, against under 1 ms.
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  (void)worker.hear();
  core::Executor ex(s);
  const std::string report =
      core::shard_report_to_binary(core::run_lease(ex, plan, {0, 2}, {}));
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t seq = 0; seq < 20; ++seq) {
    transport.submit(*w, {seq, 0, 2});
    ASSERT_EQ(worker.hear(), "LEASE 0 2");
    worker.say(core::format_done(0, 2));
    worker.say(report);
    std::optional<core::WorkerEvent> ev = transport.wait_any(2000);
    ASSERT_TRUE(ev.has_value());
    ASSERT_EQ(ev->kind, core::WorkerEvent::Kind::lease_done);
  }
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_LT(ms, 200) << "20 lease round trips took " << ms << " ms";
}

TEST(TcpTransport, ConnectionDroppedWithoutByeIsPreemption) {
  // kill -9, a powered-off host, a split network: no BYE, just EOF. The
  // worker's lease must come back as preempted (status -1), the signal
  // the orchestrator re-leases on.
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  (void)worker.hear();  // take the plan
  transport.submit(*w, {0, 0, 2});
  worker.hang_up();
  std::optional<core::WorkerEvent> ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::preempted);
  EXPECT_EQ(ev->status, -1);
}

TEST(TcpTransport, ByeWithFailureStatusIsDeathNotPreemption) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  (void)worker.hear();
  worker.say(core::format_bye(9));
  worker.hang_up();
  std::optional<core::WorkerEvent> ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::died);
  EXPECT_EQ(ev->status, 9);
}

TEST(TcpTransport, KillClosesTheSocketSoTheWorkerSeesEof) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);
  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  (void)worker.hear();
  transport.kill(*w);
  std::string payload;
  EXPECT_FALSE(recv_frame(worker.fd, &worker.fb, &payload, 2000));
}

TEST(TcpTransport, RespawnOnlyPollsAndAdoptsAPreStartedSpare) {
  core::Scenario s;
  core::InjectionPlan plan = planned_toy(&s);
  TcpTransport transport(loopback_config(1), plan);

  ScriptedWorker first(transport.port());
  first.say(core::format_hello(core::kWorkerProtocolVersion));
  ASSERT_TRUE(transport.spawn().has_value());
  (void)first.hear();

  // Past the initial fleet: an empty accept queue is nullopt (after a
  // short poll), not a multi-second stall and not an error.
  EXPECT_FALSE(transport.spawn().has_value());

  // A spare that already dialed in is adopted instantly.
  ScriptedWorker spare(transport.port());
  spare.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  core::InjectionPlan shipped = core::plan_from_binary(spare.hear());
  EXPECT_EQ(shipped.items.size(), plan.items.size());
}

/// True when the scripted worker has nothing more to read right now —
/// how "exactly once" is told apart from "at least once".
bool nothing_pending(ScriptedWorker& w) {
  (void)pump_nonblocking(w.fd, &w.fb);
  std::string extra;
  return !w.fb.pop(&extra);
}

/// The scripted worker drains `lease` of `plan` for real and answers
/// with DONE plus the report frame; the coordinator must accept it.
void answer_lease(TcpTransport& transport, ScriptedWorker& worker,
                  const core::Scenario& scenario,
                  const core::InjectionPlan& plan, const core::Lease& lease) {
  core::Executor ex(scenario);
  core::ShardReport report =
      core::run_lease(ex, plan, {lease.begin, lease.end}, {});
  worker.say(core::format_done(lease.begin, lease.end));
  worker.say(core::shard_report_to_binary(report));
  std::optional<core::WorkerEvent> ev = transport.wait_any(2000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, core::WorkerEvent::Kind::lease_done);
  EXPECT_EQ(ev->report.to_json(), report.to_json());
}

TEST(TcpTransport, PlanSwitchSendsPlanAndFrameOncePerPlan) {
  core::Scenario open = core::toy_scenario("toy");
  core::Scenario locked = core::toy_scenario("toy-locked", true);
  core::InjectionPlan open_plan = core::Planner(open).plan();
  core::InjectionPlan locked_plan = core::Planner(locked).plan();
  TcpTransport transport(loopback_config(1), open_plan);

  ScriptedWorker worker(transport.port());
  worker.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> w = transport.spawn();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(core::plan_from_binary(worker.hear()).scenario_name, "toy");

  // On the plan it connected to, a worker never sees PLAN.
  transport.submit(*w, {0, 0, 1});
  EXPECT_EQ(worker.hear(), "LEASE 0 1");
  EXPECT_TRUE(nothing_pending(worker));
  answer_lease(transport, worker, open, open_plan, {0, 0, 1});

  // After a switch, `PLAN` and the new plan frame arrive once, right
  // before the worker's next LEASE...
  transport.load_plan(locked_plan);
  transport.submit(*w, {0, 0, 2});
  EXPECT_EQ(worker.hear(), "PLAN");
  core::InjectionPlan shipped = core::plan_from_binary(worker.hear());
  EXPECT_EQ(shipped.scenario_name, "toy-locked");
  EXPECT_EQ(shipped.items.size(), locked_plan.items.size());
  EXPECT_EQ(worker.hear(), "LEASE 0 2");
  EXPECT_TRUE(nothing_pending(worker));
  answer_lease(transport, worker, locked, locked_plan, {0, 0, 2});

  // ...and never again for the same plan.
  transport.submit(*w, {1, 2, 3});
  EXPECT_EQ(worker.hear(), "LEASE 2 3");
  EXPECT_TRUE(nothing_pending(worker));
  answer_lease(transport, worker, locked, locked_plan, {1, 2, 3});

  // The next switch reaches the worker ahead of a FEEDBACK the same way.
  transport.load_plan(open_plan);
  const std::size_t n = open_plan.items.size();
  transport.feedback(*w, open_plan, n - 1, n);
  EXPECT_EQ(worker.hear(), "PLAN");
  EXPECT_EQ(core::plan_from_binary(worker.hear()).scenario_name, "toy");
  EXPECT_EQ(worker.hear(), "FEEDBACK " + std::to_string(n - 1) + " " +
                              std::to_string(n));
  EXPECT_EQ(
      core::work_items_from_binary(worker.hear(), open_plan.points.size())
          .size(),
      1u);
  transport.submit(*w, {0, 0, 1});
  EXPECT_EQ(worker.hear(), "LEASE 0 1");
  EXPECT_TRUE(nothing_pending(worker));

  // A worker accepted after a switch gets the current plan at the
  // handshake, and so no PLAN before its first LEASE.
  ScriptedWorker late(transport.port());
  late.say(core::format_hello(core::kWorkerProtocolVersion));
  std::optional<std::size_t> l = transport.spawn();
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(core::plan_from_binary(late.hear()).scenario_name, "toy");
  transport.submit(*l, {1, 1, 2});
  EXPECT_EQ(late.hear(), "LEASE 1 2");
  EXPECT_TRUE(nothing_pending(late));
}

}  // namespace
}  // namespace ep::net
