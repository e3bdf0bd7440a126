// The worker line protocol (core/protocol.hpp): one grammar, one
// parser, one formatter set, shared by the pipe, shm, and tcp data
// planes. The parser is strict — a protocol line is either exactly one
// production or a rejected worker, never a best-effort guess.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ep::core {
namespace {

using Type = ProtocolMsg::Type;

TEST(Protocol, FormattersRoundTripThroughTheParser) {
  // Every formatter's output must parse back to the same message — the
  // formatters define the canonical bytes both directions of every
  // transport put on the wire.
  const std::vector<std::string> lines = {
      format_hello(kWorkerProtocolVersion),
      format_ping(),
      format_yield(3, 9),
      format_done(0, 4),
      format_done(4, 9, 128, 77),
      format_bye(4),
      format_lease(0, 4, "lpr.lease0.json"),
      format_lease(4, 9, "@1"),
      format_lease(9, 11, "-"),
      format_steal(),
      format_exit(),
      format_feedback(9, 11, "0:i:close-fails:0,1:d:short-read:7"),
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    ProtocolMsg msg;
    ASSERT_TRUE(parse_protocol_line(line, &msg));
    EXPECT_EQ(format_protocol_msg(msg), line);
  }
}

TEST(Protocol, ParsesEveryFieldOfEveryProduction) {
  ProtocolMsg m;
  ASSERT_TRUE(parse_protocol_line("HELLO 5", &m));
  EXPECT_EQ(m.type, Type::hello);
  EXPECT_EQ(m.version, 5);

  ASSERT_TRUE(parse_protocol_line("PING", &m));
  EXPECT_EQ(m.type, Type::ping);

  ASSERT_TRUE(parse_protocol_line("YIELD 3 9", &m));
  EXPECT_EQ(m.type, Type::yield);
  EXPECT_EQ(m.begin, 3u);  // the split point rides in `begin`
  EXPECT_EQ(m.end, 9u);

  ASSERT_TRUE(parse_protocol_line("DONE 0 4", &m));
  EXPECT_EQ(m.type, Type::done);
  EXPECT_EQ(m.begin, 0u);
  EXPECT_EQ(m.end, 4u);
  EXPECT_FALSE(m.has_handoff);

  ASSERT_TRUE(parse_protocol_line("DONE 4 9 128 77", &m));
  EXPECT_EQ(m.type, Type::done);
  EXPECT_TRUE(m.has_handoff);
  EXPECT_EQ(m.offset, 128u);
  EXPECT_EQ(m.length, 77u);

  ASSERT_TRUE(parse_protocol_line("BYE 4", &m));
  EXPECT_EQ(m.type, Type::bye);
  EXPECT_EQ(m.status, 4);

  ASSERT_TRUE(parse_protocol_line("LEASE 0 4 report.json", &m));
  EXPECT_EQ(m.type, Type::lease);
  EXPECT_EQ(m.begin, 0u);
  EXPECT_EQ(m.end, 4u);
  EXPECT_EQ(m.target, "report.json");

  ASSERT_TRUE(parse_protocol_line("STEAL", &m));
  EXPECT_EQ(m.type, Type::steal);

  ASSERT_TRUE(parse_protocol_line("FEEDBACK 4 6 0:i:close-fails:0,2:d:short-read:7", &m));
  EXPECT_EQ(m.type, Type::feedback);
  EXPECT_EQ(m.begin, 4u);
  EXPECT_EQ(m.end, 6u);
  EXPECT_EQ(m.target, "0:i:close-fails:0,2:d:short-read:7");

  ASSERT_TRUE(parse_protocol_line("EXIT", &m));
  EXPECT_EQ(m.type, Type::exit_cmd);
}

TEST(Protocol, LeaseTargetIsOneToken) {
  // A lease target is a single token — a path with a space would be
  // ambiguous against future operands, so the parser rejects it rather
  // than guessing where the target ends.
  ProtocolMsg m;
  EXPECT_FALSE(parse_protocol_line("LEASE 1 2 /tmp/a dir/x.json", &m));
  ASSERT_TRUE(parse_protocol_line("LEASE 1 2 /tmp/a-dir/x.json", &m));
  EXPECT_EQ(m.target, "/tmp/a-dir/x.json");
}

TEST(Protocol, RejectsMalformedLines) {
  const std::vector<std::string> bad = {
      "",
      "FROB",
      "HELLO",            // missing version
      "HELLO two",
      "HELLO 2 extra",
      "PING 1",            // PING takes no operands
      "YIELD 3",           // missing end
      "YIELD 3 9 12",      // trailing junk
      "DONE",              // missing range
      "DONE 0",
      "DONE 0 4 128",      // a handoff is two fields or none
      "DONE 0 4 128 77 9",
      "BYE",
      "BYE 4 0",
      "BYE 999",           // an exit status fits in a byte
      "LEASE 0 4",         // missing target
      "LEASE x 4 t",
      "STEAL now",
      "EXIT 0",
      "FEEDBACK 4 6",      // missing item spec
      "FEEDBACK 4 6 a:i:f:0 b:i:f:0",  // spec is one token
      "FEEDBACK x 6 0:i:f:0",
      "lease 0 4 t",       // keywords are case-sensitive
      "DONE 0 99999999999999999999",  // overflow is a reject, not UB
  };
  for (const std::string& line : bad) {
    SCOPED_TRACE("'" + line + "'");
    ProtocolMsg m;
    EXPECT_FALSE(parse_protocol_line(line, &m));
  }
}

TEST(Protocol, PlanRoundTripsEveryPlaneToken) {
  // PLAN (v4) names the next plan the way each data plane ships it: a
  // plan file, an arena file, or `-` for the tcp frame that follows.
  for (const std::string token :
       {"/tmp/epa-orch.x/turnin.plan.json", "/tmp/epa-orch.x/turnin.arena",
        "-"}) {
    SCOPED_TRACE(token);
    const std::string line = format_plan(token);
    EXPECT_EQ(line, "PLAN " + token);
    ProtocolMsg m;
    ASSERT_TRUE(parse_protocol_line(line, &m));
    EXPECT_EQ(m.type, Type::plan);
    EXPECT_EQ(m.target, token);
    EXPECT_EQ(format_protocol_msg(m), line);
  }
}

TEST(Protocol, PlanNeedsExactlyOneToken) {
  const std::vector<std::string> bad = {
      "PLAN",                      // no token
      "PLAN ",                     // an empty token
      "PLAN /tmp/a dir/x.json",    // a token with a space
      "PLAN  -",                   // double space
      "plan -",                    // keywords are case-sensitive
  };
  for (const std::string& line : bad) {
    SCOPED_TRACE("'" + line + "'");
    ProtocolMsg m;
    EXPECT_FALSE(parse_protocol_line(line, &m));
  }
}

TEST(Protocol, VersionConstantIsFive) {
  // Bumping the protocol version must be a conscious act: this pins the
  // constant the HELLO handshake (and docs/WIRE_FORMAT.md) advertise.
  // v3 added FEEDBACK (the search plane's item append); v4 added PLAN
  // (one fleet serving many plans); v5 marks the shard-report v4 /
  // binary v3 encodings its plans and reports travel in.
  EXPECT_EQ(kWorkerProtocolVersion, 5);
}

}  // namespace
}  // namespace ep::core
