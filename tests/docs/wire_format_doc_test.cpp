// Docs-freshness guard: the JSON examples in docs/WIRE_FORMAT.md are
// real serializer output and must stay that way. Each marked example is
// parsed with the real reader and re-serialized; the bytes must match the
// document verbatim, so any wire-format change that forgets to update the
// spec fails CI here.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/planner.hpp"
#include "core/protocol.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

std::string read_doc() {
  std::ifstream in(std::string(EP_SOURCE_DIR) + "/docs/WIRE_FORMAT.md");
  EXPECT_TRUE(in.good()) << "docs/WIRE_FORMAT.md is missing";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The fenced block following `<!-- wire-format-example: NAME -->`.
std::string example_block(const std::string& doc, const std::string& name,
                          const std::string& fence = "json") {
  std::string marker = "<!-- wire-format-example: " + name + " -->";
  std::size_t at = doc.find(marker);
  EXPECT_NE(at, std::string::npos) << "marker not found: " << marker;
  if (at == std::string::npos) return {};
  std::string open_fence = "```" + fence + "\n";
  std::size_t open = doc.find(open_fence, at);
  EXPECT_NE(open, std::string::npos)
      << "no ```" << fence << " fence after " << marker;
  if (open == std::string::npos) return {};
  open += open_fence.size();
  std::size_t close = doc.find("```", open);
  EXPECT_NE(close, std::string::npos) << "unterminated fence after "
                                      << marker;
  if (close == std::string::npos) return {};
  return doc.substr(open, close - open);
}

/// Lowercase hex of `bytes`, no separators — the shape `xxd -p` prints.
std::string hex_of(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

/// A hex block back to raw bytes, ignoring the newlines `xxd -p` wraps at.
std::string bytes_of_hex(const std::string& block) {
  std::string hex;
  for (char c : block)
    if (c != '\n' && c != '\r') hex.push_back(c);
  EXPECT_EQ(hex.size() % 2, 0u) << "odd hex digit count in the example";
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    int hi = nibble(hex[i]), lo = nibble(hex[i + 1]);
    EXPECT_GE(hi, 0) << "non-hex character in the example";
    EXPECT_GE(lo, 0) << "non-hex character in the example";
    bytes.push_back(static_cast<char>((hi << 4) | lo));
  }
  return bytes;
}

TEST(WireFormatDoc, PlanExampleRoundTripsVerbatim) {
  std::string example = example_block(read_doc(), "plan");
  ASSERT_FALSE(example.empty());
  InjectionPlan plan = plan_from_json(example);
  EXPECT_EQ(plan.to_json(), example)
      << "docs/WIRE_FORMAT.md plan example is no longer canonical "
         "serializer output — regenerate it (see the doc's 'Regenerating "
         "the examples' section)";
}

TEST(WireFormatDoc, ShardReportExampleRoundTripsVerbatim) {
  std::string example = example_block(read_doc(), "shard-report");
  ASSERT_FALSE(example.empty());
  ShardReport report = shard_report_from_json(example);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.to_json(), example)
      << "docs/WIRE_FORMAT.md shard-report example is no longer canonical "
         "serializer output — regenerate it (see the doc's 'Regenerating "
         "the examples' section)";
}

TEST(WireFormatDoc, LeaseReportExampleRoundTripsVerbatim) {
  std::string example = example_block(read_doc(), "shard-report-lease");
  ASSERT_FALSE(example.empty());
  ShardReport report = shard_report_from_json(example);
  EXPECT_TRUE(report.leased);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.assigned_ids, report.item_ids);
  EXPECT_EQ(report.to_json(), example)
      << "docs/WIRE_FORMAT.md lease-report example is no longer canonical "
         "serializer output — regenerate it (see the doc's 'Regenerating "
         "the examples' section)";
}

TEST(WireFormatDoc, RedzoneReportExampleRoundTripsVerbatim) {
  // The documented redzone-corruption report is real serializer output,
  // and its one outcome carries the new policy — the doc cannot drift
  // from what the redzone memory oracle actually emits.
  std::string example = example_block(read_doc(), "shard-report-redzone");
  ASSERT_FALSE(example.empty());
  ShardReport report = shard_report_from_json(example);
  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.outcomes.size(), 1u);
  ASSERT_FALSE(report.outcomes[0].violations.empty());
  EXPECT_EQ(
      std::string(to_string(report.outcomes[0].violations[0].policy)),
      "redzone-corruption");
  EXPECT_EQ(report.to_json(), example)
      << "docs/WIRE_FORMAT.md redzone example is no longer canonical "
         "serializer output — regenerate it (see the doc's 'Regenerating "
         "the examples' section)";
}

TEST(WireFormatDoc, LegacyShardReportExampleReadsAsTheV2Example) {
  // The documented version-1 file must stay parseable, and its canonical
  // re-serialization must be exactly the documented version-2 example —
  // the two blocks describe the same drain in both encodings.
  std::string doc = read_doc();
  std::string v1 = example_block(doc, "shard-report-v1");
  std::string v2 = example_block(doc, "shard-report");
  ASSERT_FALSE(v1.empty());
  ASSERT_FALSE(v2.empty());
  ShardReport report = shard_report_from_json(v1);
  EXPECT_EQ(report.schema_version, 1);
  EXPECT_EQ(report.to_json(), v2)
      << "docs/WIRE_FORMAT.md v1 legacy example no longer re-serializes "
         "into the v2 example";
}

TEST(WireFormatDoc, BinaryPlanExampleIsVerbatimEncoderOutput) {
  // The hex block must be exactly what the binary encoder emits for the
  // documented JSON plan — the two examples describe the same plan in
  // both encodings, like the v1/v2 shard-report pair.
  std::string doc = read_doc();
  std::string json = example_block(doc, "plan");
  std::string hex = example_block(doc, "plan-binary", "text");
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(hex.empty());
  std::string wire = plan_to_binary(plan_from_json(json));
  std::string doc_bytes = bytes_of_hex(hex);
  EXPECT_EQ(hex_of(doc_bytes), hex_of(wire))
      << "docs/WIRE_FORMAT.md binary plan example is no longer verbatim "
         "encoder output — regenerate it (see the doc's 'Regenerating the "
         "examples' section)";
}

TEST(WireFormatDoc, BinaryPlanExampleDecodesToTheJsonExample) {
  std::string doc = read_doc();
  std::string json = example_block(doc, "plan");
  std::string bytes = bytes_of_hex(example_block(doc, "plan-binary", "text"));
  ASSERT_FALSE(json.empty());
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(looks_like_binary_wire(bytes));
  InjectionPlan plan = plan_from_binary(bytes);
  EXPECT_EQ(plan.to_json(), json)
      << "the documented binary plan no longer decodes into the documented "
         "JSON plan";
}

TEST(WireFormatDoc, WorkerProtocolTranscriptIsCanonical) {
  // Every transcript line must be a real protocol production: it parses
  // with the one shared parser and re-formats to the documented bytes,
  // and the opening HELLO must advertise this build's protocol version.
  std::string block = example_block(read_doc(), "worker-protocol", "text");
  ASSERT_FALSE(block.empty());
  std::size_t lines = 0;
  bool saw_hello = false;
  std::istringstream in(block);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ASSERT_GE(line.size(), 3u) << "transcript line too short: " << line;
    std::string dir = line.substr(0, 3);
    ASSERT_TRUE(dir == "W: " || dir == "C: ")
        << "transcript line must open with 'W: ' or 'C: ': " << line;
    std::string wire_line = line.substr(3);
    ProtocolMsg msg;
    EXPECT_TRUE(parse_protocol_line(wire_line, &msg))
        << "documented transcript line does not parse: " << wire_line;
    EXPECT_EQ(format_protocol_msg(msg), wire_line)
        << "documented transcript line is not canonical formatter output";
    bool from_worker = msg.type == ProtocolMsg::Type::hello ||
                       msg.type == ProtocolMsg::Type::ping ||
                       msg.type == ProtocolMsg::Type::yield ||
                       msg.type == ProtocolMsg::Type::done ||
                       msg.type == ProtocolMsg::Type::bye;
    EXPECT_EQ(dir, from_worker ? "W: " : "C: ")
        << "transcript line attributed to the wrong side: " << line;
    if (lines == 0) {
      EXPECT_EQ(msg.type, ProtocolMsg::Type::hello)
          << "the transcript must open with the HELLO handshake";
    }
    if (msg.type == ProtocolMsg::Type::hello) {
      saw_hello = true;
      EXPECT_EQ(msg.version, kWorkerProtocolVersion)
          << "the documented HELLO does not carry kWorkerProtocolVersion";
    }
    ++lines;
  }
  EXPECT_TRUE(saw_hello);
  EXPECT_GE(lines, 10u) << "the transcript lost productions";
}

TEST(WireFormatDoc, WorkerProtocolTranscriptSwitchesPlans) {
  // The documented conversation must show a fleet outliving a plan: a
  // PLAN line from the coordinator, then a LEASE of the new plan.
  std::string block = example_block(read_doc(), "worker-protocol", "text");
  const std::size_t plan = block.find("\nC: PLAN ");
  ASSERT_NE(plan, std::string::npos)
      << "the worker-protocol transcript has no plan switch";
  EXPECT_NE(block.find("\nC: LEASE ", plan), std::string::npos)
      << "no lease follows the documented plan switch";
}

TEST(WireFormatDoc, DocumentsTheCurrentSchemaVersions) {
  std::string doc = read_doc();
  // The prose must pin the versions the code actually writes: plans and
  // shard reports are versioned independently.
  EXPECT_TRUE(contains(doc, "currently `" +
                                std::to_string(kPlanSchemaVersion) +
                                "` (`core::kPlanSchemaVersion`)"))
      << "docs/WIRE_FORMAT.md does not document plan schema_version "
      << kPlanSchemaVersion;
  EXPECT_TRUE(contains(doc, "`" + std::to_string(kShardSchemaVersion) +
                                "` (`core::kShardSchemaVersion`)"))
      << "docs/WIRE_FORMAT.md does not document shard schema_version "
      << kShardSchemaVersion;
  EXPECT_TRUE(contains(doc, "`core::kBinaryWireVersion`, currently `" +
                                std::to_string(kBinaryWireVersion) + "`"))
      << "docs/WIRE_FORMAT.md does not document binary wire version "
      << kBinaryWireVersion;
  EXPECT_TRUE(contains(doc, "`core::kWorkerProtocolVersion`, currently `" +
                                std::to_string(kWorkerProtocolVersion) + "`"))
      << "docs/WIRE_FORMAT.md does not document worker protocol version "
      << kWorkerProtocolVersion;
}

}  // namespace
}  // namespace ep::core
