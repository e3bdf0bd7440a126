// The binary wire encoding (core/wire_binary.cpp): canonical plan and
// shard-report round trips that agree with the JSON codec, and one test
// per framing error path — truncation, bad magic, foreign endianness,
// bad version/kind, column length mismatches, overlapping sections —
// mirroring wire_test's JSON error-path suite. Byte surgery is done
// against the documented frame layout (docs/WIRE_FORMAT.md, "Binary
// encoding"): 24-byte header, then 24-byte section-table entries of
// (u32 tag, u32 reserved, u64 offset, u64 length).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

InjectionPlan toy_plan(bool with_snapshot = false) {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.use_world_cache = with_snapshot;
  return Planner(s).plan(opts);
}

template <typename Fn>
std::string wire_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const WireError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected WireError";
  return {};
}

// --- byte surgery against the documented frame layout -----------------------

std::uint32_t rd32(const std::string& b, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}
std::uint64_t rd64(const std::string& b, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}
void wr16(std::string* b, std::size_t off, std::uint16_t v) {
  std::memcpy(&(*b)[off], &v, sizeof v);
}
void wr32(std::string* b, std::size_t off, std::uint32_t v) {
  std::memcpy(&(*b)[off], &v, sizeof v);
}
void wr64(std::string* b, std::size_t off, std::uint64_t v) {
  std::memcpy(&(*b)[off], &v, sizeof v);
}

struct TableEntry {
  std::uint32_t tag = 0;
  std::size_t at = 0;  // byte position of this entry in the file
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// The section-table entry for `tag` (the layout pinned by the docs:
/// table at byte 24, 24-byte entries, offset at +8, length at +16).
TableEntry entry_of(const std::string& b, std::uint32_t tag) {
  std::uint32_t count = rd32(b, 20);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::size_t at = 24 + i * 24;
    if (rd32(b, at) == tag)
      return {tag, at, rd64(b, at + 8), rd64(b, at + 16)};
  }
  ADD_FAILURE() << "no section with tag " << tag;
  return {};
}

// --- round trips ------------------------------------------------------------

TEST(WireBinary, PlanRoundTripsThroughBinary) {
  InjectionPlan plan = toy_plan();
  std::string bin = plan_to_binary(plan);
  InjectionPlan parsed = plan_from_binary(bin);
  EXPECT_EQ(parsed.snapshot, nullptr);  // never on the wire
  // The JSON serialization is the reference representation: a binary
  // round trip must land on exactly the same plan the JSON path sees.
  EXPECT_EQ(parsed.to_json(), plan.to_json());
  // Canonical form: decode -> re-encode reproduces the bytes verbatim
  // (what lets docs/WIRE_FORMAT.md pin the hex example literally).
  EXPECT_EQ(plan_to_binary(parsed), bin);
}

TEST(WireBinary, RoundTrippedPlanExecutesIdentically) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan();
  InjectionPlan parsed = plan_from_binary(plan_to_binary(plan));
  Executor ex(s);
  ExecutorOptions opts;
  opts.use_world_cache = false;
  expect_identical(ex.execute(plan, opts), ex.execute(parsed, opts));
}

TEST(WireBinary, ShardReportRoundTripsThroughBinary) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  ShardReport report =
      run_lease(Executor(s), plan, static_shard(plan.items.size(), 1, 3));
  std::string bin = shard_report_to_binary(report);
  ShardReport parsed = shard_report_from_binary(bin);
  EXPECT_EQ(parsed.to_json(), report.to_json());
  EXPECT_EQ(shard_report_to_binary(parsed), bin);
}

TEST(WireBinary, LeasedReportRoundTripsWithAssignedIds) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  ShardReport report = run_lease(Executor(s), plan, {1, 4});
  std::string bin = shard_report_to_binary(report);
  ShardReport parsed = shard_report_from_binary(bin);
  EXPECT_EQ(parsed.owned, (IdRange{1, 4, 1}));
  EXPECT_EQ(parsed.item_ids, report.item_ids);
  EXPECT_EQ(parsed.to_json(), report.to_json());
  EXPECT_EQ(shard_report_to_binary(parsed), bin);
}

TEST(WireBinary, PartialReportRoundTripsIncomplete) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  ShardReport partial = run_lease(Executor(s), plan, {0, 4});
  ASSERT_GE(partial.item_ids.size(), 2u);
  partial.item_ids.pop_back();
  partial.outcomes.pop_back();
  partial.complete = false;
  ShardReport parsed = shard_report_from_binary(shard_report_to_binary(partial));
  EXPECT_FALSE(parsed.complete);
  EXPECT_EQ(parsed.to_json(), partial.to_json());
}

TEST(WireBinary, EmptyShardRoundTrips) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  // More shards than items: a trailing shard legitimately drains nothing.
  ShardReport report = run_lease(
      Executor(s), plan,
      static_shard(plan.items.size(), plan.items.size(),
                   plan.items.size() + 1));
  ASSERT_TRUE(report.item_ids.empty());
  ShardReport parsed = shard_report_from_binary(shard_report_to_binary(report));
  EXPECT_EQ(parsed.to_json(), report.to_json());
}

TEST(WireBinary, BinaryAndJsonDecodersAgreeOnSemanticErrors) {
  // The shared-validation promise (core/wire_internal.hpp): corruption
  // past the framing is rejected with the same message by both codecs.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  ShardReport bad = run_lease(Executor(s), plan, {0, 3});
  bad.item_ids.pop_back();
  bad.outcomes.pop_back();
  // complete still claims full coverage -> both decoders must object.
  std::string bin_msg =
      wire_error_of([&] { (void)shard_report_from_binary(
          shard_report_to_binary(bad)); });
  std::string json_msg =
      wire_error_of([&] { (void)shard_report_from_json(bad.to_json()); });
  EXPECT_EQ(bin_msg, json_msg);
  EXPECT_TRUE(contains(bin_msg, "'complete' is true"));
}

// --- framing error paths ----------------------------------------------------

TEST(WireBinaryErrors, TruncatedHeader) {
  std::string bin = plan_to_binary(toy_plan());
  std::string msg =
      wire_error_of([&] { (void)plan_from_binary(bin.substr(0, 10)); });
  EXPECT_TRUE(contains(msg, "truncated header (got 10 bytes"));
}

TEST(WireBinaryErrors, BadMagic) {
  std::string bin = plan_to_binary(toy_plan());
  bin[0] = 'X';
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "not a binary wire file (bad magic)"));
}

TEST(WireBinaryErrors, ForeignEndiannessIsNamedNotGarbled) {
  std::string bin = plan_to_binary(toy_plan());
  // Byte-swap the byte-order tag — what the whole header would look like
  // had a foreign-endian host written it.
  std::swap(bin[4], bin[7]);
  std::swap(bin[5], bin[6]);
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "foreign endianness"));
}

TEST(WireBinaryErrors, CorruptByteOrderTag) {
  std::string bin = plan_to_binary(toy_plan());
  wr32(&bin, 4, 0);
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "corrupt byte-order tag"));
}

TEST(WireBinaryErrors, UnsupportedVersion) {
  std::string bin = plan_to_binary(toy_plan());
  wr16(&bin, 8, 99);
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "unsupported binary wire version 99"));
  EXPECT_TRUE(contains(msg, "(this build reads version 3)"));
}

TEST(WireBinaryErrors, KindIsCheckedBeforePayload) {
  std::string plan_bin = plan_to_binary(toy_plan());
  std::string msg = wire_error_of(
      [&] { (void)shard_report_from_binary(plan_bin); });
  EXPECT_TRUE(contains(
      msg, "kind 'injection-plan' where 'shard-report' was expected"));

  std::string unknown = plan_bin;
  wr16(&unknown, 10, 7);
  msg = wire_error_of([&] { (void)plan_from_binary(unknown); });
  EXPECT_TRUE(contains(msg, "unknown kind code 7"));
}

TEST(WireBinaryErrors, TruncatedPayloadFailsTheDeclaredTotal) {
  std::string bin = plan_to_binary(toy_plan());
  std::string cut = bin.substr(0, bin.size() - 1);
  std::string msg = wire_error_of([&] { (void)plan_from_binary(cut); });
  EXPECT_TRUE(contains(msg, "declares " + std::to_string(bin.size()) +
                                " bytes but " +
                                std::to_string(cut.size()) +
                                " were provided (truncated?)"));
}

TEST(WireBinaryErrors, ImplausibleSectionCount) {
  std::string bin = plan_to_binary(toy_plan());
  wr32(&bin, 20, 4096);
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "implausible section count"));
}

TEST(WireBinaryErrors, TruncatedSectionTable) {
  std::string bin = plan_to_binary(toy_plan());
  // Still under the plausibility cap, but the table would run past the
  // end of the buffer.
  wr32(&bin, 20, 1000);
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "truncated section table"));
}

TEST(WireBinaryErrors, SectionOffsetOutOfRange) {
  std::string bin = plan_to_binary(toy_plan());
  TableEntry meta = entry_of(bin, 1);
  wr64(&bin, meta.at + 8, bin.size());  // offset == size, length > 0
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "section tag 1"));
  EXPECT_TRUE(contains(msg, "out of range"));
}

TEST(WireBinaryErrors, OverlappingSectionsAreRejected) {
  std::string bin = plan_to_binary(toy_plan());
  // Point the points section (tag 2) at the meta section's (tag 1)
  // bytes: both in range, but the ranges collide.
  TableEntry meta = entry_of(bin, 1);
  wr64(&bin, entry_of(bin, 2).at + 8, meta.offset);
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "sections overlap"));
}

TEST(WireBinaryErrors, ColumnLengthMustBeAMultipleOfTheElementSize) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  std::string bin = shard_report_to_binary(
      run_lease(Executor(s), plan, static_shard(plan.items.size(), 1, 3)));
  // overflows (tag 6) is a 4-byte column; shaving one byte off its
  // declared length leaves a ragged column.
  TableEntry overflows = entry_of(bin, 6);
  ASSERT_GT(overflows.length, 0u);
  wr64(&bin, overflows.at + 16, overflows.length - 1);
  std::string msg =
      wire_error_of([&] { (void)shard_report_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "outcomes.overflows"));
  EXPECT_TRUE(contains(msg, "is not a multiple of 4"));
}

TEST(WireBinaryErrors, ColumnEntryCountMustMatchCompletedIds) {
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  std::string bin = shard_report_to_binary(
      run_lease(Executor(s), plan, static_shard(plan.items.size(), 1, 3)));
  // fired (tag 4) is a 1-byte column: dropping one entry keeps it
  // well-formed as a column but one short of the completed ids.
  TableEntry fired = entry_of(bin, 4);
  ASSERT_GT(fired.length, 1u);
  wr64(&bin, fired.at + 16, fired.length - 1);
  std::string msg =
      wire_error_of([&] { (void)shard_report_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "outcomes.fired has " +
                                std::to_string(fired.length - 1) +
                                " entries for " +
                                std::to_string(fired.length) +
                                " completed ids"));
}

TEST(WireBinaryErrors, TrailingBytesInASectionAreRejected) {
  std::string bin = plan_to_binary(toy_plan());
  // Grow the meta section into the gap freed by pointing it at a copy
  // appended to the end of the buffer — decoder must insist the section
  // is consumed exactly.
  TableEntry meta = entry_of(bin, 1);
  std::string grown = bin;
  grown.append(reinterpret_cast<const char*>(bin.data()) + meta.offset,
               static_cast<std::size_t>(meta.length));
  grown.append(4, '\0');  // the trailing garbage
  wr64(&grown, 12, grown.size());  // re-declare the total
  wr64(&grown, meta.at + 8, bin.size());
  wr64(&grown, meta.at + 16, meta.length + 4);
  std::string msg = wire_error_of([&] { (void)plan_from_binary(grown); });
  EXPECT_TRUE(contains(msg, "section 'meta'"));
  EXPECT_TRUE(contains(msg, "trailing byte(s)"));
}

TEST(WireBinaryErrors, MissingSectionIsNamed) {
  std::string bin = plan_to_binary(toy_plan());
  TableEntry items = entry_of(bin, 5);
  wr32(&bin, items.at, 99);  // retag: unknown tags are ignored, so the
                             // decoder sees no items section at all
  std::string msg = wire_error_of([&] { (void)plan_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "missing section 'items'"));
}

TEST(WireBinaryErrors, MetaRangeMustFitThePlan) {
  // The report meta (tag 1) is the scenario string, then u64 plan_items,
  // begin, end, stride and the complete byte. A range doctored past the
  // plan is rejected with the JSON decoder's message before any id is
  // read.
  Scenario s = toy_scenario();
  InjectionPlan plan = toy_plan(/*with_snapshot=*/true);
  std::string bin =
      shard_report_to_binary(run_lease(Executor(s), plan, {0, 2}));
  TableEntry meta = entry_of(bin, 1);
  const std::size_t end_at = meta.offset + 4 + plan.scenario_name.size() + 16;
  ASSERT_EQ(rd64(bin, end_at), 2u);
  wr64(&bin, end_at, plan.items.size() + 1);
  std::string msg =
      wire_error_of([&] { (void)shard_report_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "shard report: range [0, " +
                                std::to_string(plan.items.size() + 1) +
                                ") does not fit the plan"));
  wr64(&bin, end_at, 2);
  wr64(&bin, end_at + 8, 0);  // stride
  msg = wire_error_of([&] { (void)shard_report_from_binary(bin); });
  EXPECT_TRUE(contains(msg, "stride must be >= 1"));
}

}  // namespace
}  // namespace ep::core
