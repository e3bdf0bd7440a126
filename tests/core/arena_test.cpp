// The shared-memory data plane (core/arena.hpp, core/transport.hpp's
// ShmLocalTransport): arena create/open round trips, header validation
// against corrupt or foreign files, the (offset, length) DONE handoff
// checks, segment re-lease cleanliness, and the arena-sizing contract
// against the orchestrator's lease partition.
#include "core/arena.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/campaign_fixtures.hpp"
#include "core/transport.hpp"
#include "core/wire.hpp"
#include "util/strings.hpp"

namespace ep::core {
namespace {

InjectionPlan toy_plan() {
  Scenario s = toy_scenario();
  CampaignOptions opts;
  opts.use_world_cache = false;
  return Planner(s).plan(opts);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "epa_arena_test." + name + "." +
         std::to_string(static_cast<long long>(::getpid()));
}

template <typename Fn>
std::string arena_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ArenaError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ArenaError";
  return {};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::string read_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Arena, CreateOpenRoundTrip) {
  std::string path = temp_path("roundtrip");
  std::string plan_bin = plan_to_binary(toy_plan());
  {
    ShmArena a = ShmArena::create(path, plan_bin, 3, 256);
    EXPECT_EQ(a.plan_size(), plan_bin.size());
    EXPECT_EQ(a.segment_count(), 3u);
    EXPECT_EQ(a.segment_bytes(), 256u);
    EXPECT_EQ(0, std::memcmp(a.plan_data(), plan_bin.data(),
                             plan_bin.size()));
  }
  ShmArena b = ShmArena::open(path);
  EXPECT_EQ(b.plan_size(), plan_bin.size());
  EXPECT_EQ(b.segment_count(), 3u);
  EXPECT_EQ(b.segment_bytes(), 256u);
  // The frozen plan decodes out of the mapping directly.
  InjectionPlan decoded = plan_from_binary(b.plan_data(), b.plan_size());
  EXPECT_EQ(decoded.to_json(), toy_plan().to_json());
  // Segments sit contiguously after the plan, exactly covering the file.
  EXPECT_EQ(b.segment_offset(0), 64 + plan_bin.size());
  EXPECT_EQ(b.segment_offset(2), b.segment_offset(0) + 2 * 256);
  EXPECT_EQ(b.size(), b.segment_offset(2) + 256);
  std::remove(path.c_str());
}

TEST(Arena, WritesInOneMappingAreSeenByAnother) {
  // Same-host MAP_SHARED coherence — what the worker/coordinator pair
  // relies on, exercised through two independent mappings of the file.
  std::string path = temp_path("coherent");
  ShmArena writer = ShmArena::create(path, "plan-bytes", 2, 64);
  ShmArena reader = ShmArena::open(path);
  const char msg[] = "report in segment 1";
  std::memcpy(writer.segment(1), msg, sizeof msg);
  EXPECT_EQ(0, std::memcmp(reader.segment(1), msg, sizeof msg));
  std::remove(path.c_str());
}

TEST(Arena, ReLeasedSegmentDecodesCleanlyAfterPartialGarbage) {
  // Re-lease safety by construction: a preempted worker leaves arbitrary
  // half-written bytes; the replacement overwrites from the segment's
  // start and the decoder reads only [offset, offset+length).
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan({});
  std::string report_bin =
      shard_report_to_binary(run_lease(Executor(s), plan, {0, 2}));
  std::string path = temp_path("release");
  ShmArena a = ShmArena::create(path, plan_to_binary(plan), 1,
                                report_bin.size() + 128);
  std::memset(a.segment(0), 0xAB, a.segment_bytes());  // the dead partial
  std::memcpy(a.segment(0), report_bin.data(), report_bin.size());
  ShardReport decoded = shard_report_from_binary(
      a.data() + a.segment_offset(0), report_bin.size());
  EXPECT_TRUE(decoded.complete);
  EXPECT_EQ(shard_report_to_binary(decoded), report_bin);
  std::remove(path.c_str());
}

TEST(Arena, HandoffChecksOffsetAndLength) {
  std::string path = temp_path("handoff");
  ShmArena a = ShmArena::create(path, "0123456789", 2, 128);
  std::size_t seg1 = a.segment_offset(1);
  a.check_handoff(1, seg1, 128);  // the full segment is fine
  a.check_handoff(1, seg1, 0);    // so is an empty report

  std::string msg =
      arena_error_of([&] { a.check_handoff(1, seg1 + 1, 16); });
  EXPECT_TRUE(contains(msg, "segment starts at " + std::to_string(seg1)));
  msg = arena_error_of([&] { a.check_handoff(0, seg1, 16); });
  EXPECT_TRUE(contains(msg, "lease 0's segment starts at"));
  msg = arena_error_of([&] { a.check_handoff(1, seg1, 129); });
  EXPECT_TRUE(contains(msg, "segments hold at most 128"));
  msg = arena_error_of([&] { a.check_handoff(2, seg1, 16); });
  EXPECT_TRUE(contains(msg, "segment 2 out of range (arena holds 2)"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, MissingFile) {
  std::string msg = arena_error_of(
      [] { (void)ShmArena::open("/no/such/dir/epa.arena"); });
  EXPECT_TRUE(contains(msg, "arena '/no/such/dir/epa.arena': open:"));
}

TEST(ArenaErrors, TruncatedHeader) {
  std::string path = temp_path("short");
  write_bytes(path, "EPARENA1 too short");
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "truncated header"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, BadMagic) {
  std::string path = temp_path("magic");
  { ShmArena::create(path, "plan", 1, 32); }
  std::string bytes = read_bytes(path);
  bytes[0] = 'X';
  write_bytes(path, bytes);
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "not an arena file (bad magic)"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, ForeignEndianness) {
  std::string path = temp_path("endian");
  { ShmArena::create(path, "plan", 1, 32); }
  std::string bytes = read_bytes(path);
  std::swap(bytes[8], bytes[11]);  // byte-swap the order tag
  std::swap(bytes[9], bytes[10]);
  write_bytes(path, bytes);
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "foreign endianness"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, TruncatedFileFailsTheDeclaredTotal) {
  std::string path = temp_path("total");
  { ShmArena::create(path, "plan", 1, 32); }
  std::string bytes = read_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() - 1));
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "truncated?"));
  std::remove(path.c_str());
}

TEST(ArenaErrors, SegmentRegionMustCoverTheFileExactly) {
  std::string path = temp_path("segments");
  { ShmArena::create(path, "plan", 2, 32); }
  std::string bytes = read_bytes(path);
  std::uint64_t three = 3;  // claim 3 segments in a 2-segment file
  std::memcpy(&bytes[40], &three, sizeof three);
  write_bytes(path, bytes);
  std::string msg = arena_error_of([&] { (void)ShmArena::open(path); });
  EXPECT_TRUE(contains(msg, "segment region does not fit the file"));
  std::remove(path.c_str());
}

// --- the transport's arena-sizing contract ----------------------------------
// (The suite name also keys the CI TSan filter: Arena|ShmTransport.)

struct ExposedShm : ShmLocalTransport {
  using ShmLocalTransport::ShmLocalTransport;
  using ShmLocalTransport::lease_token;
  using ShmLocalTransport::worker_args;
};

TEST(ShmTransport, SegmentBytesScaleWithTheLargestLease) {
  EXPECT_GT(arena_segment_bytes(0), 0u);
  EXPECT_GT(arena_segment_bytes(8), arena_segment_bytes(1));
  // The budget is generous by design: a full toy-plan lease report must
  // fit with ample slack (violations and exploit notes included).
  Scenario s = toy_scenario();
  InjectionPlan plan = Planner(s).plan({});
  std::size_t n = plan.items.size();
  std::string bin =
      shard_report_to_binary(run_lease(Executor(s), plan, {0, n}));
  EXPECT_LT(bin.size(), arena_segment_bytes(n) / 2);
}

TEST(ShmTransport, ArenaMatchesTheLeasePartition) {
  InjectionPlan plan = toy_plan();
  OrchestratorOptions oopts;
  oopts.workers = 2;
  oopts.lease_items = 3;
  std::vector<Lease> partition = lease_partition(plan.items.size(), oopts);
  ASSERT_FALSE(partition.empty());

  LocalProcessConfig cfg;
  cfg.epa_cli = "/bin/false";  // never spawned in this test
  cfg.out_dir = ::testing::TempDir();
  cfg.file_prefix = "epa_shm_test";
  ExposedShm t(cfg, plan, partition);
  EXPECT_EQ(t.arena_path(), cfg.out_dir + "/epa_shm_test.arena");

  ShmArena a = ShmArena::open(t.arena_path());
  // One segment per planned lease, plus the reserve for stolen-tail
  // leases (fresh seqs past the partition) minted by work stealing.
  EXPECT_EQ(a.segment_count(), partition.size() + kMaxLeaseSplits);
  EXPECT_EQ(a.segment_bytes(), arena_segment_bytes(3));
  EXPECT_EQ(plan_from_binary(a.plan_data(), a.plan_size()).to_json(),
            plan.to_json());

  // The data plane's protocol tokens: leases are named by segment, the
  // worker argv points at the arena instead of a plan file.
  EXPECT_EQ(t.lease_token(partition[1]), "@1");
  std::vector<std::string> args = t.worker_args();
  ASSERT_GE(args.size(), 3u);
  EXPECT_EQ(args[0], "worker");
  EXPECT_EQ(args[1], "--arena");
  EXPECT_EQ(args[2], t.arena_path());
  std::remove(t.arena_path().c_str());
}

TEST(ShmTransport, LeasePartitionIsContiguousAscending) {
  OrchestratorOptions oopts;
  oopts.workers = 3;
  std::vector<Lease> leases = lease_partition(26, oopts);
  ASSERT_FALSE(leases.empty());
  std::size_t expect_begin = 0;
  for (std::size_t i = 0; i < leases.size(); ++i) {
    EXPECT_EQ(leases[i].seq, i);
    EXPECT_EQ(leases[i].begin, expect_begin);
    EXPECT_GT(leases[i].end, leases[i].begin);
    expect_begin = leases[i].end;
  }
  EXPECT_EQ(expect_begin, 26u);
  // auto grain: roughly four leases per worker.
  EXPECT_EQ(leases.size(), 13u);  // 26 / max(1, 26/(3*4)=2) = 13

  oopts.lease_items = 100;  // one big lease swallows the plan
  EXPECT_EQ(lease_partition(26, oopts).size(), 1u);
  EXPECT_TRUE(lease_partition(0, oopts).empty());
  oopts.workers = 0;
  EXPECT_THROW((void)lease_partition(26, oopts), OrchestratorError);
}

}  // namespace
}  // namespace ep::core
