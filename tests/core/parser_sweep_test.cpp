// The parser sweep: every reader of untrusted input — plan and shard
// report (JSON and binary), search state, scenario spec, a worker
// protocol transcript and FEEDBACK's work-items frame — fed seeded
// mutations of a real document. Each call must either return or throw WireError (the
// protocol parser returns false); any other exception fails the test,
// and under the sanitizer build any memory error or undefined behavior
// does. Mutations: every truncation point, bit flips, splices with
// another document, duplicated spans, and each integer swapped for
// -1, 2^32, 2^63-1, -2^63 and 2^64 (in binary documents: a u64 of
// all-ones, 2^32, 2^63-1 or 2^63 written at every 4-byte boundary).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/scenarios.hpp"
#include "core/campaign_fixtures.hpp"
#include "core/planner.hpp"
#include "core/protocol.hpp"
#include "core/scenario_spec.hpp"
#include "core/search.hpp"
#include "core/wire.hpp"

namespace ep::core {
namespace {

struct Doc {
  const char* name;
  std::string bytes;
  bool binary;
  std::function<void(const std::string&)> read;  // throws WireError
};

/// The protocol parser's contract is a boolean, never an exception: feed
/// it every line of the (mutated) transcript.
void read_transcript(const std::string& text) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    ProtocolMsg msg;
    (void)parse_protocol_line(line, &msg);
  }
}

std::string transcript() {
  std::string out;
  for (const std::string& line :
       {format_hello(kWorkerProtocolVersion), format_lease(0, 4),
        format_ping(), format_done(0, 4),
        format_feedback(11, 13),
        format_lease(4, 11), format_steal(), format_yield(6, 11),
        format_done(4, 6), format_plan(), format_exit(), format_bye(0)})
    out += line + "\n";
  return out;
}

/// The documents are kept small (about 1 KB each, the size of the
/// docs/WIRE_FORMAT.md examples) because every truncation point is a
/// full parse: the sweep stays a few seconds under ASan/UBSan.
std::vector<Doc> documents() {
  Scenario s = *apps::resolve_scenario("lpr");
  CampaignOptions one_site;
  one_site.only_sites = {"create-tempfile"};
  InjectionPlan plan = Planner(s).plan(one_site);
  Executor ex(s);
  ShardReport shard =
      run_lease(ex, plan, static_shard(plan.items.size(), 0, 2));
  ShardReport lease = run_lease(ex, plan, {1, 3});
  Scenario toy = toy_scenario();
  Executor toy_ex(toy);
  SearchOptions search_opts;
  search_opts.seed = 7;
  search_opts.budget = 3;
  search_opts.batch = 3;
  SearchWorkSource source(Planner(toy).plan(), search_opts);
  drain_in_process(toy_ex, source);
  const std::size_t points = plan.points.size();
  InjectionPlan mutated = plan;
  mutated.items[0].param = 771;

  auto plan_json = [](const std::string& t) { (void)plan_from_json(t); };
  auto plan_bin = [](const std::string& t) { (void)plan_from_binary(t); };
  auto shard_json = [](const std::string& t) {
    (void)shard_report_from_json(t);
  };
  auto shard_bin = [](const std::string& t) {
    (void)shard_report_from_binary(t);
  };
  return {
      {"plan json", plan.to_json(), false, plan_json},
      {"plan binary", plan_to_binary(plan), true, plan_bin},
      {"static shard json", shard.to_json(), false, shard_json},
      {"static shard binary", shard_report_to_binary(shard), true, shard_bin},
      {"lease json", lease.to_json(), false, shard_json},
      {"lease binary", shard_report_to_binary(lease), true, shard_bin},
      {"search state", search_state_to_json(source.state()), false,
       [](const std::string& t) { (void)search_state_from_json(t); }},
      {"scenario spec", spec_to_json(*apps::resolve_spec("lpr")), false,
       [](const std::string& t) { (void)spec_from_json(t); }},
      {"protocol transcript", transcript(), false, read_transcript},
      {"work items", work_items_to_binary(mutated, 0, mutated.items.size()),
       true,
       [points](const std::string& t) {
         (void)work_items_from_binary(t, points);
       }},
  };
}

/// The mutants of one document, deterministic for a given generator.
std::vector<std::string> mutants(const Doc& doc,
                                 const std::vector<Doc>& all,
                                 std::mt19937_64& rng) {
  const std::string& b = doc.bytes;
  std::vector<std::string> out;
  auto pick = [&](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };

  for (std::size_t cut = 0; cut < b.size(); ++cut)
    out.push_back(b.substr(0, cut));

  for (int i = 0; i < 256; ++i) {
    std::string m = b;
    m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
    out.push_back(std::move(m));
  }

  for (int i = 0; i < 64; ++i) {
    const std::string& other = all[pick(all.size())].bytes;
    out.push_back(b.substr(0, pick(b.size() + 1)) +
                  other.substr(pick(other.size() + 1)));
  }

  for (int i = 0; i < 64; ++i) {
    std::size_t at = pick(b.size());
    std::size_t len = 1 + pick(std::min<std::size_t>(64, b.size() - at));
    std::string m = b;
    m.insert(at + len, b.substr(at, len));
    out.push_back(std::move(m));
  }

  if (doc.binary) {
    const std::uint64_t words[] = {~0ull, 1ull << 32, 0x7fffffffffffffffull,
                                   1ull << 63};
    for (std::size_t at = 0; at + 8 <= b.size(); at += 4)
      for (std::uint64_t w : words) {
        std::string m = b;
        std::memcpy(&m[at], &w, sizeof w);
        out.push_back(std::move(m));
      }
  } else {
    const char* literals[] = {"-1", "4294967296", "9223372036854775807",
                              "-9223372036854775808", "18446744073709551616"};
    for (std::size_t at = 0; at < b.size();) {
      if (!std::isdigit(static_cast<unsigned char>(b[at]))) {
        ++at;
        continue;
      }
      std::size_t end = at + 1;
      while (end < b.size() &&
             std::isdigit(static_cast<unsigned char>(b[end])))
        ++end;
      for (const char* lit : literals)
        out.push_back(b.substr(0, at) + lit + b.substr(end));
      at = end;
    }
  }
  return out;
}

TEST(ParserMutation, EveryReaderReturnsOrThrowsWireError) {
  const std::vector<Doc> docs = documents();
  std::mt19937_64 rng(20260);
  std::size_t total = 0, accepted = 0;
  for (const Doc& doc : docs) {
    ASSERT_NO_THROW(doc.read(doc.bytes)) << doc.name;
    std::size_t failures = 0;
    for (const std::string& m : mutants(doc, docs, rng)) {
      ++total;
      try {
        doc.read(m);
        ++accepted;
      } catch (const WireError&) {
      } catch (const std::exception& e) {
        if (++failures <= 3)
          ADD_FAILURE() << doc.name << ": " << e.what() << "\n  input: " << m;
      } catch (...) {
        if (++failures <= 3)
          ADD_FAILURE() << doc.name << ": non-std exception\n  input: " << m;
      }
    }
    EXPECT_EQ(failures, 0u) << doc.name;
  }
  RecordProperty("mutations", static_cast<int>(total));
  RecordProperty("accepted", static_cast<int>(accepted));
  EXPECT_GT(total, 10000u);
}

}  // namespace
}  // namespace ep::core
