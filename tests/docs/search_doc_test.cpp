// Docs-freshness guard for docs/SEARCH.md, the same contract
// wire_format_doc_test.cpp holds over WIRE_FORMAT.md: the search-state
// example is real serializer output — parsed with the real reader and
// re-serialized, the bytes must match the document verbatim — and the
// prose version/scoring constants are pinned against the code.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/search.hpp"

namespace ep::core {
namespace {

std::string read_doc() {
  std::ifstream in(std::string(EP_SOURCE_DIR) + "/docs/SEARCH.md");
  EXPECT_TRUE(in.good()) << "docs/SEARCH.md is missing";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The fenced block following `<!-- search-example: NAME -->`.
std::string example_block(const std::string& doc, const std::string& name) {
  std::string marker = "<!-- search-example: " + name + " -->";
  std::size_t at = doc.find(marker);
  EXPECT_NE(at, std::string::npos) << "marker not found: " << marker;
  if (at == std::string::npos) return {};
  std::string open_fence = "```json\n";
  std::size_t open = doc.find(open_fence, at);
  EXPECT_NE(open, std::string::npos) << "no ```json fence after " << marker;
  if (open == std::string::npos) return {};
  open += open_fence.size();
  std::size_t close = doc.find("```", open);
  EXPECT_NE(close, std::string::npos) << "unterminated fence after "
                                      << marker;
  if (close == std::string::npos) return {};
  return doc.substr(open, close - open);
}

TEST(SearchDoc, SearchStateExampleIsVerbatimSerializerOutput) {
  const std::string example = example_block(read_doc(), "search-state");
  ASSERT_FALSE(example.empty());
  SearchState state = search_state_from_json(example);
  EXPECT_EQ(state.plan.scenario_name, "lpr");
  EXPECT_EQ(state.plan.items.size(), 3u);
  EXPECT_TRUE(state.report.complete);
  EXPECT_EQ(search_state_to_json(state), example);
}

TEST(SearchDoc, DocumentsTheCurrentSchemaAndScoring) {
  const std::string doc = read_doc();
  // The schema pin: bumping kSearchStateSchemaVersion must be a
  // documented act.
  EXPECT_EQ(kSearchStateSchemaVersion, 2);
  EXPECT_NE(doc.find("`schema_version` (currently `2`)"), std::string::npos);
  // The scoring table rides the doc; hold the terms to the scorer.
  NoveltyScorer scorer;
  EXPECT_EQ(scorer.score("c", "s", "f", 0), 12) << "scoring terms changed "
      "— update the table in docs/SEARCH.md";
  EXPECT_NE(doc.find("| +8   |"), std::string::npos);
  EXPECT_NE(doc.find("| +2   |"), std::string::npos);
}

}  // namespace
}  // namespace ep::core
