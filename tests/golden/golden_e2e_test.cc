// Golden-file end-to-end tests: load a .tgf graph, run every query in the
// sibling .queries file through the full engine, render the ranked result
// trees deterministically, and compare against the checked-in .expected
// transcript.
//
// Any intentional behavior change regenerates the transcripts with
//
//   TGKS_UPDATE_GOLDEN=1 ctest -R GoldenE2E
//
// and the diff of the .expected files IS the review artifact.
//
// The rendering deliberately excludes wall-clock, counters, and stats so
// the transcripts are byte-identical across machines and sanitizers.

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/inverted_index.h"
#include "graph/serialization.h"
#include "graph/temporal_graph.h"
#include "search/query_parser.h"
#include "search/search_engine.h"

namespace tgks {
namespace {

using graph::TemporalGraph;

std::string GoldenPath(const std::string& file) {
  return std::string(TGKS_GOLDEN_DIR) + "/" + file;
}

std::vector<std::string> LoadQueryLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const size_t last = line.find_last_not_of(" \t\r");
    lines.push_back(line.substr(first, last - first + 1));
  }
  return lines;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Locale-independent number rendering: shortest round-trip-free form with
/// up to six significant digits (scores are simple ratios in these graphs).
std::string Num(double v) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << std::setprecision(6) << v;
  return out.str();
}

/// Deterministic transcript for one query against one graph.
std::string RenderQuery(const TemporalGraph& g, const search::Query& query,
                        const search::SearchResponse& r) {
  std::ostringstream out;
  out << "query: " << query.ToString() << "\n";
  out << "stop: " << search::StopReasonName(r.stop_reason)
      << "  results: " << r.results.size() << "\n";
  int rank = 0;
  for (const search::ResultTree& tree : r.results) {
    out << "#" << ++rank << " root=" << g.node(tree.root).label
        << " weight=" << Num(tree.total_weight)
        << " time=" << tree.time.ToString()
        << " score=" << search::FormatScore(query.ranking, tree.score)
        << "\n";
    for (const graph::EdgeId e : tree.edges) {
      out << "  " << g.node(g.edge(e).src).label << " -> "
          << g.node(g.edge(e).dst).label << " valid "
          << g.edge(e).validity.ToString() << "\n";
    }
    if (tree.edges.empty()) {
      out << "  (single node)\n";
    }
  }
  return out.str();
}

std::string RenderCase(const std::string& graph_file) {
  const std::string stem =
      graph_file.substr(0, graph_file.find_last_of('.'));
  auto loaded = graph::LoadGraphFromFile(GoldenPath(graph_file));
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  const TemporalGraph g = std::move(loaded).value();
  const graph::InvertedIndex index(g);
  const search::SearchEngine engine(g, &index);

  std::ostringstream out;
  out << "# Golden transcript for " << graph_file
      << ". Regenerate: TGKS_UPDATE_GOLDEN=1 ctest -R GoldenE2E\n";
  for (const std::string& text :
       LoadQueryLines(GoldenPath(stem + ".queries"))) {
    auto query = search::ParseQuery(text);
    EXPECT_TRUE(query.ok()) << text << ": " << query.status();
    search::SearchOptions options;
    options.k = 10;
    auto r = engine.Search(*query, options);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status();
    out << "\n" << RenderQuery(g, *query, *r);
  }
  return out.str();
}

void CheckGolden(const std::string& graph_file) {
  const std::string stem =
      graph_file.substr(0, graph_file.find_last_of('.'));
  const std::string expected_path = GoldenPath(stem + ".expected");
  const std::string actual = RenderCase(graph_file);
  if (std::getenv("TGKS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(expected_path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << expected_path;
    out << actual;
    GTEST_LOG_(INFO) << "updated " << expected_path;
    return;
  }
  EXPECT_EQ(actual, ReadFile(expected_path))
      << "transcript drift for " << graph_file
      << "; regenerate with TGKS_UPDATE_GOLDEN=1 if intentional";
}

TEST(GoldenE2ETest, SocialGraph) { CheckGolden("social.tgf"); }
TEST(GoldenE2ETest, ArchiveGraph) { CheckGolden("archive.tgf"); }
TEST(GoldenE2ETest, SparseGraph) { CheckGolden("sparse.tgf"); }
TEST(GoldenE2ETest, WeightedGraph) { CheckGolden("weighted.tgf"); }

}  // namespace
}  // namespace tgks
