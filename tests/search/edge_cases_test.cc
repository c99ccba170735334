// Edge cases deliberately outside the main suites: parser robustness on
// adversarial input, weighted graphs, and degenerate graph shapes.

#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "search/query_parser.h"
#include "search/search_engine.h"

namespace tgks::search {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;

// Parser fuzz: random token soup must never crash; it either parses or
// returns an error status.
TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  static constexpr const char* kTokens[] = {
      "result", "time",  "precedes", "follows",  "meets", "overlaps",
      "contains", "contained", "by", "and", "or", "not",  "rank",
      "by", "descending", "ascending", "order", "of", "relevance",
      "duration", "start", "end", "(", ")", "[", "]", ",", "5", "-3",
      "word", "\"quoted phrase\"", "\"", "@", "2016"};
  Rng rng(31415);
  int parsed = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text;
    const int len = 1 + static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < len; ++i) {
      text += kTokens[rng.Uniform(std::size(kTokens))];
      text += ' ';
    }
    const auto q = ParseQuery(text);
    parsed += q.ok();
    if (q.ok()) {
      EXPECT_TRUE(q->Validate().ok()) << text;
      // Whatever parses must also render and re-parse.
      EXPECT_TRUE(ParseQuery(q->ToString()).ok()) << text;
    }
  }
  EXPECT_GT(parsed, 0);  // The grammar is reachable by chance.
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(2718);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text;
    const int len = static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>(32 + rng.Uniform(95));
    }
    (void)ParseQuery(text);  // Must not crash; outcome unconstrained.
  }
}

TEST(WeightedGraphTest, NodeAndEdgeWeightsEnterScores) {
  // source weight + sum(edge weight + node weight) along the tree.
  GraphBuilder b(4);
  const NodeId a = b.AddNode("alpha", IntervalSet{{0, 3}}, 1.0);
  const NodeId mid = b.AddNode("mid", IntervalSet{{0, 3}}, 2.0);
  const NodeId z = b.AddNode("omega", IntervalSet{{0, 3}}, 4.0);
  b.AddEdge(a, mid, IntervalSet{{0, 3}}, 10.0);
  b.AddEdge(mid, z, IntervalSet{{0, 3}}, 20.0);
  b.AddEdge(mid, a, IntervalSet{{0, 3}}, 10.0);
  b.AddEdge(z, mid, IntervalSet{{0, 3}}, 20.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const graph::InvertedIndex index(*g);
  const SearchEngine engine(*g, &index);
  auto q = ParseQuery("alpha, omega");
  ASSERT_TRUE(q.ok());
  SearchOptions options;
  options.k = 0;
  auto r = engine.Search(*q, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->results.empty());
  // Any rooting of the alpha-mid-omega chain weighs nodes 1+2+4 plus edges
  // 10+20 = 37.
  EXPECT_DOUBLE_EQ(r->results.front().total_weight, 37.0);
}

TEST(DegenerateGraphTest, EmptyGraphAndIsolatedMatches) {
  GraphBuilder b(5);
  auto empty = b.Build();
  ASSERT_TRUE(empty.ok());
  const SearchEngine engine(*empty);
  auto q = ParseQuery("anything");
  ASSERT_TRUE(q.ok());
  auto r = engine.SearchWithMatches(*q, {{}}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->results.empty());
  EXPECT_TRUE(r->exhausted());
}

TEST(DegenerateGraphTest, SelfLoopsDoNotBreakSearch) {
  GraphBuilder b(4);
  const NodeId a = b.AddNode("left", IntervalSet{{0, 3}});
  const NodeId z = b.AddNode("right", IntervalSet{{0, 3}});
  b.AddEdge(a, a, IntervalSet{{0, 3}});  // Self loop.
  b.AddEdge(a, z, IntervalSet{{1, 2}});
  b.AddEdge(z, a, IntervalSet{{1, 2}});
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const graph::InvertedIndex index(*g);
  const SearchEngine engine(*g, &index);
  auto q = ParseQuery("left, right");
  ASSERT_TRUE(q.ok());
  SearchOptions options;
  options.k = 0;
  auto r = engine.Search(*q, options);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->results.empty());
  EXPECT_EQ(r->results.front().time, (IntervalSet{{1, 2}}));
}

TEST(DegenerateGraphTest, ParallelEdgesPickCheapest) {
  GraphBuilder b(4);
  const NodeId a = b.AddNode("left", IntervalSet{{0, 3}});
  const NodeId z = b.AddNode("right", IntervalSet{{0, 3}});
  b.AddEdge(z, a, IntervalSet{{0, 3}}, 5.0);
  b.AddEdge(z, a, IntervalSet{{0, 3}}, 1.0);  // Cheaper parallel edge.
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const graph::InvertedIndex index(*g);
  const SearchEngine engine(*g, &index);
  auto q = ParseQuery("left, right");
  ASSERT_TRUE(q.ok());
  SearchOptions options;
  options.k = 1;
  options.bound = UpperBoundKind::kAccurate;
  auto r = engine.Search(*q, options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->results.size(), 1u);
  EXPECT_DOUBLE_EQ(r->results[0].total_weight, 1.0);
}

TEST(DegenerateGraphTest, RepeatedKeywordInQuery) {
  // "mary mary" — both keywords share one match set; the single node
  // covers both.
  GraphBuilder b(4);
  b.AddNode("mary", IntervalSet{{0, 3}});
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const graph::InvertedIndex index(*g);
  const SearchEngine engine(*g, &index);
  auto q = ParseQuery("mary, mary");
  ASSERT_TRUE(q.ok());
  SearchOptions options;
  options.k = 0;
  auto r = engine.Search(*q, options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->results.size(), 1u);
  EXPECT_TRUE(r->results[0].edges.empty());
}

}  // namespace
}  // namespace tgks::search
