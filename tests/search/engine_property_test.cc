// Engine-level property sweep: on random temporal graphs, for every ranking
// factor, bound kind, and predicate shape, every returned result must be
// well-formed per Definition 2.2, the ranking order must hold, and top-k
// must be a prefix of the exhaustive run's ordering (for the accurate bound).

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "search/query_parser.h"
#include "search/search_engine.h"

namespace tgks::search {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;
using temporal::TimePoint;

TemporalGraph RandomGraph(Rng* rng, int num_nodes, int num_edges,
                          TimePoint horizon) {
  while (true) {
    GraphBuilder b(horizon, graph::ValidityPolicy::kClamp);
    for (int i = 0; i < num_nodes; ++i) {
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      b.AddNode("n" + std::to_string(i),
                IntervalSet{{std::min(a, c), std::max(a, c)}});
    }
    for (int i = 0; i < num_edges; ++i) {
      const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
      const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
      if (u == v) continue;
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}});
    }
    auto g = b.Build();
    if (g.ok()) return std::move(g).value();
  }
}

std::vector<NodeId> RandomMatches(Rng* rng, const TemporalGraph& g, int k) {
  std::vector<NodeId> out;
  for (const uint64_t v : rng->SampleWithoutReplacement(
           static_cast<uint64_t>(g.num_nodes()), static_cast<uint64_t>(k))) {
    out.push_back(static_cast<NodeId>(v));
  }
  return out;
}

void ExpectWellFormed(const TemporalGraph& g, const Query& q,
                      const SearchResponse& r) {
  for (const ResultTree& tree : r.results) {
    ASSERT_FALSE(tree.time.IsEmpty());
    IntervalSet time = g.node(tree.root).validity;
    for (const NodeId n : tree.nodes) time = time.Intersect(g.node(n).validity);
    for (const auto e : tree.edges) time = time.Intersect(g.edge(e).validity);
    EXPECT_EQ(time, tree.time);
    EXPECT_EQ(tree.edges.size() + 1, tree.nodes.size());
    if (q.predicate != nullptr) {
      EXPECT_TRUE(q.predicate->EvalResultTime(tree.time));
    }
  }
  for (size_t i = 1; i < r.results.size(); ++i) {
    EXPECT_FALSE(ScoreBetter(r.results[i].score, r.results[i - 1].score));
  }
}

class EnginePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, RankFactor>> {};

TEST_P(EnginePropertyTest, WellFormedAndAccurateTopKIsPrefix) {
  const auto [seed, factor] = GetParam();
  Rng rng(seed);
  for (int round = 0; round < 2; ++round) {
    const TemporalGraph g = RandomGraph(&rng, 12, 26, 8);
    const std::vector<std::vector<NodeId>> matches = {
        RandomMatches(&rng, g, 3), RandomMatches(&rng, g, 3)};
    Query q;
    q.keywords = {"a", "b"};
    q.ranking.factors = {factor};
    const SearchEngine engine(g);

    SearchOptions all;
    all.k = 0;
    auto exhaustive = engine.SearchWithMatches(q, matches, all);
    ASSERT_TRUE(exhaustive.ok());
    ExpectWellFormed(g, q, *exhaustive);

    SearchOptions topk;
    topk.k = 3;
    topk.bound = UpperBoundKind::kAccurate;
    auto top = engine.SearchWithMatches(q, matches, topk);
    ASSERT_TRUE(top.ok());
    ExpectWellFormed(g, q, *top);
    ASSERT_EQ(top->results.size(),
              std::min<size_t>(3, exhaustive->results.size()));
    for (size_t i = 0; i < top->results.size(); ++i) {
      // Scores must match the exhaustive prefix (trees may differ on ties).
      EXPECT_EQ(top->results[i].score, exhaustive->results[i].score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnginePropertyTest,
    ::testing::Combine(::testing::Values(7, 9),
                       ::testing::Values(RankFactor::kRelevance,
                                         RankFactor::kEndTimeDesc,
                                         RankFactor::kStartTimeAsc,
                                         RankFactor::kDurationDesc)),
    [](const auto& info) {
      std::string name =
          "Seed" + std::to_string(std::get<0>(info.param)) + "_" +
          std::string(RankFactorName(std::get<1>(info.param)));
      std::erase_if(name, [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c)) && c != '_';
      });
      return name;
    });

TEST(EnginePredicatePropertyTest, AllPredicatesWellFormedAndPruneConsistent) {
  Rng rng(2024);
  const TemporalGraph g = RandomGraph(&rng, 14, 30, 10);
  const std::vector<std::vector<NodeId>> matches = {RandomMatches(&rng, g, 3),
                                                    RandomMatches(&rng, g, 3)};
  const char* predicates[] = {
      "a, b result time precedes 5",
      "a, b result time follows 4",
      "a, b result time meets 3",
      "a, b result time overlaps [3,6]",
      "a, b result time contains [4,5]",
      "a, b result time contained by [2,8]",
      "a, b result time precedes 6 and result time follows 2",
      "a, b result time contains 3 or result time contains 7",
      "a, b not result time follows 6",
  };
  const SearchEngine engine(g);
  for (const char* text : predicates) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    SearchOptions options;
    options.k = 0;
    auto r = engine.SearchWithMatches(*q, matches, options);
    ASSERT_TRUE(r.ok()) << text;
    ExpectWellFormed(g, *q, *r);
    // Cross-check against predicate-free search + post-filter: pruning must
    // not lose any qualifying result.
    auto q_plain = ParseQuery("a, b");
    ASSERT_TRUE(q_plain.ok());
    auto r_plain = engine.SearchWithMatches(*q_plain, matches, options);
    ASSERT_TRUE(r_plain.ok());
    std::set<std::string> qualifying;
    for (const auto& tree : r_plain->results) {
      if ((*q).predicate->EvalResultTime(tree.time)) {
        qualifying.insert(tree.Signature());
      }
    }
    std::set<std::string> found;
    for (const auto& tree : r->results) found.insert(tree.Signature());
    EXPECT_EQ(found, qualifying) << text;
  }
}

TEST(EngineCombinedRankingTest, LexicographicOrderRespected) {
  Rng rng(515);
  const TemporalGraph g = RandomGraph(&rng, 12, 26, 8);
  const std::vector<std::vector<NodeId>> matches = {RandomMatches(&rng, g, 3),
                                                    RandomMatches(&rng, g, 3)};
  auto q = ParseQuery(
      "a, b rank by descending order of result end time, "
      "descending order of relevance");
  ASSERT_TRUE(q.ok());
  const SearchEngine engine(g);
  SearchOptions options;
  options.k = 0;
  auto r = engine.SearchWithMatches(*q, matches, options);
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->results.size(); ++i) {
    const auto& prev = r->results[i - 1];
    const auto& cur = r->results[i];
    EXPECT_GE(prev.time.End(), cur.time.End());
    if (prev.time.End() == cur.time.End()) {
      EXPECT_LE(prev.total_weight, cur.total_weight);
    }
  }
}

}  // namespace
}  // namespace tgks::search
