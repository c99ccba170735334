// Reachability oracle over search answers: every result tree the engine
// returns must be a real temporal connection, as the graph's
// ReachabilityIndex (docs/reachability.md) independently confirms. The
// sweep runs the same 60 seeded random graphs the snapshot-reducibility
// oracle uses (10 seeds x 6 rounds), covering all four rankings and all
// three §4.2 bound kinds, at k = 5 and exhaustively (k = 0).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/reachability_index.h"
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
    std::vector<std::pair<TimePoint, TimePoint>> node_span;
    for (int i = 0; i < num_nodes; ++i) {
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      node_span.emplace_back(std::min(a, c), std::max(a, c));
      b.AddNode("n" + std::to_string(i),
                IntervalSet{{node_span.back().first, node_span.back().second}},
                static_cast<double>(rng->Uniform(3)));
    }
    for (int i = 0; i < num_edges; ++i) {
      const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
      const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
      if (u == v) continue;
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint lo = std::max({std::min(a, c), node_span[u].first,
                                     node_span[v].first});
      const TimePoint hi = std::min({std::max(a, c), node_span[u].second,
                                     node_span[v].second});
      if (lo > hi) continue;
      b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}},
                static_cast<double>(1 + rng->Uniform(3)));
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

/// Reachability-oracle strengthening of the §4.2 bound tests: every
/// accepted result tree encodes a path from its root to each keyword's
/// matched node, valid over the whole tree time — so the labeling must
/// confirm CanReach(root, t, keyword_node) at every instant, and
/// EarliestArrival(root, t, keyword_node) must equal t exactly (the lower
/// bound is tight on instants where a path exists). A bound-stop that
/// admitted a tree violating this would be unsound.
void ExpectResultsRespectReachability(const TemporalGraph& g,
                                      const SearchResponse& r,
                                      const std::string& context) {
  const graph::ReachabilityIndex& index = g.reachability();
  for (const ResultTree& tree : r.results) {
    for (const NodeId kw_node : tree.keyword_nodes) {
      for (const temporal::Interval& iv : tree.time.intervals()) {
        for (TimePoint t = iv.start; t <= iv.end; ++t) {
          EXPECT_TRUE(index.CanReach(tree.root, t, kw_node))
              << context << ": root " << tree.root << " !-> " << kw_node
              << " at t=" << t;
          EXPECT_EQ(index.EarliestArrival(tree.root, t, kw_node), t)
              << context << ": root " << tree.root << " -> " << kw_node
              << " at t=" << t;
        }
      }
    }
  }
}

class ResultReachabilityOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

// On 60 random graphs (same seed protocol as snapshot_reducibility_test:
// 10 seeds x 6 rounds), every answer at k = 5 under each bound kind and at
// k = 0 (exhaustion path) passes the reachability oracle.
TEST_P(ResultReachabilityOracleTest, ResultsRespectReachability) {
  static constexpr RankFactor kFactors[] = {
      RankFactor::kRelevance, RankFactor::kEndTimeDesc,
      RankFactor::kStartTimeAsc, RankFactor::kDurationDesc};
  static constexpr UpperBoundKind kBounds[] = {UpperBoundKind::kEmpirical,
                                               UpperBoundKind::kAccurate,
                                               UpperBoundKind::kAverage};
  Rng rng(GetParam());
  int64_t results = 0;
  for (int round = 0; round < 6; ++round) {
    const TemporalGraph g = RandomGraph(&rng, 12, 26, 8);
    const int num_keywords = 2 + static_cast<int>(rng.Uniform(2));
    std::vector<std::vector<NodeId>> matches;
    Query q;
    for (int kw = 0; kw < num_keywords; ++kw) {
      q.keywords.push_back(std::string(1, static_cast<char>('a' + kw)));
      matches.push_back(RandomMatches(&rng, g, 3));
    }
    q.ranking.factors = {kFactors[round % 4]};
    const SearchEngine engine(g);
    const std::string context = "seed " + std::to_string(GetParam()) +
                                " round " + std::to_string(round);

    for (const int32_t k : {5, 0}) {
      SearchOptions options;
      options.k = k;
      options.bound = kBounds[round % 3];
      auto r = engine.SearchWithMatches(q, matches, options);
      ASSERT_TRUE(r.ok()) << context;
      ExpectResultsRespectReachability(g, *r,
                                       context + " k=" + std::to_string(k));
      results += static_cast<int64_t>(r->results.size());
    }
  }
  // Not vacuous: the seed's graphs produce answers to check.
  EXPECT_GT(results, 0);
}

// 10 seeds x 6 rounds = 60 random graphs, mirroring the
// snapshot-reducibility suite's protocol.
INSTANTIATE_TEST_SUITE_P(Seeds, ResultReachabilityOracleTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

}  // namespace
}  // namespace tgks::search
