// Pruning-soundness differential suite for the opt-in reachability prune
// (SearchOptions::reachability_prune, docs/reachability.md).
//
// The prune's contract: dropping match sources with empty viability and
// discarding expansion NTDs whose time set misses the neighbor's viability
// never changes the result set of an exhaustive run (provable — a wholly
// non-viable NTD can never be part of an accepted tree), and across this
// suite's pinned 60-graph ranking x bound sweep the BOUNDED runs agree
// exactly too (result sets, scores, stop reasons). On larger graphs a bounded stop can fire at a
// slightly different frontier point and swap results at the k-th boundary
// (docs/reachability.md, "Bounded stops"); that behavior is pinned
// bit-for-bit by scripts/workcount_check.sh --pruned, not here. The sweep
// runs the same 60 seeded random graphs the snapshot-reducibility oracle
// uses (10 seeds x 6 rounds), at k = 5 and exhaustively (k = 0).
//
// Also pinned here:
//   - SearchInverse (label-correcting iterators) with the prune returns the
//     same trees/values as without;
//   - the baseline snapshot Dijkstra's viability gate hides exactly the
//     nodes whose viability misses the snapshot and never changes the
//     distance of a node it keeps;
//   - reachability_prunes stays zero when the option is off.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/dijkstra_iterator.h"
#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/reachability_index.h"
#include "search/label_correcting_iterator.h"
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

/// The parts of a response the prune must leave untouched. Work counters
/// (pops, candidates, ntds_created, ...) legitimately shrink.
void ExpectSameResults(const SearchResponse& off, const SearchResponse& on,
                       const std::string& context) {
  EXPECT_EQ(off.stop_reason, on.stop_reason) << context;
  EXPECT_EQ(off.exhausted, on.exhausted) << context;
  EXPECT_EQ(off.truncated, on.truncated) << context;
  EXPECT_EQ(off.counters.results, on.counters.results) << context;
  ASSERT_EQ(off.results.size(), on.results.size()) << context;
  for (size_t i = 0; i < off.results.size(); ++i) {
    EXPECT_EQ(off.results[i].score, on.results[i].score)
        << context << " result " << i;
    EXPECT_EQ(off.results[i].Signature(), on.results[i].Signature())
        << context << " result " << i;
    EXPECT_EQ(off.results[i].time.ToString(), on.results[i].time.ToString())
        << context << " result " << i;
  }
}

class ReachabilityPruneDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

// The satellite soundness gate: on 60 random graphs (same seed protocol as
// snapshot_reducibility_test: 10 seeds x 6 rounds), the pruned run must
// reproduce the unpruned run exactly — at k = 5 with every bound kind, at
// k = 0 (exhaustion path).
TEST_P(ReachabilityPruneDifferentialTest, PruneOnMatchesPruneOffExactly) {
  static constexpr RankFactor kFactors[] = {
      RankFactor::kRelevance, RankFactor::kEndTimeDesc,
      RankFactor::kStartTimeAsc, RankFactor::kDurationDesc};
  static constexpr UpperBoundKind kBounds[] = {UpperBoundKind::kEmpirical,
                                               UpperBoundKind::kAccurate,
                                               UpperBoundKind::kAverage};
  Rng rng(GetParam());
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
      SearchOptions off;
      off.k = k;
      off.bound = kBounds[round % 3];
      SearchOptions on = off;
      on.reachability_prune = true;

      auto r_off = engine.SearchWithMatches(q, matches, off);
      auto r_on = engine.SearchWithMatches(q, matches, on);
      ASSERT_TRUE(r_off.ok()) << context;
      ASSERT_TRUE(r_on.ok()) << context;
      const std::string kc = context + " k=" + std::to_string(k);
      ExpectSameResults(*r_off, *r_on, kc);
      ExpectResultsRespectReachability(g, *r_on, kc);
      EXPECT_EQ(r_off->counters.reachability_prunes, 0) << kc;
      EXPECT_GE(r_on->counters.reachability_prunes, 0) << kc;
    }
  }
}

// 10 seeds x 6 rounds = 60 random graphs, mirroring the
// snapshot-reducibility suite's protocol.
INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityPruneDifferentialTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

// The prune must actually fire somewhere across a sweep — otherwise the
// differential suite is vacuous. Checked in aggregate (not per graph; a
// dense small graph can be fully viable).
TEST(ReachabilityPruneTest, PruneFiresSomewhereAcrossSweep) {
  Rng rng(4242);
  int64_t total_prunes = 0;
  for (int round = 0; round < 12; ++round) {
    const TemporalGraph g = RandomGraph(&rng, 14, 20, 8);
    const std::vector<std::vector<NodeId>> matches = {
        RandomMatches(&rng, g, 3), RandomMatches(&rng, g, 3),
        RandomMatches(&rng, g, 3)};
    Query q;
    q.keywords = {"a", "b", "c"};
    const SearchEngine engine(g);
    SearchOptions on;
    on.k = 0;
    on.reachability_prune = true;
    auto r = engine.SearchWithMatches(q, matches, on);
    ASSERT_TRUE(r.ok());
    total_prunes += r->counters.reachability_prunes;
  }
  EXPECT_GT(total_prunes, 0);
}

// SearchInverse (label-correcting iterators over the three non-monotone
// ranking directions) must also return identical trees with the prune on.
TEST(ReachabilityPruneTest, InverseSearchMatchesUnpruned) {
  static constexpr InverseRankFactor kInverse[] = {
      InverseRankFactor::kEndTimeAsc, InverseRankFactor::kStartTimeDesc,
      InverseRankFactor::kDurationAsc};
  Rng rng(987);
  for (int round = 0; round < 9; ++round) {
    const TemporalGraph g = RandomGraph(&rng, 10, 20, 6);
    const std::vector<std::vector<NodeId>> matches = {
        RandomMatches(&rng, g, 2), RandomMatches(&rng, g, 2)};
    const InverseRankFactor factor = kInverse[round % 3];
    const auto off = SearchInverse(g, matches, factor, 0, 200000, false);
    const auto on = SearchInverse(g, matches, factor, 0, 200000, true);
    ASSERT_EQ(off.size(), on.size()) << "round " << round;
    for (size_t i = 0; i < off.size(); ++i) {
      EXPECT_EQ(off[i].value, on[i].value) << "round " << round;
      EXPECT_EQ(off[i].root, on[i].root) << "round " << round;
      EXPECT_EQ(off[i].nodes, on[i].nodes) << "round " << round;
      EXPECT_EQ(off[i].edges, on[i].edges) << "round " << round;
      EXPECT_EQ(off[i].time.ToString(), on[i].time.ToString())
          << "round " << round;
    }
  }
}

// Baseline snapshot Dijkstra: a viability gate hides exactly the nodes
// whose viability misses the snapshot instant; nodes it keeps settle at
// the same distance as without the gate.
TEST(ReachabilityPruneTest, DijkstraViabilityGateIsConsistent) {
  Rng rng(1212);
  for (int round = 0; round < 6; ++round) {
    const TemporalGraph g = RandomGraph(&rng, 12, 26, 8);
    const std::vector<std::vector<NodeId>> matches = {
        RandomMatches(&rng, g, 3), RandomMatches(&rng, g, 3)};
    std::vector<IntervalSet> viability;
    g.reachability().ComputeViability(matches, &viability);
    const NodeId source = matches[0][0];
    for (TimePoint t = 0; t < g.timeline_length(); t += 3) {
      baseline::DijkstraIterator plain(g, source, t);
      baseline::DijkstraIterator gated(g, source, t, &viability);
      while (plain.Next() != graph::kInvalidNode) {
      }
      while (gated.Next() != graph::kInvalidNode) {
      }
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        const auto gd = gated.DistanceTo(n);
        if (!gd.has_value()) continue;
        // Every gated settle is viable at t and agrees with the plain run.
        EXPECT_TRUE(viability[static_cast<size_t>(n)].Contains(t))
            << "node " << n << " at t=" << t;
        const auto pd = plain.DistanceTo(n);
        ASSERT_TRUE(pd.has_value()) << "node " << n << " at t=" << t;
        EXPECT_EQ(*pd, *gd) << "node " << n << " at t=" << t;
      }
      EXPECT_GE(plain.nodes_settled(), gated.nodes_settled());
      EXPECT_EQ(plain.reachability_prunes(), 0);
    }
  }
}

}  // namespace
}  // namespace tgks::search
