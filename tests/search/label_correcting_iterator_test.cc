#include "search/label_correcting_iterator.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "search/result_tree.h"
#include "testutil/paper_graphs.h"

namespace tgks::search {
namespace {

using graph::EdgeId;
using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;
using temporal::TimePoint;

// ---------------------------------------------------------------------------
// Exact oracle: BFS closure over (node, time-set) states. A state (n, T)
// is reachable iff some backward walk from the source reaches n with
// surviving validity exactly T. Finite because time-sets over a small
// timeline are finite. Completely independent of any dominance rule.

std::map<NodeId, std::map<std::string, IntervalSet>> ReachableStates(
    const TemporalGraph& g, NodeId source) {
  std::map<NodeId, std::map<std::string, IntervalSet>> seen;
  std::deque<std::pair<NodeId, IntervalSet>> frontier;
  const IntervalSet initial = g.node(source).validity;
  if (initial.IsEmpty()) return seen;
  seen[source].emplace(initial.ToString(), initial);
  frontier.push_back({source, initial});
  while (!frontier.empty()) {
    auto [node, time] = frontier.front();
    frontier.pop_front();
    for (const EdgeId e : g.InEdges(node)) {
      const NodeId next = g.edge(e).src;
      IntervalSet narrowed = time.Intersect(g.edge(e).validity);
      if (narrowed.IsEmpty()) continue;
      if (seen[next].emplace(narrowed.ToString(), narrowed).second) {
        frontier.push_back({next, std::move(narrowed)});
      }
    }
  }
  return seen;
}

std::optional<int32_t> OracleBest(
    const std::map<NodeId, std::map<std::string, IntervalSet>>& states,
    NodeId node, TimePoint t, InverseRankFactor factor) {
  const auto it = states.find(node);
  if (it == states.end()) return std::nullopt;
  std::optional<int32_t> best;
  for (const auto& [key, set] : it->second) {
    if (!set.Contains(t)) continue;
    const int32_t v = InverseValue(factor, set);
    if (!best.has_value() || v < *best) best = v;
  }
  return best;
}

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

class LabelCorrectingOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, InverseRankFactor>> {
};

TEST_P(LabelCorrectingOracleTest, MatchesStateSpaceOracle) {
  const auto [seed, factor] = GetParam();
  Rng rng(seed);
  for (int round = 0; round < 6; ++round) {
    const TimePoint horizon = 3 + static_cast<TimePoint>(rng.Uniform(4));
    const TemporalGraph g =
        RandomGraph(&rng, 6, 12 + static_cast<int>(rng.Uniform(6)), horizon);
    for (NodeId source = 0; source < g.num_nodes(); ++source) {
      const auto oracle = ReachableStates(g, source);
      LabelCorrectingIterator::Options options;
      options.factor = factor;
      LabelCorrectingIterator iter(g, source, options);
      EXPECT_TRUE(iter.Run());
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        for (TimePoint t = 0; t < horizon; ++t) {
          EXPECT_EQ(iter.BestAt(n, t), OracleBest(oracle, n, t, factor))
              << "node " << n << " t " << t << " source " << source
              << " seed " << seed << " "
              << InverseRankFactorName(factor);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LabelCorrectingOracleTest,
    ::testing::Combine(::testing::Values(51, 52),
                       ::testing::Values(InverseRankFactor::kEndTimeAsc,
                                         InverseRankFactor::kStartTimeDesc,
                                         InverseRankFactor::kDurationAsc)),
    [](const auto& info) {
      std::string name =
          "Seed" + std::to_string(std::get<0>(info.param)) + "_" +
          std::string(InverseRankFactorName(std::get<1>(info.param)));
      std::erase_if(name, [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c)) && c != '_';
      });
      return name;
    });

TEST(LabelCorrectingIteratorTest, WalkCanBeatSimplePathForShortestDuration) {
  // A loop lets the search shrink validity: the direct edge s<-a is valid
  // [0,9], but detouring a<-b<-a intersects down to [4,5] — the shortest
  // duration at node a for instants 4-5 uses the non-simple walk.
  GraphBuilder b(10);
  const NodeId s = b.AddNode("s", IntervalSet{{0, 9}});
  const NodeId a = b.AddNode("a", IntervalSet{{0, 9}});
  const NodeId c = b.AddNode("c", IntervalSet{{0, 9}});
  b.AddEdge(a, s, IntervalSet{{0, 9}});   // Backward step s -> a.
  b.AddEdge(c, a, IntervalSet{{4, 5}});   // a -> c (narrow).
  b.AddEdge(a, c, IntervalSet{{0, 9}});   // c -> a (back).
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  LabelCorrectingIterator::Options options;
  options.factor = InverseRankFactor::kDurationAsc;
  LabelCorrectingIterator iter(*g, s, options);
  ASSERT_TRUE(iter.Run());
  EXPECT_EQ(iter.BestAt(a, 4), std::optional<int32_t>(2));   // Via the loop.
  EXPECT_EQ(iter.BestAt(a, 0), std::optional<int32_t>(10));  // Direct only.
}

TEST(LabelCorrectingIteratorTest, MaxRelaxationsValve) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  LabelCorrectingIterator::Options options;
  options.factor = InverseRankFactor::kEndTimeAsc;
  options.max_relaxations = 1;
  LabelCorrectingIterator iter(g, ids.mary, options);
  EXPECT_FALSE(iter.Run());
  EXPECT_LE(iter.relaxations(), 1);
}

TEST(LabelCorrectingIteratorTest, PathEdgesWalkToSource) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  LabelCorrectingIterator::Options options;
  options.factor = InverseRankFactor::kEndTimeAsc;
  LabelCorrectingIterator iter(g, ids.john, options);
  ASSERT_TRUE(iter.Run());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (const NtdId id : iter.FragmentsAt(n)) {
      NodeId cur = n;
      IntervalSet along = g.node(n).validity;
      for (const EdgeId e : iter.PathEdges(id)) {
        EXPECT_EQ(g.edge(e).src, cur);
        along = along.Intersect(g.edge(e).validity);
        cur = g.edge(e).dst;
      }
      EXPECT_EQ(cur, ids.john);
      EXPECT_EQ(along, iter.FragmentTime(id));
    }
  }
}

// ---------------------------------------------------------------------------
// SearchInverse: tree-level checks.

TEST(SearchInverseTest, EarliestEndingConnectionFound) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  // Earliest-ending Mary-John connection: the Mike-Jim chain dies at t4,
  // well before the Ross chain (t7).
  const auto results = SearchInverse(
      g, {{ids.mary}, {ids.john}}, InverseRankFactor::kEndTimeAsc, 3);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].value, 4);
  EXPECT_TRUE(std::binary_search(results[0].nodes.begin(),
                                 results[0].nodes.end(), ids.mike));
}

TEST(SearchInverseTest, ShortestLivedConnection) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  const auto results = SearchInverse(
      g, {{ids.mary}, {ids.john}}, InverseRankFactor::kDurationAsc, 1);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].value, 1);  // The t4-only Mike tree.
}

TEST(SearchInverseTest, ResultsAreValidSortedAndDeduplicated) {
  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    const TemporalGraph g = RandomGraph(&rng, 10, 24, 6);
    std::vector<NodeId> m0, m1;
    for (const uint64_t v : rng.SampleWithoutReplacement(
             static_cast<uint64_t>(g.num_nodes()), 3)) {
      m0.push_back(static_cast<NodeId>(v));
    }
    for (const uint64_t v : rng.SampleWithoutReplacement(
             static_cast<uint64_t>(g.num_nodes()), 3)) {
      m1.push_back(static_cast<NodeId>(v));
    }
    for (const auto factor :
         {InverseRankFactor::kEndTimeAsc, InverseRankFactor::kStartTimeDesc,
          InverseRankFactor::kDurationAsc}) {
      const auto results = SearchInverse(g, {m0, m1}, factor, 0);
      std::set<std::pair<NodeId, std::vector<EdgeId>>> seen;
      for (size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        ASSERT_FALSE(r.time.IsEmpty());
        // Exact validity.
        IntervalSet time = g.node(r.root).validity;
        for (const NodeId n : r.nodes) time = time.Intersect(g.node(n).validity);
        for (const EdgeId e : r.edges) time = time.Intersect(g.edge(e).validity);
        EXPECT_EQ(time, r.time);
        EXPECT_EQ(r.value, InverseValue(factor, r.time));
        EXPECT_EQ(r.edges.size() + 1, r.nodes.size());
        if (i > 0) {
          EXPECT_LE(results[i - 1].value, r.value);
        }
        EXPECT_TRUE(seen.insert({r.root, r.edges}).second);
      }
    }
  }
}

TEST(SearchInverseTest, TopKTruncates) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  const auto all = SearchInverse(g, {{ids.mary}, {ids.john}},
                                 InverseRankFactor::kEndTimeAsc, 0);
  const auto top = SearchInverse(g, {{ids.mary}, {ids.john}},
                                 InverseRankFactor::kEndTimeAsc, 1);
  ASSERT_GE(all.size(), top.size());
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].value, all[0].value);
}

}  // namespace
}  // namespace tgks::search
