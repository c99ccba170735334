// Differential oracle for Theorem 3.2 (snapshot reducibility).
//
// The theorem: the temporal best path iterator's merged output equals
// running (ranking-appropriate) Dijkstra on every snapshot and merging
// duplicate paths. This suite checks the relevance instantiation — where
// the per-snapshot oracle is plain shortest-path Dijkstra — exhaustively on
// >= 50 seeded random graphs:
//
//   1. Per (node, instant): the minimum distance over popped NTDs whose
//      time-set contains the instant equals the snapshot Dijkstra distance;
//      both absent means unreachable at that instant.
//   2. Per node: the union of popped NTD time-sets equals the exact set of
//      instants at which snapshot Dijkstra reaches the node.
//   3. Per popped NTD: its parent-chain path is valid throughout its
//      time-set, and the path's weight sum reproduces its distance.
//
// Integer-valued weights keep every distance an exact double, so all
// comparisons are == (no epsilon).

#include <algorithm>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "baseline/dijkstra_iterator.h"
#include "common/random.h"
#include "graph/graph_builder.h"
#include "search/best_path_iterator.h"
#include "testutil/pop_recorder.h"

namespace tgks {
namespace {

using graph::EdgeId;
using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;
using temporal::TimePoint;

/// Random graph with integer node/edge weights (exact double arithmetic).
TemporalGraph RandomIntegerGraph(Rng* rng, int num_nodes, int num_edges,
                                 TimePoint horizon) {
  while (true) {
    GraphBuilder b(horizon, graph::ValidityPolicy::kClamp);
    for (int i = 0; i < num_nodes; ++i) {
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      b.AddNode("n" + std::to_string(i),
                IntervalSet{{std::min(a, c), std::max(a, c)}},
                static_cast<double>(rng->Uniform(4)));
    }
    int added = 0;
    for (int i = 0; i < num_edges * 3 && added < num_edges; ++i) {
      const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
      const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
      if (u == v) continue;
      const double w = static_cast<double>(1 + rng->Uniform(4));
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}}, w);
      ++added;
    }
    auto g = b.Build();
    if (g.ok()) return std::move(g).value();
    // Clamp policy rejects never-valid edges; resample.
  }
}

/// Weight of the forward path encoded by `edges` ending at `source`,
/// starting from `leaf`: every node on the path plus every edge.
double PathWeight(const TemporalGraph& g, NodeId leaf,
                  const std::vector<EdgeId>& edges) {
  double total = g.node(leaf).weight;
  NodeId cur = leaf;
  for (const EdgeId e : edges) {
    const graph::Edge& edge = g.edge(e);
    EXPECT_EQ(edge.src, cur) << "path edges out of order";
    total += edge.weight + g.node(edge.dst).weight;
    cur = edge.dst;
  }
  return total;
}

void CheckSnapshotReducibility(const TemporalGraph& g, NodeId source,
                               const std::string& context) {
  search::BestPathIterator::Options options;  // Pure relevance ranking.
  search::BestPathIterator iter(g, source, options);
  testutil::PopRecorder pops(&iter);
  pops.Drain();

  // Oracle: exhaustive per-snapshot Dijkstra from the same source.
  std::vector<baseline::DijkstraIterator> snapshots;
  snapshots.reserve(static_cast<size_t>(g.timeline_length()));
  for (TimePoint t = 0; t < g.timeline_length(); ++t) {
    snapshots.emplace_back(g, source, t);
    while (snapshots.back().Next() != graph::kInvalidNode) {
    }
  }

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    IntervalSet covered;  // Union of popped NTD time-sets at n.
    for (const search::NtdId id : pops.At(n)) {
      const search::Ntd& ntd = iter.ntd(id);
      const IntervalSet time = iter.TimeOf(id);
      ASSERT_EQ(ntd.node, n);
      ASSERT_FALSE(time.IsEmpty()) << context;
      covered = covered.Union(time);

      // Check 3: the parent-chain path is valid throughout the NTD's time
      // and reproduces the distance exactly.
      const std::vector<EdgeId> path = iter.PathEdges(id);
      EXPECT_TRUE(g.node(n).validity.Subsumes(time)) << context;
      for (const EdgeId e : path) {
        EXPECT_TRUE(g.edge(e).validity.Subsumes(time))
            << context << " node " << n << ": edge " << e
            << " not valid over " << time.ToString();
      }
      EXPECT_EQ(PathWeight(g, n, path), ntd.dist)
          << context << " node " << n << " ntd " << id;
    }

    for (TimePoint t = 0; t < g.timeline_length(); ++t) {
      // Check 1: per-instant minimum distance equals snapshot Dijkstra.
      std::optional<double> temporal_best;
      for (const search::NtdId id : pops.At(n)) {
        const search::Ntd& ntd = iter.ntd(id);
        if (!iter.TimeOf(id).Contains(t)) continue;
        if (!temporal_best.has_value() || ntd.dist < *temporal_best) {
          temporal_best = ntd.dist;
        }
      }
      const std::optional<double> oracle =
          snapshots[static_cast<size_t>(t)].DistanceTo(n);
      ASSERT_EQ(temporal_best.has_value(), oracle.has_value())
          << context << " node " << n << " instant " << t
          << ": reachability disagrees (temporal "
          << (temporal_best.has_value() ? "reaches" : "misses")
          << ", snapshot Dijkstra "
          << (oracle.has_value() ? "reaches" : "misses") << ")";
      if (oracle.has_value()) {
        EXPECT_EQ(*temporal_best, *oracle)
            << context << " node " << n << " instant " << t;
      }

      // Check 2 (one direction; the other follows from check 1): every
      // instant claimed by a popped NTD is snapshot-reachable.
      if (covered.Contains(t)) {
        EXPECT_TRUE(oracle.has_value())
            << context << " node " << n << " instant " << t
            << ": popped NTD claims an unreachable instant";
      }
    }
  }
}

class SnapshotReducibilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotReducibilityTest, MergedOutputEqualsPerSnapshotDijkstra) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const TimePoint horizon = 4 + static_cast<TimePoint>(rng.Uniform(5));
    const int num_nodes = 8 + static_cast<int>(rng.Uniform(8));
    const int num_edges = 2 * num_nodes + static_cast<int>(rng.Uniform(10));
    const TemporalGraph g =
        RandomIntegerGraph(&rng, num_nodes, num_edges, horizon);
    const NodeId source = static_cast<NodeId>(rng.Uniform(
        static_cast<uint64_t>(g.num_nodes())));
    const std::string context = "seed " + std::to_string(GetParam()) +
                                " round " + std::to_string(round) +
                                " source " + std::to_string(source);
    CheckSnapshotReducibility(g, source, context);
  }
}

// 10 seeds x 6 rounds = 60 random graphs.
INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotReducibilityTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

// A dense graph with every element valid everywhere must reduce to ONE
// snapshot's Dijkstra repeated: a direct sanity anchor for the harness.
TEST(SnapshotReducibilityAnchorTest, AllValidGraphMatchesEveryInstant) {
  Rng rng(4242);
  GraphBuilder b(5, graph::ValidityPolicy::kClamp);
  for (int i = 0; i < 10; ++i) {
    b.AddNode("n" + std::to_string(i), IntervalSet{{0, 4}},
              static_cast<double>(rng.Uniform(3)));
  }
  for (int i = 0; i < 24; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(10));
    const NodeId v = static_cast<NodeId>(rng.Uniform(10));
    if (u == v) continue;
    b.AddEdge(u, v, IntervalSet{{0, 4}},
              static_cast<double>(1 + rng.Uniform(3)));
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  CheckSnapshotReducibility(*g, /*source=*/0, "all-valid anchor");
}

}  // namespace
}  // namespace tgks
