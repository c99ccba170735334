#include "search/best_path_iterator.h"

#include <algorithm>
#include <map>
#include <optional>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
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
// Brute-force oracle: enumerate every simple backward path from the source
// and record, per (node, instant), the best achievable value of each factor.

struct PathFacts {
  double dist;
  IntervalSet time;
};

void EnumeratePaths(const TemporalGraph& g, NodeId node, double dist,
                    const IntervalSet& time, std::vector<bool>* on_path,
                    std::vector<PathFacts>* out_per_node_paths,
                    std::map<NodeId, std::vector<PathFacts>>* all) {
  (*all)[node].push_back({dist, time});
  (void)out_per_node_paths;
  for (const EdgeId e : g.InEdges(node)) {
    const NodeId next = g.edge(e).src;
    if ((*on_path)[static_cast<size_t>(next)]) continue;
    const IntervalSet narrowed = time.Intersect(g.edge(e).validity);
    if (narrowed.IsEmpty()) continue;
    (*on_path)[static_cast<size_t>(next)] = true;
    EnumeratePaths(g, next,
                   dist + g.edge(e).weight + g.node(next).weight, narrowed,
                   on_path, out_per_node_paths, all);
    (*on_path)[static_cast<size_t>(next)] = false;
  }
}

std::map<NodeId, std::vector<PathFacts>> AllSimplePaths(const TemporalGraph& g,
                                                        NodeId source) {
  std::map<NodeId, std::vector<PathFacts>> all;
  if (g.node(source).validity.IsEmpty()) return all;
  std::vector<bool> on_path(static_cast<size_t>(g.num_nodes()), false);
  on_path[static_cast<size_t>(source)] = true;
  EnumeratePaths(g, source, g.node(source).weight, g.node(source).validity,
                 &on_path, nullptr, &all);
  return all;
}

double FactorValue(RankFactor factor, const PathFacts& p) {
  switch (factor) {
    case RankFactor::kRelevance:
      return -p.dist;
    case RankFactor::kEndTimeDesc:
      return p.time.End();
    case RankFactor::kStartTimeAsc:
      return -p.time.Start();
    case RankFactor::kDurationDesc:
      return static_cast<double>(p.time.Duration());
  }
  return 0;
}

/// Best factor value over all paths source -> node valid at instant t;
/// nullopt when unreachable at t.
std::optional<double> OracleBest(
    const std::map<NodeId, std::vector<PathFacts>>& paths, NodeId node,
    TimePoint t, RankFactor factor) {
  const auto it = paths.find(node);
  if (it == paths.end()) return std::nullopt;
  std::optional<double> best;
  for (const PathFacts& p : it->second) {
    if (!p.time.Contains(t)) continue;
    const double v = FactorValue(factor, p);
    if (!best.has_value() || v > *best) best = v;
  }
  return best;
}

TemporalGraph RandomGraph(Rng* rng, int num_nodes, int num_edges,
                          TimePoint horizon) {
  GraphBuilder b(horizon, graph::ValidityPolicy::kClamp);
  for (int i = 0; i < num_nodes; ++i) {
    // Node validity: one or two random intervals.
    std::vector<temporal::Interval> ivs;
    const int k = 1 + static_cast<int>(rng->Uniform(2));
    for (int j = 0; j < k; ++j) {
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      ivs.emplace_back(std::min(a, c), std::max(a, c));
    }
    b.AddNode("n" + std::to_string(i), IntervalSet(std::move(ivs)),
              /*weight=*/0.0);
  }
  for (int i = 0; i < num_edges; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
    const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
    if (u == v) continue;
    const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
    const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
    const double w = 1.0 + static_cast<double>(rng->Uniform(3));
    b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}}, w);
  }
  // Clamp policy may still reject never-valid edges; rebuild without them by
  // retrying with a different seed is overkill — instead accept failures by
  // filtering: builder rejects, so construct leniently here.
  auto built = b.Build();
  if (built.ok()) return std::move(built).value();
  // Retry with no edges at all (degenerate but still exercises sources).
  GraphBuilder fallback(horizon);
  for (int i = 0; i < num_nodes; ++i) fallback.AddNode("n" + std::to_string(i));
  auto g = fallback.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// The snapshot-reducibility property test (Propositions 3.1 and 3.2,
// §3.3): for every node and instant, the iterator's claimed/recorded best
// matches the brute-force best over all simple paths.
class IteratorOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, RankFactor>> {};

TEST_P(IteratorOracleTest, MatchesBruteForceOnRandomGraphs) {
  const auto [seed, factor] = GetParam();
  Rng rng(seed);
  for (int round = 0; round < 8; ++round) {
    const TimePoint horizon = 4 + static_cast<TimePoint>(rng.Uniform(6));
    const TemporalGraph g =
        RandomGraph(&rng, 7, 16 + static_cast<int>(rng.Uniform(8)), horizon);
    for (NodeId source = 0; source < g.num_nodes(); ++source) {
      const auto oracle = AllSimplePaths(g, source);
      BestPathIterator::Options options;
      options.ranking.factors = {factor};
      BestPathIterator iter(g, source, options);
      // Drain the iterator; replay claims in pop order.
      std::map<NodeId, std::map<TimePoint, double>> claimed;
      std::map<NodeId, std::map<TimePoint, double>> best_popped;
      for (NtdId id = iter.Next(); id != kInvalidNtd; id = iter.Next()) {
        const Ntd& ntd = iter.ntd(id);
        const double value =
            FactorValue(factor, PathFacts{ntd.dist, iter.TimeOf(id)});
        for (const TimePoint t : iter.TimeOf(id).Instants()) {
          claimed[ntd.node].emplace(t, value);  // First pop wins.
          const auto [cell, inserted] = best_popped[ntd.node].emplace(t, value);
          if (!inserted) cell->second = std::max(cell->second, value);
        }
      }
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        for (TimePoint t = 0; t < horizon; ++t) {
          const auto expect = OracleBest(oracle, n, t, factor);
          if (factor == RankFactor::kDurationDesc) {
            // Subsumption semantics: the best popped NTD covering (n, t)
            // achieves the oracle duration.
            const auto it_n = best_popped.find(n);
            const bool covered =
                it_n != best_popped.end() && it_n->second.count(t) > 0;
            ASSERT_EQ(covered, expect.has_value())
                << "node " << n << " t " << t << " seed " << seed;
            if (covered) {
              EXPECT_EQ(it_n->second.at(t), *expect)
                  << "node " << n << " t " << t << " seed " << seed;
            }
          } else {
            // Partition semantics: the claimant of (n, t) is the best.
            const auto it_n = claimed.find(n);
            const bool covered =
                it_n != claimed.end() && it_n->second.count(t) > 0;
            ASSERT_EQ(covered, expect.has_value())
                << "node " << n << " t " << t << " seed " << seed;
            if (covered) {
              EXPECT_EQ(it_n->second.at(t), *expect)
                  << "node " << n << " t " << t << " seed " << seed
                  << " factor " << RankFactorName(factor);
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndFactors, IteratorOracleTest,
    ::testing::Combine(::testing::Values(11, 22, 33),
                       ::testing::Values(RankFactor::kRelevance,
                                         RankFactor::kEndTimeDesc,
                                         RankFactor::kStartTimeAsc,
                                         RankFactor::kDurationDesc)),
    [](const auto& info) {
      std::string name = "Seed" + std::to_string(std::get<0>(info.param)) +
                         "_" +
                         std::string(RankFactorName(std::get<1>(info.param)));
      std::erase_if(name, [](char c) { return !std::isalnum(
                                           static_cast<unsigned char>(c)) &&
                                       c != '_'; });
      return name;
    });

// ---------------------------------------------------------------------------
// Directed scenario tests.

TEST(BestPathIteratorTest, SingleNodeGraph) {
  GraphBuilder b(5);
  b.AddNode("only", IntervalSet{{1, 3}});
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  BestPathIterator iter(*g, 0, {});
  const NtdId first = iter.Next();
  ASSERT_NE(first, kInvalidNtd);
  EXPECT_EQ(iter.ntd(first).node, 0);
  EXPECT_EQ(iter.TimeOf(first), (IntervalSet{{1, 3}}));
  EXPECT_DOUBLE_EQ(iter.ntd(first).dist, 0.0);
  EXPECT_EQ(iter.Next(), kInvalidNtd);
  EXPECT_EQ(iter.PeekScore(), nullptr);
}

TEST(BestPathIteratorTest, TimeIncompatiblePathNotReported) {
  // Intro example: the Mary-Microsoft-John "path" never coexists; the valid
  // connections run through Bob.
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  BestPathIterator iter(g, ids.john, {});
  while (iter.Next() != kInvalidNtd) {
  }
  // Mary is reached (via Bob chains), never with an empty time.
  const auto at_mary = iter.PoppedAt(ids.mary);
  ASSERT_FALSE(at_mary.empty());
  for (const NtdId id : at_mary) {
    EXPECT_FALSE(iter.TimeOf(id).IsEmpty());
    // Reconstruct the path and check it never routes through Microsoft
    // alone (the invalid shortcut): every reported path has a valid time.
    IntervalSet along = g.node(ids.mary).validity;
    for (const EdgeId e : iter.PathEdges(id)) {
      along = along.Intersect(g.edge(e).validity);
    }
    EXPECT_EQ(along, iter.TimeOf(id));
  }
}

TEST(BestPathIteratorTest, ShortestPathDiffersAcrossInstants) {
  // Mary-John: distance 3 at t6/t7 (via Bob-Ross), 4 at t4 (via Mike-Jim).
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  BestPathIterator iter(g, ids.john, {});
  std::map<TimePoint, double> best_at;
  for (NtdId id = iter.Next(); id != kInvalidNtd; id = iter.Next()) {
    const Ntd& ntd = iter.ntd(id);
    if (ntd.node != ids.mary) continue;
    for (const TimePoint t : iter.TimeOf(id).Instants()) {
      best_at.emplace(t, ntd.dist);
    }
  }
  ASSERT_TRUE(best_at.count(4));
  ASSERT_TRUE(best_at.count(6));
  ASSERT_TRUE(best_at.count(7));
  EXPECT_DOUBLE_EQ(best_at[4], 4.0);
  EXPECT_DOUBLE_EQ(best_at[6], 3.0);
  EXPECT_DOUBLE_EQ(best_at[7], 3.0);
  EXPECT_FALSE(best_at.count(0));
  EXPECT_FALSE(best_at.count(5));
}

TEST(BestPathIteratorTest, PathEdgesReconstructsForwardPath) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  BestPathIterator iter(g, ids.john, {});
  for (NtdId id = iter.Next(); id != kInvalidNtd; id = iter.Next()) {
    const Ntd& ntd = iter.ntd(id);
    const auto edges = iter.PathEdges(id);
    // Walking the edges from ntd.node must land on the source.
    NodeId cur = ntd.node;
    for (const EdgeId e : edges) {
      EXPECT_EQ(g.edge(e).src, cur);
      cur = g.edge(e).dst;
    }
    EXPECT_EQ(cur, ids.john);
    EXPECT_EQ(edges.size(), static_cast<size_t>(ntd.dist));  // Unit weights.
  }
}

TEST(BestPathIteratorTest, EndTimeRankingPopsLatestFirst) {
  // Example 3.2's shape: pops must come in non-increasing end-time order.
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  BestPathIterator::Options options;
  options.ranking.factors = {RankFactor::kEndTimeDesc};
  BestPathIterator iter(g, ids.mary, options);
  TimePoint last_end = g.timeline_length();
  for (NtdId id = iter.Next(); id != kInvalidNtd; id = iter.Next()) {
    const TimePoint end = iter.TimeOf(id).End();
    EXPECT_LE(end, last_end);
    last_end = end;
  }
}

TEST(BestPathIteratorTest, RelevancePopsInNondecreasingDistance) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  BestPathIterator iter(g, ids.mary, {});
  double last = 0;
  for (NtdId id = iter.Next(); id != kInvalidNtd; id = iter.Next()) {
    EXPECT_GE(iter.ntd(id).dist, last);
    last = iter.ntd(id).dist;
  }
}

TEST(BestPathIteratorTest, DurationExample33KeepsOverlappingNtds) {
  // Example 3.3: p1 valid t0-t9 (dist d1), p2 valid t5-t14 (longer reach).
  // When ranking by duration both NTDs must be kept at the join node so the
  // extension to n' (valid t3-t14) can find the t5-t14 window.
  GraphBuilder b(15);
  const NodeId s = b.AddNode("s", IntervalSet{{0, 14}});
  const NodeId a = b.AddNode("a", IntervalSet{{0, 9}});
  const NodeId c = b.AddNode("c", IntervalSet{{5, 14}});
  const NodeId n = b.AddNode("n", IntervalSet{{0, 14}});
  const NodeId n2 = b.AddNode("nprime", IntervalSet{{3, 14}});
  // Backward traversal uses in-edges: build forward edges n' -> n -> {a,c} -> s.
  b.AddEdge(n2, n, IntervalSet{{3, 14}});
  b.AddEdge(n, a, IntervalSet{{0, 9}});
  b.AddEdge(n, c, IntervalSet{{5, 14}});
  b.AddEdge(a, s, IntervalSet{{0, 9}});
  b.AddEdge(c, s, IntervalSet{{5, 14}});
  auto g = b.Build();
  ASSERT_TRUE(g.ok()) << g.status();

  BestPathIterator::Options options;
  options.ranking.factors = {RankFactor::kDurationDesc};
  BestPathIterator iter(*g, s, options);
  while (iter.Next() != kInvalidNtd) {
  }
  // At n, both windows survive (neither subsumes the other).
  int64_t best_duration_at_n2 = 0;
  for (const NtdId id : iter.PoppedAt(n2)) {
    best_duration_at_n2 =
        std::max(best_duration_at_n2, iter.TimeOf(id).Duration());
  }
  // Longest duration at n' is t5-t14 via c: 10 instants.
  EXPECT_EQ(best_duration_at_n2, 10);
}

TEST(BestPathIteratorTest, DurationSubsumptionPrunesInferiorArrivals) {
  GraphBuilder b(10);
  const NodeId s = b.AddNode("s", IntervalSet{{0, 9}});
  const NodeId mid = b.AddNode("mid", IntervalSet{{0, 9}});
  const NodeId far = b.AddNode("far", IntervalSet{{0, 9}});
  b.AddEdge(mid, s, IntervalSet{{0, 9}});     // Big window first.
  b.AddEdge(mid, s, IntervalSet{{2, 4}});     // Subsumed parallel edge.
  b.AddEdge(far, mid, IntervalSet{{0, 9}});
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  BestPathIterator::Options options;
  options.ranking.factors = {RankFactor::kDurationDesc};
  BestPathIterator iter(*g, s, options);
  while (iter.Next() != kInvalidNtd) {
  }
  EXPECT_GE(iter.stats().subsumption_skips, 1);
  // Only one NTD survives at mid (the [0,9] one subsumes [2,4]).
  EXPECT_EQ(iter.PoppedAt(mid).size(), 1u);
  EXPECT_EQ(iter.PoppedAt(far).size(), 1u);
}

TEST(BestPathIteratorTest, PredicatePruneBlocksExpansion) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  // Only elements valid strictly before t2 may participate; Bob (t2+) is
  // pruned, so Mary cannot be reached from John at all.
  const auto pred = PredicateExpr::Atom(PredicateOp::kPrecedes, 2);
  BestPathIterator::Options options;
  options.prune = pred.get();
  BestPathIterator iter(g, ids.john, options);
  // John's validity starts at 0, so the source qualifies... but John's
  // validity is [0,7]: Start 0 < 2, qualifies. Bob joined at t2: pruned.
  while (iter.Next() != kInvalidNtd) {
  }
  EXPECT_TRUE(iter.PoppedAt(ids.bob).empty());
  EXPECT_TRUE(iter.PoppedAt(ids.mary).empty() ||
              !iter.PoppedAt(ids.mary).empty());  // Mary only via Microsoft.
  // Via Microsoft the path validity is [5,7] ∩ [0,2] = empty, so Mary stays
  // unreached.
  EXPECT_TRUE(iter.PoppedAt(ids.mary).empty());
}

TEST(BestPathIteratorTest, SourceFailingPredicateStartsExhausted) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  const auto pred = PredicateExpr::Atom(PredicateOp::kPrecedes, 2);
  BestPathIterator::Options options;
  options.prune = pred.get();
  // Ross exists only from t5: cannot precede t2.
  BestPathIterator iter(g, ids.ross, options);
  EXPECT_EQ(iter.PeekScore(), nullptr);
  EXPECT_EQ(iter.Next(), kInvalidNtd);
}

TEST(BestPathIteratorTest, StatsAreConsistent) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  BestPathIterator iter(g, ids.mary, {});
  int64_t pops = 0;
  while (iter.Next() != kInvalidNtd) ++pops;
  const IteratorStats& s = iter.stats();
  EXPECT_EQ(s.ntds_popped, pops);
  EXPECT_EQ(s.ntds_pushed, iter.num_ntds());
  EXPECT_GE(s.ntds_pushed, s.ntds_popped);
  EXPECT_GT(s.nodes_reached, 0);
  EXPECT_LE(s.nodes_reached, g.num_nodes());
}

}  // namespace
}  // namespace tgks::search
