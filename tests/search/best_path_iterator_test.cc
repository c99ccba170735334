#include "search/best_path_iterator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/delta_overlay.h"
#include "graph/graph_view.h"
#include "graph/graph_builder.h"
#include "search/search_engine.h"
#include "testutil/paper_graphs.h"
#include "testutil/pop_recorder.h"

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
  testutil::PopRecorder pops(&iter);
  pops.Drain();
  // Mary is reached (via Bob chains), never with an empty time.
  const auto at_mary = pops.At(ids.mary);
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
  testutil::PopRecorder pops(&iter);
  pops.Drain();
  // At n, both windows survive (neither subsumes the other).
  int64_t best_duration_at_n2 = 0;
  for (const NtdId id : pops.At(n2)) {
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
  testutil::PopRecorder pops(&iter);
  pops.Drain();
  EXPECT_GE(iter.stats().subsumption_skips, 1);
  // Only one NTD survives at mid (the [0,9] one subsumes [2,4]).
  EXPECT_EQ(pops.At(mid).size(), 1u);
  EXPECT_EQ(pops.At(far).size(), 1u);
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
  testutil::PopRecorder pops(&iter);
  pops.Drain();
  EXPECT_TRUE(pops.At(ids.bob).empty());
  // Mary could only be reached via Microsoft, where the path validity is
  // [5,7] ∩ [0,2] = empty, so Mary stays unreached.
  EXPECT_TRUE(pops.At(ids.mary).empty());
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

// ---------------------------------------------------------------------------
// Tie order. Under pure relevance a frontier creates children lazily
// (docs/algorithms.md, "Lazy successor generation"), and its pops must be
// exactly those of eager expansion, where equal scores go to the NTD created
// first. The expected sequences below are literals recorded from the eager
// iterator; each pop renders as "label:dist:time<edge" (edge -1 at the
// source).

std::string RenderPop(graph::GraphView g, const BestPathIterator& iter,
                      NtdId id) {
  const Ntd& ntd = iter.ntd(id);
  const graph::Node& node = g.node(ntd.node);
  std::ostringstream out;
  out << node.label << ":" << ntd.dist << ":"
      << iter.TimeOf(id).ToString() << "<" << ntd.via_edge;
  return out.str();
}

/// Drains `iter`, which runs over `g`, and renders its pops.
std::string PopSequence(graph::GraphView g, BestPathIterator* iter) {
  std::string seq;
  for (NtdId id = iter->Next(); id != kInvalidNtd; id = iter->Next()) {
    if (!seq.empty()) seq += " ";
    seq += RenderPop(g, *iter, id);
  }
  return seq;
}

// a pops before b (smaller slot at s), so a's child x beats b's child y on
// the tie at distance 2 even though y sits in a smaller slot of its parent
// than x does: the tie order is the parent's pop order first, the slot
// second.
TEST(BestPathIteratorTieOrderTest, LaterParentsLowerSlotLosesTheTie) {
  GraphBuilder b(4);
  const NodeId s = b.AddNode("s");
  const NodeId a = b.AddNode("a");
  const NodeId bb = b.AddNode("b");
  const NodeId p = b.AddNode("p");
  const NodeId x = b.AddNode("x");
  const NodeId y = b.AddNode("y");
  b.AddEdge(a, s);
  b.AddEdge(bb, s);
  b.AddEdge(p, a);
  b.AddEdge(x, a);
  b.AddEdge(y, bb);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  BestPathIterator iter(*g, s, {});
  EXPECT_EQ(PopSequence(*g, &iter),
            "s:0:{[0,3]}<-1 a:1:{[0,3]}<0 b:1:{[0,3]}<1 p:2:{[0,3]}<2 "
            "x:2:{[0,3]}<3 y:2:{[0,3]}<4");
}

// Increments differ per slot (edge weight plus the neighbor's weight), and
// equal sums still tie by slot: 0.5 + 0.5 at a ties 1 + 0 at b and d.
TEST(BestPathIteratorTieOrderTest, MixedIncrementsPopByDistanceThenSlot) {
  GraphBuilder b(6);
  const NodeId s = b.AddNode("s");
  const NodeId c = b.AddNode("c");
  const NodeId a = b.AddNode("a", IntervalSet{{0, 5}}, 0.5);
  const NodeId bb = b.AddNode("b");
  const NodeId d = b.AddNode("d", IntervalSet{{2, 5}});
  const NodeId e = b.AddNode("e", IntervalSet{{0, 5}}, 2.0);
  b.AddEdge(c, s, IntervalSet{{0, 5}}, 2.0);
  b.AddEdge(a, s, IntervalSet{{0, 5}}, 0.5);
  b.AddEdge(bb, s, IntervalSet{{0, 3}}, 1.0);
  b.AddEdge(d, s, IntervalSet{{2, 5}}, 1.0);
  b.AddEdge(e, a, IntervalSet{{0, 5}}, 0.0);
  b.AddEdge(c, bb, IntervalSet{{0, 3}}, 0.5);
  b.AddEdge(e, d, IntervalSet{{4, 5}}, 0.25);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  BestPathIterator iter(*g, s, {});
  EXPECT_EQ(PopSequence(*g, &iter),
            "s:0:{[0,5]}<-1 a:1:{[0,5]}<1 b:1:{[0,3]}<2 d:1:{[2,5]}<3 "
            "c:1.5:{[0,3]}<5 c:2:{[0,5]}<0 e:3:{[0,5]}<4");
}

// s's in-slots share one increment, so one queue entry walks them all. The
// second, parallel m -> s edge comes up after the first m child has popped
// and claimed all of m's instants: it is skipped without creating an NTD,
// where eager expansion pushed it and later discarded it as a useless pop.
TEST(BestPathIteratorTieOrderTest, ClaimedChildInAUniformRunIsNeverCreated) {
  GraphBuilder b(5);
  const NodeId s = b.AddNode("s");
  const NodeId a = b.AddNode("a");
  const NodeId m = b.AddNode("m");
  const NodeId bb = b.AddNode("b");
  b.AddEdge(a, s);
  b.AddEdge(m, s);
  b.AddEdge(m, s);
  b.AddEdge(bb, s);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->expansion_view().layout_stats().uniform_in_nodes,
            g->num_nodes());
  BestPathIterator iter(*g, s, {});
  EXPECT_EQ(PopSequence(*g, &iter),
            "s:0:{[0,4]}<-1 a:1:{[0,4]}<0 m:1:{[0,4]}<1 b:1:{[0,4]}<3");
  EXPECT_EQ(iter.num_ntds(), 4);
  EXPECT_EQ(iter.stats().ntds_popped, 4);
  EXPECT_EQ(iter.stats().useless_pops, 0);
  EXPECT_EQ(iter.stats().edges_scanned, 4);
}

// A base node that gained a delta in-edge expands per slot: its base run
// and then its delta run, each child at its own exact score.
TEST(BestPathIteratorTieOrderTest, BaseNodeWithADeltaInEdge) {
  GraphBuilder b(4);
  const NodeId s = b.AddNode("s");
  const NodeId a = b.AddNode("a");
  const NodeId bb = b.AddNode("b");
  const NodeId far = b.AddNode("far");
  b.AddEdge(a, s);
  b.AddEdge(bb, s);
  b.AddEdge(far, bb);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const IntervalSet all{{0, 3}};
  std::vector<graph::Node> nodes = {{"c", 0.0, all}, {"d", 0.0, all}};
  const NodeId c = g->num_nodes();
  const NodeId d = c + 1;
  std::vector<graph::Edge> edges = {{c, s, 1.0, all},
                                    {d, s, 0.5, IntervalSet{{1, 3}}},
                                    {c, a, 1.0, IntervalSet{{0, 1}}}};
  const auto overlay =
      graph::DeltaOverlay::Extend(*g, nullptr, std::move(nodes),
                                  std::move(edges));
  const graph::GraphView view(*g, overlay.get());
  BestPathIterator iter(view, s, BestPathIterator::Options{});
  EXPECT_EQ(PopSequence(view, &iter),
            "s:0:{[0,3]}<-1 d:0.5:{[1,3]}<4 a:1:{[0,3]}<0 b:1:{[0,3]}<1 "
            "c:1:{[0,3]}<3 far:2:{[0,3]}<2");
}

// A max_pops stop in the middle of a uniform run: the engine stops after
// three pops, and the source has scanned only the slots it needed to
// settle on its next pop (one per pop), not all ten.
TEST(BestPathIteratorTieOrderTest, MaxPopsStopLeavesTheRestOfTheRunUnscanned) {
  GraphBuilder b(3);
  const NodeId hub = b.AddNode("hub");
  for (int i = 0; i < 10; ++i) {
    b.AddEdge(b.AddNode("n" + std::to_string(i)), hub);
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const SearchEngine engine(*g);
  Query query;
  query.keywords = {"hub"};
  SearchOptions options;
  options.k = 0;
  options.max_pops = 3;
  struct Recorder {
    const TemporalGraph* g;
    std::string seq;
  } recorder{&g.value(), ""};
  options.pop_ctx = &recorder;
  options.pop_fn = [](void* ctx, size_t, const BestPathIterator& frontier,
                      NtdId popped) {
    auto* r = static_cast<Recorder*>(ctx);
    if (!r->seq.empty()) r->seq += " ";
    r->seq += RenderPop(*r->g, frontier, popped);
  };
  const auto r = engine.SearchWithMatches(query, {{hub}}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stop_reason, StopReason::kMaxPops);
  EXPECT_EQ(recorder.seq, "hub:0:{[0,2]}<-1 n0:1:{[0,2]}<0 n1:1:{[0,2]}<1");
  EXPECT_EQ(r->counters.pops, 3);
  EXPECT_EQ(r->counters.edges_scanned, 3);
  EXPECT_EQ(r->counters.ntds_created, 4);
  EXPECT_EQ(r->counters.useless_pops, 0);
}

}  // namespace
}  // namespace tgks::search
