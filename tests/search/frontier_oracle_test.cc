// Differential oracle for the multi-source best path iterator.
//
// A keyword frontier over S sources must pop exactly the sequence that S
// one-source iterators over the same sources produce when merged by (next
// score, then smaller source index) — the merge the engine ran over
// per-match iterators before frontiers existed. On 60 seeded random graphs,
// across the four primary rankings (duration runs the subsumption
// semantics), with and without a predicate prune, and with and without a
// delta overlay, every pop is compared: node, time, dist, source and path
// edges, and the frontier's counters must equal the per-source counters
// summed (heap high water: their max) at every step. The trace events of
// both runs must match too: source i of a frontier traced as iterator id
// `trace_iter` records under id `trace_iter + i`, the id the one-source
// iterator over it carries.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/delta_overlay.h"
#include "graph/graph_view.h"
#include "graph/graph_builder.h"
#include "obs/query_trace.h"
#include "search/best_path_iterator.h"
#include "search/predicate.h"
#include "testutil/pop_recorder.h"

namespace tgks::search {
namespace {

using graph::DeltaOverlay;
using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;
using temporal::TimePoint;

constexpr int kGraphs = 60;
constexpr TimePoint kHorizon = 8;

IntervalSet RandomInterval(Rng* rng) {
  const TimePoint a = static_cast<TimePoint>(rng->Uniform(kHorizon));
  const TimePoint c = static_cast<TimePoint>(rng->Uniform(kHorizon));
  return IntervalSet{{std::min(a, c), std::max(a, c)}};
}

// Integer weights, so paths from different sources tie on score often and
// the (score, source index) tie-break is exercised.
TemporalGraph RandomGraph(Rng* rng) {
  while (true) {
    GraphBuilder b(kHorizon, graph::ValidityPolicy::kClamp);
    const int num_nodes = 6 + static_cast<int>(rng->Uniform(8));
    for (int i = 0; i < num_nodes; ++i) {
      b.AddNode("n" + std::to_string(i), RandomInterval(rng),
                static_cast<double>(rng->Uniform(2)));
    }
    const int num_edges = 2 * num_nodes + static_cast<int>(rng->Uniform(10));
    for (int i = 0; i < num_edges; ++i) {
      const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
      const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
      if (u == v) continue;
      b.AddEdge(u, v, RandomInterval(rng),
                static_cast<double>(1 + rng->Uniform(2)));
    }
    auto g = b.Build();
    if (g.ok()) return std::move(g).value();
  }
}

// A few delta nodes and delta edges among base and delta nodes, each edge
// clamped to its endpoints' common validity as ingest does.
std::shared_ptr<const DeltaOverlay> RandomOverlay(Rng* rng,
                                                  const TemporalGraph& base) {
  std::vector<graph::Node> nodes;
  const int num_new = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < num_new; ++i) {
    graph::Node node;
    node.label = "d" + std::to_string(i);
    node.weight = static_cast<double>(rng->Uniform(2));
    node.validity = RandomInterval(rng);
    nodes.push_back(std::move(node));
  }
  const NodeId total = base.num_nodes() + num_new;
  const auto validity = [&](NodeId n) -> const IntervalSet& {
    return n < base.num_nodes()
               ? base.node(n).validity
               : nodes[static_cast<size_t>(n - base.num_nodes())].validity;
  };
  std::vector<graph::Edge> edges;
  const int num_edges = 3 + static_cast<int>(rng->Uniform(6));
  for (int i = 0; i < num_edges; ++i) {
    graph::Edge e;
    e.src = static_cast<NodeId>(rng->Uniform(static_cast<uint64_t>(total)));
    e.dst = static_cast<NodeId>(rng->Uniform(static_cast<uint64_t>(total)));
    if (e.src == e.dst) continue;
    e.weight = static_cast<double>(1 + rng->Uniform(2));
    e.validity = RandomInterval(rng)
                     .Intersect(validity(e.src))
                     .Intersect(validity(e.dst));
    if (e.validity.IsEmpty()) continue;
    edges.push_back(std::move(e));
  }
  return DeltaOverlay::Extend(base, nullptr, std::move(nodes),
                              std::move(edges));
}

std::shared_ptr<const PredicateExpr> RandomPrune(Rng* rng) {
  const TimePoint t = static_cast<TimePoint>(rng->Uniform(kHorizon));
  switch (rng->Uniform(3)) {
    case 0:
      return PredicateExpr::Atom(PredicateOp::kPrecedes, t);
    case 1:
      return PredicateExpr::Atom(PredicateOp::kFollows, t);
    default:
      return PredicateExpr::Atom(PredicateOp::kOverlaps, t,
                                 std::min<TimePoint>(t + 2, kHorizon - 1));
  }
}

// The frontier's counters equal the one-source counters summed (heap high
// water: their max).
void ExpectStatsAreSums(
    const BestPathIterator& frontier,
    const std::vector<std::unique_ptr<BestPathIterator>>& singles) {
  IteratorStats sum;
  int64_t ntds = 0;
  for (const auto& single : singles) {
    const IteratorStats& s = single->stats();
    sum.ntds_pushed += s.ntds_pushed;
    sum.ntds_popped += s.ntds_popped;
    sum.useless_pops += s.useless_pops;
    sum.edges_scanned += s.edges_scanned;
    sum.nodes_reached += s.nodes_reached;
    sum.subsumption_skips += s.subsumption_skips;
    sum.subsumption_evictions += s.subsumption_evictions;
    sum.prunes += s.prunes;
    sum.interval_ops += s.interval_ops;
    sum.heap_high_water = std::max(sum.heap_high_water, s.heap_high_water);
    ntds += single->num_ntds();
  }
  const IteratorStats& f = frontier.stats();
  EXPECT_EQ(f.ntds_pushed, sum.ntds_pushed);
  EXPECT_EQ(f.ntds_popped, sum.ntds_popped);
  EXPECT_EQ(f.useless_pops, sum.useless_pops);
  EXPECT_EQ(f.edges_scanned, sum.edges_scanned);
  EXPECT_EQ(f.nodes_reached, sum.nodes_reached);
  EXPECT_EQ(f.subsumption_skips, sum.subsumption_skips);
  EXPECT_EQ(f.subsumption_evictions, sum.subsumption_evictions);
  EXPECT_EQ(f.prunes, sum.prunes);
  EXPECT_EQ(f.interval_ops, sum.interval_ops);
  EXPECT_EQ(f.heap_high_water, sum.heap_high_water);
  EXPECT_EQ(frontier.num_ntds(), ntds);
}

struct DrainCounts {
  int64_t pops = 0;
  int64_t ties = 0;  ///< Pops whose score another live source matched.
};

// Drains a frontier over `sources` in lockstep with the merged one-source
// reference.
DrainCounts ExpectFrontierMatchesMerge(
    graph::GraphView g, const std::vector<NodeId>& sources,
    BestPathIterator::Options options) {
  constexpr int32_t kTraceBase = 100;
  obs::QueryTrace frontier_trace(1 << 14);
  obs::QueryTrace merged_trace(1 << 14);
  options.trace = &frontier_trace;
  options.trace_iter = kTraceBase;
  BestPathIterator frontier(g, sources, options);
  std::vector<std::unique_ptr<BestPathIterator>> singles;
  options.trace = &merged_trace;
  for (size_t i = 0; i < sources.size(); ++i) {
    options.trace_iter = kTraceBase + static_cast<int32_t>(i);
    singles.push_back(
        std::make_unique<BestPathIterator>(g, sources[i], options));
  }
  EXPECT_EQ(frontier.num_sources(), static_cast<int32_t>(sources.size()));
  ExpectStatsAreSums(frontier, singles);
  testutil::PopRecorder frontier_pops(&frontier);
  std::vector<testutil::PopRecorder> single_pops;
  for (const auto& single : singles) single_pops.emplace_back(single.get());
  DrainCounts counts;
  int64_t& pops = counts.pops;
  while (true) {
    // The reference merge: best next score, ties to the smaller index.
    int32_t best = -1;
    bool tie = false;
    for (size_t i = 0; i < singles.size(); ++i) {
      const ScoreKey* peek = singles[i]->PeekScore();
      if (peek == nullptr) continue;
      const ScoreKey* best_peek =
          best < 0 ? nullptr : singles[static_cast<size_t>(best)]->PeekScore();
      if (best_peek == nullptr || ScoreBetter(*peek, *best_peek)) {
        best = static_cast<int32_t>(i);
        tie = false;
      } else if (*peek == *best_peek) {
        tie = true;
      }
    }
    counts.ties += tie;
    if (best < 0) {
      EXPECT_EQ(frontier.PeekScore(), nullptr);
      EXPECT_EQ(frontier_pops.Next(), kInvalidNtd);
      break;
    }
    BestPathIterator& single = *singles[static_cast<size_t>(best)];
    const ScoreKey* peek = frontier.PeekScore();
    if (peek == nullptr) {
      ADD_FAILURE() << "frontier exhausted before pop " << pops;
      return counts;
    }
    EXPECT_TRUE(*peek == *single.PeekScore()) << "pop " << pops;
    const NtdId want = single_pops[static_cast<size_t>(best)].Next();
    const NtdId got = frontier_pops.Next();
    if (got == kInvalidNtd) {
      ADD_FAILURE() << "frontier exhausted at pop " << pops;
      return counts;
    }
    const Ntd& a = frontier.ntd(got);
    const Ntd& b = single.ntd(want);
    EXPECT_EQ(a.origin, best) << "pop " << pops;
    EXPECT_EQ(a.node, b.node) << "pop " << pops;
    EXPECT_EQ(frontier.TimeOf(got), single.TimeOf(want)) << "pop " << pops;
    EXPECT_EQ(a.dist, b.dist) << "pop " << pops;
    EXPECT_EQ(frontier.source_of(got), sources[static_cast<size_t>(best)]);
    EXPECT_EQ(single.source_of(want), sources[static_cast<size_t>(best)]);
    EXPECT_EQ(frontier.PathEdges(got), single.PathEdges(want))
        << "pop " << pops;
    ExpectStatsAreSums(frontier, singles);
    ++pops;
  }
  // The same events in the same order, under the same iterator ids.
  EXPECT_EQ(frontier_trace.dropped(), 0);
  EXPECT_EQ(merged_trace.dropped(), 0);
  const std::vector<obs::TraceEvent> got_events = frontier_trace.Events();
  const std::vector<obs::TraceEvent> want_events = merged_trace.Events();
  EXPECT_EQ(got_events.size(), want_events.size());
  for (size_t i = 0; i < std::min(got_events.size(), want_events.size());
       ++i) {
    EXPECT_EQ(got_events[i].ToString(), want_events[i].ToString());
  }
  // Per-source views: NTD counts, reached nodes and pop lists.
  for (size_t i = 0; i < singles.size(); ++i) {
    const int32_t origin = static_cast<int32_t>(i);
    EXPECT_EQ(frontier.source(origin), sources[i]);
    EXPECT_EQ(frontier.num_ntds(origin), singles[i]->num_ntds());
    EXPECT_EQ(frontier.nodes_reached(origin), singles[i]->nodes_reached());
    EXPECT_EQ(frontier.nodes_reached(origin),
              frontier_pops.NodesReached(origin));
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      const auto got = frontier_pops.At(n, origin);
      const auto want = single_pops[i].At(n);
      EXPECT_EQ(got.size(), want.size()) << "source " << i << " node " << n;
      for (size_t j = 0; j < std::min(got.size(), want.size()); ++j) {
        EXPECT_EQ(frontier.ntd(got[j]).dist, singles[i]->ntd(want[j]).dist);
        EXPECT_EQ(frontier.TimeOf(got[j]), singles[i]->TimeOf(want[j]));
      }
    }
  }
  return counts;
}

struct Mode {
  RankFactor factor;
  bool prune;
  bool overlay;
};

std::string ModeName(const Mode& mode) {
  return std::string(RankFactorName(mode.factor)) +
         (mode.prune ? "/prune" : "") + (mode.overlay ? "/overlay" : "");
}

TEST(FrontierOracleTest, PopsTheMergedOneSourceSequence) {
  std::vector<Mode> modes;
  for (const RankFactor factor :
       {RankFactor::kRelevance, RankFactor::kEndTimeDesc,
        RankFactor::kStartTimeAsc, RankFactor::kDurationDesc}) {
    for (const bool prune : {false, true}) {
      for (const bool overlay : {false, true}) {
        modes.push_back(Mode{factor, prune, overlay});
      }
    }
  }
  DrainCounts total;
  const auto add = [&total](const DrainCounts& c) {
    total.pops += c.pops;
    total.ties += c.ties;
  };
  for (int graph_index = 0; graph_index < kGraphs; ++graph_index) {
    Rng rng(7000 + static_cast<uint64_t>(graph_index));
    const TemporalGraph g = RandomGraph(&rng);
    const auto overlay = RandomOverlay(&rng, g);
    for (const Mode& mode : modes) {
      SCOPED_TRACE("graph " + std::to_string(graph_index) + " " +
                   ModeName(mode));
      const graph::GraphView view(g, mode.overlay ? overlay.get() : nullptr);
      const uint64_t count =
          1 + rng.Uniform(static_cast<uint64_t>(view.num_nodes()));
      std::vector<NodeId> sources;
      for (const uint64_t v : rng.SampleWithoutReplacement(
               static_cast<uint64_t>(view.num_nodes()), count)) {
        sources.push_back(static_cast<NodeId>(v));
      }
      const auto prune = RandomPrune(&rng);
      BestPathIterator::Options options;
      options.ranking.factors = {mode.factor};
      if (mode.prune) options.prune = prune.get();
      add(ExpectFrontierMatchesMerge(view, sources, options));
      if (HasFatalFailure()) return;
    }
    // Whole node set as sources: many sources tie on their first score.
    std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      all[static_cast<size_t>(n)] = n;
    }
    add(ExpectFrontierMatchesMerge(g, all, {}));
  }
  // The sweep must actually pop, and pop through score ties between
  // sources; an empty or tie-free drain would prove little.
  EXPECT_GT(total.pops, 10000);
  EXPECT_GT(total.ties, 1000);
}

// Two sources whose first NTDs score equally: the smaller index pops first,
// whichever node id it names.
TEST(FrontierOracleTest, ScoreTieGoesToTheSmallerSourceIndex) {
  GraphBuilder b(4);
  b.AddNode("a", IntervalSet{{0, 3}});
  b.AddNode("b", IntervalSet{{0, 3}});
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::vector<NodeId> sources = {1, 0};
  BestPathIterator frontier(*g, sources, {});
  ASSERT_EQ(frontier.num_sources(), 2);
  const NtdId first = frontier.Next();
  ASSERT_NE(first, kInvalidNtd);
  EXPECT_EQ(frontier.ntd(first).origin, 0);
  EXPECT_EQ(frontier.source_of(first), 1);
  const NtdId second = frontier.Next();
  ASSERT_NE(second, kInvalidNtd);
  EXPECT_EQ(frontier.ntd(second).origin, 1);
  EXPECT_EQ(frontier.source_of(second), 0);
  EXPECT_EQ(frontier.Next(), kInvalidNtd);
}

// A source that fails the prune starts exhausted: it never pops, keeps its
// slot (and index) and the other sources run as if it were absent.
TEST(FrontierOracleTest, SourceThatStartsExhaustedNeverPops) {
  GraphBuilder b(10);
  const NodeId early = b.AddNode("early", IntervalSet{{0, 2}});
  const NodeId late = b.AddNode("late", IntervalSet{{6, 9}});
  const NodeId hub = b.AddNode("hub", IntervalSet{{0, 9}});
  b.AddEdge(hub, late, IntervalSet{{6, 9}}, 1.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const auto pred = PredicateExpr::Atom(PredicateOp::kFollows, 5);
  BestPathIterator::Options options;
  options.prune = pred.get();
  const std::vector<NodeId> sources = {early, late};
  BestPathIterator frontier(*g, sources, options);
  ASSERT_EQ(frontier.num_sources(), 2);
  EXPECT_EQ(frontier.num_ntds(0), 0);
  testutil::PopRecorder pops(&frontier);
  std::vector<NodeId> popped;
  for (NtdId id = pops.Next(); id != kInvalidNtd; id = pops.Next()) {
    EXPECT_EQ(frontier.ntd(id).origin, 1);
    popped.push_back(frontier.ntd(id).node);
  }
  EXPECT_EQ(popped, (std::vector<NodeId>{late, hub}));
  EXPECT_EQ(frontier.num_ntds(0), 0);
  EXPECT_EQ(frontier.nodes_reached(0), 0);
  EXPECT_EQ(frontier.nodes_reached(1), 2);
  EXPECT_TRUE(pops.At(early, 0).empty());

  // Every source exhausted from the start: nothing to peek or pop.
  const std::vector<NodeId> dead = {early};
  BestPathIterator empty(*g, dead, options);
  EXPECT_EQ(empty.PeekScore(), nullptr);
  EXPECT_EQ(empty.Next(), kInvalidNtd);
}

}  // namespace
}  // namespace tgks::search
