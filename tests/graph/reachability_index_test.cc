// Differential oracle for the temporal reachability labeling.
//
// The index factors the timeline into constant-snapshot epochs and answers
// CanReach / EarliestArrival through chain-cover labels with a DFS
// fallback. This suite pins every answer to a brute-force per-snapshot BFS
// across ALL (u, t, v) triples on 60 seeded random graphs (the same
// 10-seed x 6-round shape as the snapshot-reducibility harness), failing
// loudly with the witness triple on any mismatch. Property tests cover the
// EarliestArrival contract (lower bound, monotone in the start instant,
// "a later start never reaches more"), transitivity of the boolean oracle,
// build determinism, and byte-identical serialization round trips. The lazy
// index (built on the first reachability() call, shared by every copy of a
// graph) is pinned too: concurrent first calls share one build, saving is
// independent of whether the index was probed before, and loads of every
// older .tgb version, labeling blob or not, build on first use.

#include <algorithm>
#include <cstdint>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/reachability_index.h"
#include "graph/serialization.h"
#include "temporal/interval_set.h"

namespace tgks {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::ReachabilityIndex;
using graph::TemporalGraph;
using temporal::IntervalSet;
using temporal::TimePoint;

/// Same generator shape as the snapshot-reducibility harness: single-
/// interval validities drawn inside the horizon, clamp policy, resampled
/// until structurally valid.
TemporalGraph RandomGraph(Rng* rng, int num_nodes, int num_edges,
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
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}},
                static_cast<double>(1 + rng->Uniform(4)));
      ++added;
    }
    auto g = b.Build();
    if (g.ok()) return std::move(g).value();
  }
}

/// Brute-force snapshot reachability: reach[t][u] has bit v set iff the
/// snapshot G_t contains a directed path u -> v (u alive reaches itself).
std::vector<std::vector<uint64_t>> BfsOracle(const TemporalGraph& g) {
  EXPECT_LE(g.num_nodes(), 64) << "oracle uses 64-bit row masks";
  std::vector<std::vector<uint64_t>> reach(
      static_cast<size_t>(g.timeline_length()),
      std::vector<uint64_t>(static_cast<size_t>(g.num_nodes()), 0));
  for (TimePoint t = 0; t < g.timeline_length(); ++t) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (!g.NodeAliveAt(u, t)) continue;
      std::vector<NodeId> queue{u};
      uint64_t seen = uint64_t{1} << u;
      while (!queue.empty()) {
        const NodeId cur = queue.back();
        queue.pop_back();
        for (const graph::EdgeId e : g.OutEdges(cur)) {
          if (!g.EdgeAliveAt(e, t)) continue;
          const NodeId next = g.edge(e).dst;
          if ((seen >> next) & 1) continue;
          seen |= uint64_t{1} << next;
          queue.push_back(next);
        }
      }
      reach[static_cast<size_t>(t)][static_cast<size_t>(u)] = seen;
    }
  }
  return reach;
}

bool OracleReaches(const std::vector<std::vector<uint64_t>>& reach,
                   NodeId u, TimePoint t, NodeId v) {
  return ((reach[static_cast<size_t>(t)][static_cast<size_t>(u)] >> v) & 1) !=
         0;
}

void CheckAllTriples(const TemporalGraph& g, const std::string& context) {
  const ReachabilityIndex& index = g.reachability();
  const auto oracle = BfsOracle(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      TimePoint expected_earliest = temporal::kNoTimePoint;
      for (TimePoint t = g.timeline_length() - 1; t >= 0; --t) {
        const bool expected = OracleReaches(oracle, u, t, v);
        ASSERT_EQ(index.CanReach(u, t, v), expected)
            << context << ": CanReach witness (u=" << u << ", t=" << t
            << ", v=" << v << ") disagrees with snapshot BFS (expected "
            << (expected ? "reachable" : "unreachable") << ")";
        if (expected) expected_earliest = t;
        ASSERT_EQ(index.EarliestArrival(u, t, v), expected_earliest)
            << context << ": EarliestArrival witness (u=" << u << ", t=" << t
            << ", v=" << v << ")";
      }
    }
  }
}

void CheckProperties(const TemporalGraph& g, Rng* rng,
                     const std::string& context) {
  const ReachabilityIndex& index = g.reachability();
  const auto n = static_cast<uint64_t>(g.num_nodes());
  for (int trial = 0; trial < 200; ++trial) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(n));
    const NodeId v = static_cast<NodeId>(rng->Uniform(n));
    const NodeId w = static_cast<NodeId>(rng->Uniform(n));
    const TimePoint t =
        static_cast<TimePoint>(rng->Uniform(g.timeline_length()));

    // Transitivity of the snapshot relation.
    if (index.CanReach(u, t, v) && index.CanReach(v, t, w)) {
      EXPECT_TRUE(index.CanReach(u, t, w))
          << context << ": transitivity broken at (u=" << u << ", t=" << t
          << ", v=" << v << ", w=" << w << ")";
    }

    // EarliestArrival is a lower bound consistent with CanReach...
    const TimePoint arrival = index.EarliestArrival(u, t, v);
    if (arrival != temporal::kNoTimePoint) {
      EXPECT_GE(arrival, t) << context;
      EXPECT_TRUE(index.CanReach(u, arrival, v))
          << context << ": EarliestArrival names a non-reaching instant (u="
          << u << ", t=" << t << ", v=" << v << ", arrival=" << arrival
          << ")";
    }
    EXPECT_EQ(arrival == t, index.CanReach(u, t, v)) << context;

    // ...and monotone in the start: a later start never reaches more, and
    // never arrives earlier.
    const TimePoint later =
        t + static_cast<TimePoint>(
                rng->Uniform(g.timeline_length() - t));
    const TimePoint later_arrival = index.EarliestArrival(u, later, v);
    if (later_arrival != temporal::kNoTimePoint) {
      ASSERT_NE(arrival, temporal::kNoTimePoint)
          << context << ": start " << later << " reaches (u=" << u
          << " -> v=" << v << ") but earlier start " << t << " does not";
      EXPECT_LE(arrival, later_arrival) << context;
    }
  }
}

class ReachabilityOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReachabilityOracleTest, EveryTripleMatchesSnapshotBfs) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const TimePoint horizon = 4 + static_cast<TimePoint>(rng.Uniform(5));
    const int num_nodes = 8 + static_cast<int>(rng.Uniform(8));
    const int num_edges = 2 * num_nodes + static_cast<int>(rng.Uniform(10));
    const TemporalGraph g = RandomGraph(&rng, num_nodes, num_edges, horizon);
    const std::string context = "seed " + std::to_string(GetParam()) +
                                " round " + std::to_string(round);
    CheckAllTriples(g, context);
    CheckProperties(g, &rng, context);
  }
}

// 10 seeds x 6 rounds = 60 random graphs, mirroring the reducibility suite.
INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityOracleTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

TEST(ReachabilityIndexTest, BuildIsDeterministic) {
  Rng rng(321);
  const TemporalGraph g = RandomGraph(&rng, 14, 30, 7);
  const ReachabilityIndex rebuilt = ReachabilityIndex::Build(g);
  EXPECT_TRUE(g.reachability().IdenticalTo(rebuilt));
  EXPECT_GT(g.reachability().stats().epochs, 0);
  EXPECT_GE(g.reachability().stats().build_seconds, 0.0);
}

TEST(ReachabilityIndexTest, SerializationRoundTripIsByteIdentical) {
  Rng rng(654);
  for (int round = 0; round < 4; ++round) {
    const TemporalGraph g = RandomGraph(&rng, 12, 24, 6);
    std::ostringstream first;
    ASSERT_TRUE(graph::SaveGraphBinary(g, first).ok());

    std::istringstream in(first.str());
    auto loaded = graph::LoadGraphBinary(in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // The loaded graph builds the same labels on first use...
    EXPECT_TRUE(loaded->reachability().IdenticalTo(g.reachability()))
        << "round " << round;
    // ...and re-saving reproduces the version-5 archive byte for byte.
    std::ostringstream second;
    ASSERT_TRUE(graph::SaveGraphBinary(loaded.value(), second).ok());
    EXPECT_EQ(first.str(), second.str()) << "round " << round;
  }
}

TEST(ReachabilityIndexTest, SingleChainGraphHasPerfectLabels) {
  GraphBuilder b(3, graph::ValidityPolicy::kStrict);
  const int n = 12;
  for (int i = 0; i < n; ++i) b.AddNode("n" + std::to_string(i));
  for (int i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const ReachabilityIndex& index = g->reachability();
  EXPECT_EQ(index.num_epochs(), 1);
  EXPECT_EQ(index.stats().chains, 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(index.CanReach(u, 1, v), u <= v) << u << "->" << v;
    }
  }
}

TEST(ReachabilityIndexTest, CycleCollapsesToOneScc) {
  GraphBuilder b(2, graph::ValidityPolicy::kStrict);
  for (int i = 0; i < 5; ++i) b.AddNode("n" + std::to_string(i));
  for (int i = 0; i < 5; ++i) b.AddEdge(i, (i + 1) % 5);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_TRUE(g->reachability().CanReach(u, 0, v));
    }
  }
  EXPECT_EQ(g->reachability().stats().sccs, 1);
}

TEST(ReachabilityIndexTest, ProbesOutsideTimelineAreFalse) {
  GraphBuilder b(4, graph::ValidityPolicy::kStrict);
  b.AddNode("a");
  b.AddNode("b");
  b.AddEdge(0, 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->reachability().CanReach(0, -1, 1));
  EXPECT_FALSE(g->reachability().CanReach(0, 4, 1));
  EXPECT_EQ(g->reachability().EarliestArrival(0, 4, 1),
            temporal::kNoTimePoint);
  EXPECT_EQ(g->reachability().EarliestArrival(0, -3, 1), 0);
}

// ---------------------------------------------------------------------------
// The lazily built index.

/// A seeded random graph with labels from a small pool. Edges are drawn inside their
/// endpoints' common lifetime, so every draw is valid. Each call is an
/// independent build whose reachability() has never been called; equal
/// seeds give equal graphs.
TemporalGraph LabeledGraph(uint64_t seed, int num_nodes, int num_edges,
                           TimePoint horizon) {
  static const char* kPool[] = {"alpha", "beta", "gamma"};
  Rng rng(seed);
  GraphBuilder b(horizon, graph::ValidityPolicy::kStrict);
  std::vector<temporal::Interval> alive;
  for (int i = 0; i < num_nodes; ++i) {
    const TimePoint a = static_cast<TimePoint>(rng.Uniform(horizon));
    const TimePoint c = static_cast<TimePoint>(rng.Uniform(horizon));
    alive.emplace_back(std::min(a, c), std::max(a, c));
    b.AddNode(kPool[rng.Uniform(3)], IntervalSet{alive.back()},
              static_cast<double>(rng.Uniform(3)));
  }
  for (int added = 0; added < num_edges;) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.Uniform(num_nodes));
    const TimePoint lo = std::max(alive[static_cast<size_t>(u)].start,
                                  alive[static_cast<size_t>(v)].start);
    const TimePoint hi = std::min(alive[static_cast<size_t>(u)].end,
                                  alive[static_cast<size_t>(v)].end);
    if (u == v || lo > hi) continue;
    const auto span = static_cast<uint64_t>(hi - lo + 1);
    const TimePoint a = lo + static_cast<TimePoint>(rng.Uniform(span));
    const TimePoint c = lo + static_cast<TimePoint>(rng.Uniform(span));
    b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}},
              static_cast<double>(1 + rng.Uniform(4)));
    ++added;
  }
  return std::move(b.Build()).value();
}

void ExpectSameStats(const ReachabilityIndex::BuildStats& a,
                     const ReachabilityIndex::BuildStats& b) {
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.sccs, b.sccs);
  EXPECT_EQ(a.dag_edges, b.dag_edges);
  EXPECT_EQ(a.chains, b.chains);
  EXPECT_EQ(a.label_entries, b.label_entries);
  EXPECT_EQ(a.label_bytes, b.label_bytes);
  EXPECT_EQ(a.build_seconds, b.build_seconds);
}

TEST(LazyReachabilityTest, ConcurrentFirstCallsShareOneBuild) {
  // Large enough that the build outlasts the threads' start-up skew.
  const TemporalGraph g = LabeledGraph(2024, 3000, 9000, 24);
  constexpr int kThreads = 8;
  // Copies share the graph's one lazily filled cell.
  const std::vector<TemporalGraph> copies(kThreads, g);
  std::vector<const ReachabilityIndex*> seen(kThreads, nullptr);
  std::vector<ReachabilityIndex::BuildStats> stats(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      const ReachabilityIndex& index =
          copies[static_cast<size_t>(i)].reachability();
      seen[static_cast<size_t>(i)] = &index;
      stats[static_cast<size_t>(i)] = index.stats();
    });
  }
  for (std::thread& t : threads) t.join();

  const ReachabilityIndex* shared = &g.reachability();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], shared) << "thread " << i;
    ExpectSameStats(stats[static_cast<size_t>(i)], shared->stats());
  }
  EXPECT_GT(shared->stats().build_seconds, 0.0);
  EXPECT_TRUE(shared->IdenticalTo(ReachabilityIndex::Build(g)));
}

TEST(LazyReachabilityTest, SaveIsIndependentOfFirstUse) {
  for (uint64_t seed = 70; seed < 74; ++seed) {
    const TemporalGraph untouched = LabeledGraph(seed, 12, 24, 6);
    const TemporalGraph probed = LabeledGraph(seed, 12, 24, 6);
    (void)probed.reachability();

    std::ostringstream from_untouched;
    std::ostringstream from_probed;
    ASSERT_TRUE(graph::SaveGraphBinary(untouched, from_untouched).ok());
    ASSERT_TRUE(graph::SaveGraphBinary(probed, from_probed).ok());
    EXPECT_EQ(from_untouched.str(), from_probed.str()) << "seed " << seed;
  }
}

TEST(LazyReachabilityTest, LegacyVersionsBuildOnFirstUse) {
  const TemporalGraph g = LabeledGraph(93, 14, 30, 7);
  std::ostringstream out;
  ASSERT_TRUE(graph::SaveGraphBinary(g, out).ok());
  for (const char version : {1, 2, 3, 4}) {
    // Same records under an older version number. Versions 2 to 4 appended
    // a labeling blob after the edges; the loader stops after the edge
    // records, so whatever follows them is never read.
    std::string bytes = out.str();
    bytes[4] = version;
    if (version >= 2) bytes += std::string(64, '\xFF');
    std::istringstream in(bytes);
    auto loaded = graph::LoadGraphBinary(in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_GT(loaded->reachability().stats().build_seconds, 0.0)
        << "version " << int{version};
    EXPECT_TRUE(loaded->reachability().IdenticalTo(g.reachability()))
        << "version " << int{version};
  }
}

}  // namespace
}  // namespace tgks
