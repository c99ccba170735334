// Regression tests for the §4.2 termination bounds under relevance ranking.
//
// The bounds live in relevance space (r = 1/weight) but the engine scores in
// negated-weight space (s = -weight). The transform is monotone but NOT
// affine, so the kAverage midpoint must be formed in relevance space and
// mapped back: avg = -(2·m·d)/(m+1), NOT the negated-weight midpoint
// -(d·(m+1))/2. The graph below distinguishes the two: the wrong (too-loose)
// midpoint stops one pop early and returns the second-best tree as top-1.

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "search/query_parser.h"
#include "search/search_engine.h"

namespace tgks::search {
namespace {

using graph::GraphBuilder;
using graph::InvertedIndex;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;

struct BoundFixture {
  TemporalGraph graph;
  NodeId a, b, r1, r2;
};

// Two keyword matches A ("alpha") and B ("beta"), joined by two relay nodes:
//
//   A --2.2-- R1 --2.2-- B     tree T1, weight 4.4, found first
//   A --1.0-- R2 --3.2-- B     tree T2, weight 4.2, the true best
//
// Global best-first pops reach R1 from both keywords (distances 2.2/2.2)
// before R2 is reached from "beta" (distance 3.2), so T1 is emitted first.
// At the bound check after T1, d = -best_top = 3.2 and the kth best score
// is -4.4:
//   accurate  -3.2             -> continue (correct: T2 is still out there)
//   fixed avg -(2·2·3.2)/3 ≈ -4.267 -> continue, next pop emits T2
//   buggy avg -(3.2·2 + 3.2)/... = -4.8 -> stops, returns T1 as top-1
BoundFixture MakeBoundGraph() {
  GraphBuilder builder(8);
  BoundFixture f;
  const IntervalSet always{{0, 7}};
  f.a = builder.AddNode("alpha", always);
  f.b = builder.AddNode("beta", always);
  f.r1 = builder.AddNode("relay1", always);
  f.r2 = builder.AddNode("relay2", always);
  auto both = [&builder](NodeId u, NodeId v, const IntervalSet& when,
                         double weight) {
    builder.AddEdge(u, v, when, weight);
    builder.AddEdge(v, u, when, weight);
  };
  both(f.a, f.r1, always, 2.2);
  both(f.b, f.r1, always, 2.2);
  both(f.a, f.r2, always, 1.0);
  both(f.b, f.r2, always, 3.2);
  f.graph = std::move(builder.Build()).value();
  return f;
}

Query AlphaBeta() {
  auto q = ParseQuery("alpha, beta");
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).value();
}

bool UsesNode(const ResultTree& tree, NodeId node) {
  return std::binary_search(tree.nodes.begin(), tree.nodes.end(), node);
}

TEST(TerminationBoundTest, AccurateBoundFindsTrueBest) {
  const BoundFixture f = MakeBoundGraph();
  const InvertedIndex index(f.graph);
  const SearchEngine engine(f.graph, &index);
  SearchOptions options;
  options.k = 1;
  options.bound = UpperBoundKind::kAccurate;
  auto r = engine.Search(AlphaBeta(), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->results.size(), 1u);
  EXPECT_DOUBLE_EQ(r->results[0].total_weight, 4.2);
  EXPECT_TRUE(UsesNode(r->results[0], f.r2));
}

TEST(TerminationBoundTest, AverageBoundMidpointIsInRelevanceSpace) {
  // The regression: with the score-space midpoint this returns the weight-4.4
  // tree; the relevance-space midpoint keeps going one pop and finds 4.2.
  const BoundFixture f = MakeBoundGraph();
  const InvertedIndex index(f.graph);
  const SearchEngine engine(f.graph, &index);
  SearchOptions options;
  options.k = 1;
  options.bound = UpperBoundKind::kAverage;
  auto r = engine.Search(AlphaBeta(), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->results.size(), 1u);
  EXPECT_DOUBLE_EQ(r->results[0].total_weight, 4.2)
      << "kAverage stopped before the true best tree: the midpoint was "
         "formed in negated-weight space instead of relevance space";
  EXPECT_TRUE(UsesNode(r->results[0], f.r2));
  EXPECT_EQ(r->stop_reason, StopReason::kBound);
}

TEST(TerminationBoundTest, EmpiricalBoundStopsAtFirstKResults) {
  // Documented contract of the 1/(m·d) bound under global best-first
  // scheduling: W_k <= m·d_now always holds once k results exist, so the
  // empirical search stops at the first check after the kth result — here
  // with the (approximate) weight-4.4 tree instead of the true best.
  const BoundFixture f = MakeBoundGraph();
  const InvertedIndex index(f.graph);
  const SearchEngine engine(f.graph, &index);
  SearchOptions options;
  options.k = 1;
  options.bound = UpperBoundKind::kEmpirical;
  auto r = engine.Search(AlphaBeta(), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->results.size(), 1u);
  EXPECT_DOUBLE_EQ(r->results[0].total_weight, 4.4);
  EXPECT_TRUE(UsesNode(r->results[0], f.r1));
  EXPECT_EQ(r->stop_reason, StopReason::kBound);
}

// Adversarial graph for the stop test: a bicluster of four relay roots
// joins the "alpha"/"beta" matches with ascending weights, so the top-3
// fills fast and cheap — but a second "alpha" match sits at the end of a
// chain of 0.1-weight fragments below a gate whose only route to "beta"
// costs 6. Every tree through the chain weighs >= 6, yet its fragments are
// the cheapest NTDs on the frontier, so the chain keeps the "alpha"
// frontier's top low while the top-3 is already settled.
struct CheapFragmentFixture {
  TemporalGraph graph;
};

CheapFragmentFixture MakeCheapFragmentGraph() {
  GraphBuilder builder(8);
  const IntervalSet always{{0, 7}};
  const NodeId a1 = builder.AddNode("alpha", always);
  const NodeId b = builder.AddNode("beta", always);
  const NodeId a2 = builder.AddNode("alpha", always);  // stranded match
  for (int i = 1; i <= 4; ++i) {
    const NodeId relay = builder.AddNode("relay", always);
    builder.AddEdge(relay, a1, always, 0.5 * i);
    builder.AddEdge(relay, b, always, 0.5 * i);
  }
  const NodeId gate = builder.AddNode("gate", always);
  NodeId prev = gate;
  for (int i = 0; i < 6; ++i) {
    const NodeId link = builder.AddNode("link", always);
    builder.AddEdge(prev, link, always, 0.1);
    prev = link;
  }
  builder.AddEdge(prev, a2, always, 0.1);
  builder.AddEdge(gate, b, always, 6.0);
  return CheapFragmentFixture{std::move(builder.Build()).value()};
}

/// Runs `bound` at k = 3 and the exhaustive search (k = 0) on the cheap-
/// fragment graph, and expects the bounded top-3 to be the exhaustive top-3
/// in order. Stores the bounded response in `*out` for further checks.
void ExpectExhaustiveTopThree(UpperBoundKind bound, SearchResponse* out) {
  const CheapFragmentFixture f = MakeCheapFragmentGraph();
  const InvertedIndex index(f.graph);
  const SearchEngine engine(f.graph, &index);
  SearchOptions options;
  options.k = 0;
  auto exhaustive = engine.Search(AlphaBeta(), options);
  ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
  ASSERT_GT(exhaustive->results.size(), 3u);
  EXPECT_TRUE(exhaustive->exhausted());

  options.k = 3;
  options.bound = bound;
  auto bounded = engine.Search(AlphaBeta(), options);
  ASSERT_TRUE(bounded.ok()) << bounded.status();
  ASSERT_EQ(bounded->results.size(), 3u);
  for (size_t i = 0; i < bounded->results.size(); ++i) {
    EXPECT_EQ(bounded->results[i].nodes, exhaustive->results[i].nodes) << i;
    EXPECT_DOUBLE_EQ(bounded->results[i].total_weight,
                     exhaustive->results[i].total_weight)
        << i;
  }
  EXPECT_LE(bounded->counters.pops, exhaustive->counters.pops);
  *out = std::move(bounded).value();
}

TEST(TerminationBoundTest, EmpiricalStopPastCheapFragmentsKeepsTopK) {
  // The chain's fragments pull the empirical bound toward zero weight, yet
  // the stop still fires on the bound with the exact top-3.
  SearchResponse r;
  ExpectExhaustiveTopThree(UpperBoundKind::kEmpirical, &r);
  EXPECT_EQ(r.stop_reason, StopReason::kBound);
}

TEST(TerminationBoundTest, AccurateBoundPastCheapFragmentsKeepsExactTopK) {
  // Under kAccurate the stop is provably exact (Propositions 4.1-4.3).
  SearchResponse r;
  ExpectExhaustiveTopThree(UpperBoundKind::kAccurate, &r);
}

TEST(TerminationBoundTest, BoundTightnessOrdering) {
  // Looser bounds stop no later: pops(empirical) <= pops(average) <=
  // pops(accurate), and every variant actually terminates on the bound
  // (never exhaustion) on this graph.
  const BoundFixture f = MakeBoundGraph();
  const InvertedIndex index(f.graph);
  const SearchEngine engine(f.graph, &index);
  int64_t pops_empirical = 0, pops_average = 0, pops_accurate = 0;
  for (const auto& [kind, pops] :
       {std::pair{UpperBoundKind::kEmpirical, &pops_empirical},
        std::pair{UpperBoundKind::kAverage, &pops_average},
        std::pair{UpperBoundKind::kAccurate, &pops_accurate}}) {
    SearchOptions options;
    options.k = 1;
    options.bound = kind;
    auto r = engine.Search(AlphaBeta(), options);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->results.size(), 1u);
    EXPECT_FALSE(r->exhausted());
    *pops = r->counters.pops;
  }
  EXPECT_LE(pops_empirical, pops_average);
  EXPECT_LE(pops_average, pops_accurate);
}

}  // namespace
}  // namespace tgks::search
