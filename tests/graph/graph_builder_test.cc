#include "graph/graph_builder.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "temporal/interval_set.h"

namespace tgks::graph {
namespace {

using temporal::Interval;
using temporal::IntervalSet;

TEST(GraphBuilderTest, EmptyGraphBuilds) {
  GraphBuilder b(10);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0);
  EXPECT_EQ(g->num_edges(), 0);
  EXPECT_EQ(g->timeline_length(), 10);
}

TEST(GraphBuilderTest, RejectsNonPositiveTimeline) {
  GraphBuilder b(0);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, NodeValidityClippedToTimeline) {
  GraphBuilder b(5);
  const NodeId n = b.AddNode("x", IntervalSet{{-3, 10}});
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->node(n).validity, IntervalSet(Interval(0, 4)));
}

TEST(GraphBuilderTest, WholeTimelineNodeOverload) {
  GraphBuilder b(5);
  const NodeId n = b.AddNode("x", 2.5);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->node(n).validity, IntervalSet::All(5));
  EXPECT_DOUBLE_EQ(g->node(n).weight, 2.5);
}

TEST(GraphBuilderTest, RejectsDanglingEdge) {
  GraphBuilder b(5);
  const NodeId n = b.AddNode("x");
  b.AddEdge(n, n + 7, IntervalSet{{0, 1}});
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, RejectsNegativeWeights) {
  {
    GraphBuilder b(5);
    b.AddNode("x", -1.0);
    EXPECT_FALSE(b.Build().ok());
  }
  {
    GraphBuilder b(5);
    const NodeId u = b.AddNode("x");
    const NodeId v = b.AddNode("y");
    b.AddEdge(u, v, IntervalSet{{0, 1}}, -2.0);
    EXPECT_FALSE(b.Build().ok());
  }
}

TEST(GraphBuilderTest, RejectsNonFiniteWeights) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    {
      GraphBuilder b(5);
      b.AddNode("x", bad);
      EXPECT_FALSE(b.Build().ok()) << bad;
    }
    {
      GraphBuilder b(5);
      const NodeId u = b.AddNode("x");
      const NodeId v = b.AddNode("y");
      b.AddEdge(u, v, IntervalSet{{0, 1}}, bad);
      EXPECT_FALSE(b.Build().ok()) << bad;
    }
  }
}

TEST(GraphBuilderTest, StrictPolicyRejectsEdgeOutsideEndpoints) {
  GraphBuilder b(10, ValidityPolicy::kStrict);
  const NodeId u = b.AddNode("u", IntervalSet{{0, 4}});
  const NodeId v = b.AddNode("v", IntervalSet{{2, 9}});
  b.AddEdge(u, v, IntervalSet{{2, 6}});  // Beyond u's validity.
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, ClampPolicyIntersectsWithEndpoints) {
  GraphBuilder b(10, ValidityPolicy::kClamp);
  const NodeId u = b.AddNode("u", IntervalSet{{0, 4}});
  const NodeId v = b.AddNode("v", IntervalSet{{2, 9}});
  b.AddEdge(u, v, IntervalSet{{2, 6}});
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->edge(0).validity, IntervalSet(Interval(2, 4)));
}

TEST(GraphBuilderTest, DefaultEdgeValidityIsEndpointIntersection) {
  GraphBuilder b(10, ValidityPolicy::kStrict);
  const NodeId u = b.AddNode("u", IntervalSet{{0, 5}});
  const NodeId v = b.AddNode("v", IntervalSet{{3, 9}});
  b.AddEdge(u, v);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->edge(0).validity, IntervalSet(Interval(3, 5)));
}

TEST(GraphBuilderTest, RejectsNeverValidEdge) {
  GraphBuilder b(10, ValidityPolicy::kClamp);
  const NodeId u = b.AddNode("u", IntervalSet{{0, 2}});
  const NodeId v = b.AddNode("v", IntervalSet{{5, 9}});
  b.AddEdge(u, v);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, AdjacencyListsAreConsistent) {
  GraphBuilder b(4);
  const NodeId a = b.AddNode("a");
  const NodeId c = b.AddNode("c");
  const NodeId d = b.AddNode("d");
  b.AddEdge(a, c);
  b.AddEdge(a, d);
  b.AddEdge(c, d);
  b.AddEdge(d, a);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());

  auto out_of = [&](NodeId n) {
    std::vector<NodeId> v;
    for (EdgeId e : g->OutEdges(n)) v.push_back(g->edge(e).dst);
    std::sort(v.begin(), v.end());
    return v;
  };
  auto in_of = [&](NodeId n) {
    std::vector<NodeId> v;
    for (EdgeId e : g->InEdges(n)) v.push_back(g->edge(e).src);
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(out_of(a), (std::vector<NodeId>{c, d}));
  EXPECT_EQ(out_of(c), (std::vector<NodeId>{d}));
  EXPECT_EQ(out_of(d), (std::vector<NodeId>{a}));
  EXPECT_EQ(in_of(a), (std::vector<NodeId>{d}));
  EXPECT_EQ(in_of(c), (std::vector<NodeId>{a}));
  EXPECT_EQ(in_of(d), (std::vector<NodeId>{a, c}));

  // Every edge appears exactly once per direction.
  size_t out_total = 0, in_total = 0;
  for (NodeId n = 0; n < g->num_nodes(); ++n) {
    out_total += g->OutEdges(n).size();
    in_total += g->InEdges(n).size();
  }
  EXPECT_EQ(out_total, static_cast<size_t>(g->num_edges()));
  EXPECT_EQ(in_total, static_cast<size_t>(g->num_edges()));
}

TEST(GraphBuilderTest, AliveAtQueries) {
  GraphBuilder b(10);
  const NodeId u = b.AddNode("u", IntervalSet{{0, 4}});
  const NodeId v = b.AddNode("v", IntervalSet{{2, 9}});
  b.AddEdge(u, v);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->NodeAliveAt(u, 0));
  EXPECT_FALSE(g->NodeAliveAt(u, 5));
  EXPECT_TRUE(g->EdgeAliveAt(0, 3));
  EXPECT_FALSE(g->EdgeAliveAt(0, 1));
  EXPECT_FALSE(g->EdgeAliveAt(0, 5));
}

TEST(GraphBuilderTest, ParallelEdgesAndSelfLoopsAllowed) {
  GraphBuilder b(4);
  const NodeId a = b.AddNode("a");
  const NodeId c = b.AddNode("c");
  b.AddEdge(a, c);
  b.AddEdge(a, c);
  b.AddEdge(a, a);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 3);
  EXPECT_EQ(g->OutEdges(a).size(), 3u);
}

}  // namespace
}  // namespace tgks::graph
