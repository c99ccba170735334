#include "graph/transform.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "temporal/interval_set.h"

namespace tgks::graph {
namespace {

using temporal::Interval;
using temporal::IntervalSet;

TEST(TransformTest, RestrictToWindowClipsAndShifts) {
  GraphBuilder b(10);
  const NodeId early = b.AddNode("early", IntervalSet(Interval(0, 2)));
  const NodeId late = b.AddNode("late", IntervalSet(Interval(7, 9)));
  const NodeId both = b.AddNode("both", IntervalSet(Interval(1, 9)));
  b.AddEdge(late, both, IntervalSet(Interval(8, 9)));
  auto g = b.Build();
  ASSERT_TRUE(g.ok()) << g.status();

  auto window = RestrictToWindow(*g, Interval(5, 9));
  ASSERT_TRUE(window.ok()) << window.status();
  EXPECT_EQ(window->graph.timeline_length(), 5);
  // "early" (dead by t3) is dropped; the ids of the others are remapped.
  EXPECT_EQ(window->node_mapping[static_cast<size_t>(early)], kInvalidNode);
  const NodeId new_late = window->node_mapping[static_cast<size_t>(late)];
  const NodeId new_both = window->node_mapping[static_cast<size_t>(both)];
  ASSERT_NE(new_late, kInvalidNode);
  ASSERT_NE(new_both, kInvalidNode);
  EXPECT_EQ(window->graph.node(new_late).validity,
            IntervalSet(Interval(2, 4)));  // [7,9] shifted by 5.
  EXPECT_EQ(window->graph.node(new_both).validity,
            IntervalSet(Interval(0, 4)));
  EXPECT_EQ(window->graph.num_edges(), 1);
  EXPECT_EQ(window->graph.edge(0).validity, IntervalSet(Interval(3, 4)));
}

TEST(TransformTest, RestrictWithoutShiftKeepsNumbering) {
  GraphBuilder b(10);
  b.AddNode("n", IntervalSet(Interval(2, 9)));
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto window = RestrictToWindow(*g, Interval(4, 7), /*shift_origin=*/false);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->graph.timeline_length(), 10);
  EXPECT_EQ(window->graph.node(0).validity, IntervalSet(Interval(4, 7)));
}

TEST(TransformTest, MaterializeSnapshot) {
  GraphBuilder b(10);
  const NodeId a = b.AddNode("a", IntervalSet(Interval(0, 9)));
  const NodeId c = b.AddNode("c", IntervalSet(Interval(5, 9)));
  b.AddEdge(a, c, IntervalSet(Interval(6, 9)));
  auto g = b.Build();
  ASSERT_TRUE(g.ok());

  auto at3 = MaterializeSnapshot(*g, 3);
  ASSERT_TRUE(at3.ok());
  EXPECT_EQ(at3->graph.num_nodes(), 1);  // Only "a".
  EXPECT_EQ(at3->graph.num_edges(), 0);
  EXPECT_EQ(at3->graph.timeline_length(), 1);

  auto at7 = MaterializeSnapshot(*g, 7);
  ASSERT_TRUE(at7.ok());
  EXPECT_EQ(at7->graph.num_nodes(), 2);
  EXPECT_EQ(at7->graph.num_edges(), 1);
}

TEST(TransformTest, RejectsBadWindows) {
  GraphBuilder b(10);
  b.AddNode("n", IntervalSet(Interval(0, 9)));
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(RestrictToWindow(*g, Interval(5, 4)).ok());
  EXPECT_FALSE(RestrictToWindow(*g, Interval(-1, 4)).ok());
  EXPECT_FALSE(RestrictToWindow(*g, Interval(5, 99)).ok());
}

}  // namespace
}  // namespace tgks::graph
