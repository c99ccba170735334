// Unit tests for the DeltaOverlay append layer (src/graph/delta_overlay.h):
// id routing (read through a GraphView), Extend chaining, per-destination
// in-edge runs in ascending edge-id order, delta postings, and the
// approximate footprint counter.

#include "graph/delta_overlay.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/graph_view.h"
#include "graph/temporal_graph.h"
#include "temporal/interval_set.h"

namespace tgks::graph {
namespace {

using temporal::IntervalSet;

TemporalGraph MakeBase() {
  GraphBuilder b(/*timeline_length=*/10);
  const IntervalSet always{{0, 9}};
  b.AddNode("alpha", always, 1.0);           // id 0
  b.AddNode("beta", always, 2.0);            // id 1
  b.AddNode("gamma shared", always, 3.0);    // id 2
  b.AddEdge(0, 1, always, 1.0);              // edge 0
  b.AddEdge(1, 2, always, 2.0);              // edge 1
  return std::move(b.Build()).value();
}

Node MakeNode(const std::string& label, double weight,
              const IntervalSet& validity) {
  Node n;
  n.label = label;
  n.weight = weight;
  n.validity = validity;
  return n;
}

Edge MakeEdge(NodeId src, NodeId dst, double weight,
              const IntervalSet& validity) {
  Edge e;
  e.src = src;
  e.dst = dst;
  e.weight = weight;
  e.validity = validity;
  return e;
}

TEST(DeltaOverlayTest, RoutesIdsBetweenBaseAndDelta) {
  const TemporalGraph base = MakeBase();
  const IntervalSet always{{0, 9}};
  auto overlay = DeltaOverlay::Extend(
      base, nullptr, {MakeNode("delta node", 5.0, always)},
      {MakeEdge(0, 3, 7.0, always)});

  EXPECT_EQ(overlay->base_num_nodes(), 3);
  EXPECT_EQ(overlay->base_num_edges(), 2);
  EXPECT_EQ(overlay->num_delta_nodes(), 1);
  EXPECT_EQ(overlay->num_delta_edges(), 1);
  EXPECT_EQ(overlay->total_nodes(), 4);
  EXPECT_EQ(overlay->total_edges(), 3);
  EXPECT_FALSE(overlay->empty());

  EXPECT_FALSE(overlay->IsDeltaNode(2));
  EXPECT_TRUE(overlay->IsDeltaNode(3));
  EXPECT_FALSE(overlay->IsDeltaEdge(1));
  EXPECT_TRUE(overlay->IsDeltaEdge(2));

  // The view routes: base ids read the base graph, delta ids the delta
  // vectors.
  const GraphView view(base, overlay.get());
  EXPECT_EQ(view.node(0).label, "alpha");
  EXPECT_EQ(view.node(3).label, "delta node");
  EXPECT_EQ(view.node(3).weight, 5.0);
  EXPECT_EQ(view.edge(1).dst, 2);
  EXPECT_EQ(view.edge(2).src, 0);
  EXPECT_EQ(view.edge(2).weight, 7.0);
}

TEST(DeltaOverlayTest, EmptyOverlayIsEmpty) {
  const TemporalGraph base = MakeBase();
  auto overlay = DeltaOverlay::Extend(base, nullptr, {}, {});
  EXPECT_TRUE(overlay->empty());
  EXPECT_EQ(overlay->total_nodes(), base.num_nodes());
  EXPECT_EQ(overlay->total_edges(), base.num_edges());
}

TEST(DeltaOverlayTest, ExtendChainsAccumulateAndPredecessorIsUntouched) {
  const TemporalGraph base = MakeBase();
  const IntervalSet always{{0, 9}};
  auto first = DeltaOverlay::Extend(
      base, nullptr, {MakeNode("first wave", 1.0, always)},
      {MakeEdge(3, 0, 1.0, always)});
  auto second = DeltaOverlay::Extend(
      base, first.get(), {MakeNode("second wave", 2.0, always)},
      {MakeEdge(4, 0, 2.0, always)});

  // The successor holds the full accumulated delta...
  EXPECT_EQ(second->num_delta_nodes(), 2);
  EXPECT_EQ(second->num_delta_edges(), 2);
  EXPECT_EQ(second->delta_node(3).label, "first wave");
  EXPECT_EQ(second->delta_node(4).label, "second wave");
  // ...and the predecessor (a pinned reader's view) is untouched.
  EXPECT_EQ(first->num_delta_nodes(), 1);
  EXPECT_EQ(first->num_delta_edges(), 1);
  EXPECT_EQ(first->total_nodes(), 4);

  // Both delta edges target node 0: one run, ascending edge ids 2 then 3.
  const auto run = second->DeltaInSlots(0);
  ASSERT_EQ(run.end - run.begin, 2);
  EXPECT_EQ(second->edge_id(run.begin), 2);
  EXPECT_EQ(second->edge_id(run.begin + 1), 3);
  EXPECT_EQ(second->src(run.begin), 3);
  EXPECT_EQ(second->src(run.begin + 1), 4);
  EXPECT_EQ(second->edge_weight(run.begin), 1.0);
  EXPECT_EQ(second->edge_weight(run.begin + 1), 2.0);
}

TEST(DeltaOverlayTest, InRunsGroupByDestinationInEdgeIdOrder) {
  const TemporalGraph base = MakeBase();
  const IntervalSet always{{0, 9}};
  // Interleave destinations so grouping actually has to reorder slots:
  // edges 2,4 -> node 1 and edges 3,5 -> node 3 (a delta node).
  auto overlay = DeltaOverlay::Extend(
      base, nullptr, {MakeNode("target", 0.0, always)},
      {MakeEdge(0, 1, 1.0, always), MakeEdge(0, 3, 1.0, always),
       MakeEdge(2, 1, 1.0, always), MakeEdge(2, 3, 1.0, always)});

  const auto to_base = overlay->DeltaInSlots(1);
  ASSERT_EQ(to_base.end - to_base.begin, 2);
  EXPECT_EQ(overlay->edge_id(to_base.begin), 2);
  EXPECT_EQ(overlay->edge_id(to_base.begin + 1), 4);

  const auto to_delta = overlay->DeltaInSlots(3);
  ASSERT_EQ(to_delta.end - to_delta.begin, 2);
  EXPECT_EQ(overlay->edge_id(to_delta.begin), 3);
  EXPECT_EQ(overlay->edge_id(to_delta.begin + 1), 5);

  // A node with no delta in-edges gets the empty run.
  const auto none = overlay->DeltaInSlots(0);
  EXPECT_EQ(none.begin, none.end);
}

TEST(DeltaOverlayTest, SlotTemporalAccessorsReadEdgeValidity) {
  const TemporalGraph base = MakeBase();
  auto overlay = DeltaOverlay::Extend(
      base, nullptr, {}, {MakeEdge(0, 1, 1.0, IntervalSet{{2, 5}})});
  const auto run = overlay->DeltaInSlots(1);
  ASSERT_EQ(run.end - run.begin, 1);

  IntervalSet out;
  overlay->IntersectEdgeValidity(run.begin, IntervalSet{{4, 9}}, &out);
  EXPECT_TRUE(out == IntervalSet({{4, 5}})) << out.ToString();

  overlay->WithEdgeValidity(run.begin, [](const IntervalSet& v) {
    EXPECT_TRUE(v == IntervalSet({{2, 5}}));
  });
}

TEST(DeltaOverlayTest, PostingsAreCaseFoldedPerWordAndAscending) {
  const TemporalGraph base = MakeBase();
  const IntervalSet always{{0, 9}};
  auto overlay = DeltaOverlay::Extend(
      base, nullptr,
      {MakeNode("Shared Topic", 0.0, always),   // id 3
       MakeNode("another topic", 0.0, always),  // id 4
       MakeNode("shared", 0.0, always)},        // id 5
      {});

  const auto shared = overlay->Postings("shared");
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared[0], 3);
  EXPECT_EQ(shared[1], 5);
  // Every delta posting id is >= base_num_nodes(), so appending to a base
  // posting list preserves ascending order.
  EXPECT_GE(shared[0], overlay->base_num_nodes());

  const auto topic = overlay->Postings("topic");
  ASSERT_EQ(topic.size(), 2u);
  EXPECT_EQ(topic[0], 3);
  EXPECT_EQ(topic[1], 4);

  EXPECT_TRUE(overlay->Postings("absent").empty());
  // Postings takes an already-folded word; the raw mixed-case form of a
  // label word is not a key.
  EXPECT_TRUE(overlay->Postings("Shared").empty());
}

TEST(DeltaOverlayTest, ApproxBytesGrowsWithTheDelta) {
  const TemporalGraph base = MakeBase();
  const IntervalSet always{{0, 9}};
  auto small = DeltaOverlay::Extend(
      base, nullptr, {MakeNode("one", 0.0, always)}, {});
  auto big = DeltaOverlay::Extend(
      base, small.get(),
      {MakeNode("two with a considerably longer label string", 0.0, always),
       MakeNode("three", 0.0, always)},
      {MakeEdge(0, 3, 1.0, always), MakeEdge(1, 4, 1.0, always)});
  EXPECT_GT(small->ApproxBytes(), 0u);
  EXPECT_GT(big->ApproxBytes(), small->ApproxBytes());
}

}  // namespace
}  // namespace tgks::graph
