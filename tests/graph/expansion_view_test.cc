// Differential suite for the SoA expansion view.
//
// The view is a pure layout change: it must enumerate, per node, exactly the
// (edge id, src, weight, validity) tuples of TemporalGraph::InEdges +
// edge(), in the same order, with weights byte-identical (the search
// iterators' distance arithmetic must not change by even one ULP). We check
// that on 60 seeded random graphs whose validity sets mix single-interval
// and multi-interval shapes, each built twice: at its own short timeline
// (the narrow view: TimeMask validities) and padded past 128 instants (the
// wide view: inline intervals plus the interned pool). Targeted unit tests
// cover both encodings, interning and the load path.

#include "graph/expansion_view.h"

#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/serialization.h"
#include "graph/temporal_graph.h"
#include "temporal/time_mask.h"

namespace tgks::graph {
namespace {

using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimeMask;
using temporal::TimePoint;

/// A timeline past TimeMask::kCapacity: views over it use the wide
/// encoding.
constexpr TimePoint kWideTimeline = 200;

/// Random validity: 1-3 intervals, normalized. Drawing interval endpoints
/// from a small palette makes byte-equal sets recur, exercising interning.
IntervalSet RandomValidity(Rng* rng, TimePoint horizon) {
  std::vector<Interval> ivs;
  const int n = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < n; ++i) {
    const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
    const TimePoint b = static_cast<TimePoint>(rng->Uniform(horizon));
    ivs.emplace_back(std::min(a, b), std::max(a, b));
  }
  return IntervalSet(ivs);
}

TemporalGraph RandomGraph(Rng* rng, int num_nodes, int num_edges,
                          TimePoint horizon) {
  GraphBuilder b(horizon, ValidityPolicy::kClamp);
  std::vector<IntervalSet> node_validity;
  for (int i = 0; i < num_nodes; ++i) {
    node_validity.push_back(RandomValidity(rng, horizon));
    b.AddNode("n" + std::to_string(i), node_validity.back(),
              static_cast<double>(rng->Uniform(5)) / 4.0);
  }
  int added = 0;
  for (int i = 0; i < num_edges * 3 && added < num_edges; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
    const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
    if (u == v) continue;
    IntervalSet validity = RandomValidity(rng, horizon);
    // kClamp trims edges to their endpoints' common validity but rejects
    // ones that end up never valid — only keep draws that survive, so
    // Build() below cannot fail. Edges whose validity pokes outside the
    // endpoints still exercise the clamping path.
    if (validity.Intersect(node_validity[static_cast<size_t>(u)])
            .Intersect(node_validity[static_cast<size_t>(v)])
            .IsEmpty()) {
      continue;
    }
    b.AddEdge(u, v, std::move(validity),
              static_cast<double>(1 + rng->Uniform(7)) / 4.0);
    ++added;
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// Bitwise equality — double == would also accept -0.0 vs 0.0 etc.; the
/// view must carry the exact bytes the graph carries.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The view's validity of an edge slot, materialized for comparison.
IntervalSet ViewEdgeValidity(const ExpansionView& view, int64_t slot) {
  return view.WithEdgeValidity(
      slot, [](const IntervalSet& v) { return IntervalSet(v); });
}

IntervalSet ViewNodeValidity(const ExpansionView& view, NodeId n) {
  return view.WithNodeValidity(
      n, [](const IntervalSet& v) { return IntervalSet(v); });
}

void ExpectViewMirrorsGraph(const TemporalGraph& g, Rng* rng) {
  const ExpansionView& view = g.expansion_view();
  int64_t uniform_nodes = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto in_edges = g.InEdges(n);
    // Uniform: every in-edge has the first one's (edge weight, source
    // weight) pair, bit for bit.
    bool uniform = true;
    for (const EdgeId e : in_edges) {
      const Edge& first = g.edge(in_edges.front());
      uniform = uniform && SameBits(g.edge(e).weight, first.weight) &&
                SameBits(g.node(g.edge(e).src).weight,
                         g.node(first.src).weight);
    }
    ASSERT_EQ(view.uniform_in(n), uniform) << "node " << n;
    uniform_nodes += uniform;
    const ExpansionView::SlotRange slots = view.InSlots(n);
    ASSERT_EQ(slots.end - slots.begin,
              static_cast<int64_t>(in_edges.size()));
    for (size_t i = 0; i < in_edges.size(); ++i) {
      const int64_t s = slots.begin + static_cast<int64_t>(i);
      const EdgeId e = in_edges[i];
      const Edge& edge = g.edge(e);
      ASSERT_EQ(view.edge_id(s), e);
      ASSERT_EQ(view.src(s), edge.src);
      ASSERT_TRUE(SameBits(view.edge_weight(s), edge.weight));
      ASSERT_EQ(ViewEdgeValidity(view, s), edge.validity);
      // The intersection helper must equal IntervalSet intersection for an
      // arbitrary probe (the iterators' T ∩ val(e) step).
      const IntervalSet probe = RandomValidity(rng, g.timeline_length());
      IntervalSet expected;
      expected.AssignIntersectionOf(probe, edge.validity);
      IntervalSet actual;
      view.IntersectEdgeValidity(s, probe, &actual);
      ASSERT_EQ(actual, expected);
      const TimePoint t =
          static_cast<TimePoint>(rng->Uniform(g.timeline_length()));
      ASSERT_EQ(view.EdgeAliveAt(s, t), edge.validity.Contains(t));
      if (view.uses_time_masks()) {
        ASSERT_EQ(view.edge_mask(s).ToIntervalSet(), edge.validity);
        TimeMask masked;
        view.IntersectEdgeValidity(s, TimeMask::FromIntervalSet(probe),
                                   &masked);
        ASSERT_EQ(masked.ToIntervalSet(), expected);
      }
    }
    const Node& node = g.node(n);
    ASSERT_TRUE(SameBits(view.node_weight(n), node.weight));
    ASSERT_EQ(ViewNodeValidity(view, n), node.validity);
    if (view.uses_time_masks()) {
      ASSERT_EQ(view.node_mask(n).ToIntervalSet(), node.validity);
    }
    const TimePoint t =
        static_cast<TimePoint>(rng->Uniform(g.timeline_length()));
    ASSERT_EQ(view.NodeAliveAt(n, t), node.validity.Contains(t));
  }
  const ExpansionView::LayoutStats& stats = view.layout_stats();
  EXPECT_EQ(stats.time_masks, TimeMask::Fits(g.timeline_length()));
  EXPECT_EQ(view.uses_time_masks(), stats.time_masks);
  EXPECT_EQ(stats.edge_slot_bytes, 32);
  EXPECT_EQ(stats.node_slot_bytes, 24);
  EXPECT_EQ(stats.edge_slots, static_cast<int64_t>(g.num_edges()));
  EXPECT_EQ(stats.inline_edge_slots + stats.pooled_edge_slots,
            stats.edge_slots);
  EXPECT_EQ(stats.inline_node_slots + stats.pooled_node_slots,
            static_cast<int64_t>(g.num_nodes()));
  EXPECT_EQ(stats.uniform_in_nodes, uniform_nodes);
}

TEST(ExpansionViewDifferentialTest, MirrorsInEdgesOn60RandomGraphs) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 7919);
    for (int round = 0; round < 6; ++round) {
      const int nodes = 8 + static_cast<int>(rng.Uniform(40));
      const int edges = nodes + static_cast<int>(rng.Uniform(4 * nodes));
      const TimePoint horizon = 6 + static_cast<TimePoint>(rng.Uniform(40));
      const TemporalGraph g = RandomGraph(&rng, nodes, edges, horizon);
      ASSERT_TRUE(g.expansion_view().uses_time_masks());
      ExpectViewMirrorsGraph(g, &rng);
      // The same elements over a wide timeline: the interval encoding.
      auto wide = RebuildWithTimeline(g, kWideTimeline);
      ASSERT_TRUE(wide.ok()) << wide.status();
      ASSERT_FALSE(wide->expansion_view().uses_time_masks());
      ExpectViewMirrorsGraph(*wide, &rng);
    }
  }
}

TEST(ExpansionViewTest, UniformInComparesIncrementPairs) {
  GraphBuilder b(4);
  const NodeId same = b.AddNode("same");
  const NodeId sums = b.AddNode("sums");
  const NodeId mixed = b.AddNode("mixed");
  const NodeId lone = b.AddNode("lone");
  const NodeId a = b.AddNode("a");
  const NodeId c = b.AddNode("c");
  const NodeId heavy = b.AddNode("heavy", IntervalSet{{0, 3}}, 0.5);
  b.AddEdge(a, same, 1.0);
  b.AddEdge(c, same, 1.0);
  // 0.5 + 0.5 and 1.0 + 0.0: equal sums of different pairs.
  b.AddEdge(heavy, sums, 0.5);
  b.AddEdge(a, sums, 1.0);
  b.AddEdge(a, mixed, 1.0);
  b.AddEdge(c, mixed, 2.0);
  b.AddEdge(heavy, lone, 3.0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const ExpansionView& view = g->expansion_view();
  EXPECT_TRUE(view.uniform_in(same));
  EXPECT_FALSE(view.uniform_in(sums));
  EXPECT_FALSE(view.uniform_in(mixed));
  EXPECT_TRUE(view.uniform_in(lone));  // One in-slot.
  EXPECT_TRUE(view.uniform_in(a));     // No in-slots.
  // All but `sums` and `mixed`.
  EXPECT_EQ(view.layout_stats().uniform_in_nodes, 5);
}

TEST(ExpansionViewTest, NarrowViewKeepsEveryValidityInItsSlot) {
  // A 128-instant timeline still fits a mask: multi-interval validities,
  // including runs in both words, stay in the slot and no pool exists.
  const IntervalSet spread{{0, 0}, {63, 64}, {100, 127}};
  GraphBuilder b(TimeMask::kCapacity, ValidityPolicy::kStrict);
  b.AddNode("a", spread, 1.0);
  b.AddNode("b", IntervalSet::All(TimeMask::kCapacity), 0.0);
  b.AddEdge(0, 1, IntervalSet{{63, 64}, {127, 127}}, 1.0);
  const TemporalGraph g = std::move(b.Build()).value();
  const ExpansionView& view = g.expansion_view();
  ASSERT_TRUE(view.uses_time_masks());
  const auto slots = view.InSlots(1);
  ASSERT_EQ(slots.end - slots.begin, 1);
  EXPECT_EQ(view.edge_mask(slots.begin),
            TimeMask::Range(63, 64) | TimeMask::Point(127));
  EXPECT_EQ(view.node_mask(0), TimeMask::FromIntervalSet(spread));
  EXPECT_EQ(view.node_mask(1), TimeMask::All(TimeMask::kCapacity));
  EXPECT_TRUE(view.pool().empty());
  const ExpansionView::LayoutStats& stats = view.layout_stats();
  EXPECT_TRUE(stats.time_masks);
  EXPECT_EQ(stats.inline_edge_slots, 1);
  EXPECT_EQ(stats.inline_node_slots, 2);
  EXPECT_EQ(stats.pooled_edge_slots + stats.pooled_node_slots, 0);
  EXPECT_EQ(stats.pool_entries, 0);

  // One instant more and the view switches to the wide encoding.
  auto wide = RebuildWithTimeline(g, TimeMask::kCapacity + 1);
  ASSERT_TRUE(wide.ok());
  EXPECT_FALSE(wide->expansion_view().uses_time_masks());
  EXPECT_EQ(wide->expansion_view().layout_stats().pool_entries, 2);
}

// Interning and the inline single-interval encoding belong to the wide
// view, so these two tests build over kWideTimeline.
TEST(ExpansionViewTest, SingleIntervalValidityStaysInline) {
  GraphBuilder b(kWideTimeline, ValidityPolicy::kStrict);
  b.AddNode("a", IntervalSet{{2, 9}}, 1.0);
  b.AddNode("b", IntervalSet{{0, 19}}, 0.0);
  b.AddEdge(0, 1, IntervalSet{{3, 7}}, 1.0);
  const TemporalGraph g = std::move(b.Build()).value();
  const ExpansionView& view = g.expansion_view();
  const auto slots = view.InSlots(1);
  ASSERT_EQ(slots.end - slots.begin, 1);
  EXPECT_EQ(view.edge_vpool(slots.begin), ExpansionView::kInlineValidity);
  EXPECT_EQ(view.node_vpool(0), ExpansionView::kInlineValidity);
  EXPECT_EQ(view.node_vpool(1), ExpansionView::kInlineValidity);
  EXPECT_TRUE(view.pool().empty());
  EXPECT_EQ(view.layout_stats().pool_entries, 0);
}

TEST(ExpansionViewTest, DuplicateValiditySetsAreInterned) {
  const IntervalSet shared{{1, 3}, {6, 9}};
  const IntervalSet other{{0, 2}, {5, 5}};
  GraphBuilder b(kWideTimeline, ValidityPolicy::kStrict);
  const NodeId hub = b.AddNode("hub", IntervalSet{{0, 11}}, 0.0);
  for (int i = 0; i < 4; ++i) {
    const NodeId n =
        b.AddNode("n" + std::to_string(i), IntervalSet{{0, 11}}, 0.0);
    b.AddEdge(n, hub, i < 3 ? shared : other, 1.0);
  }
  const TemporalGraph g = std::move(b.Build()).value();
  const ExpansionView& view = g.expansion_view();
  const auto slots = view.InSlots(hub);
  ASSERT_EQ(slots.end - slots.begin, 4);
  // The three `shared` edges reference one pool entry; `other` gets its own.
  const int32_t p0 = view.edge_vpool(slots.begin);
  ASSERT_GE(p0, 0);
  EXPECT_EQ(view.edge_vpool(slots.begin + 1), p0);
  EXPECT_EQ(view.edge_vpool(slots.begin + 2), p0);
  const int32_t p3 = view.edge_vpool(slots.begin + 3);
  ASSERT_GE(p3, 0);
  EXPECT_NE(p3, p0);
  EXPECT_EQ(view.pool().size(), 2u);
  EXPECT_EQ(view.pool()[static_cast<size_t>(p0)], shared);
  EXPECT_EQ(view.pool()[static_cast<size_t>(p3)], other);
  const ExpansionView::LayoutStats& stats = view.layout_stats();
  EXPECT_EQ(stats.pool_entries, 2);
  EXPECT_EQ(stats.intern_hits, 2);  // Second and third `shared` reference.
  EXPECT_EQ(stats.pooled_edge_slots, 4);
}

TEST(ExpansionViewTest, SerializationRoundTripRebuildsView) {
  Rng rng(424242);
  const TemporalGraph g = RandomGraph(&rng, 16, 40, 15);
  std::ostringstream text;
  ASSERT_TRUE(SaveGraph(g, text).ok());
  std::istringstream in(text.str());
  auto loaded = LoadGraph(in);
  ASSERT_TRUE(loaded.ok());
  // The load funnels through GraphBuilder, so the loaded graph carries a
  // fresh view mirroring its own adjacency.
  ExpectViewMirrorsGraph(loaded.value(), &rng);
}

}  // namespace
}  // namespace tgks::graph
