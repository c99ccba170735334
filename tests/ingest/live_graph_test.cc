// Unit tests for the LiveGraph epoch/RCU publication layer
// (src/ingest/live_graph.h): snapshot pinning and isolation, apply-time
// validation semantics, overlay chaining, compaction equivalence and the
// publish hook.

#include "ingest/live_graph.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/temporal_graph.h"
#include "obs/metrics.h"
#include "search/search_engine.h"
#include "temporal/interval_set.h"

namespace tgks::ingest {
namespace {

using graph::NodeId;
using temporal::IntervalSet;

constexpr temporal::TimePoint kTimeline = 10;

/// Policy with both triggers off, so no compactor thread starts: every
/// test drives compaction explicitly so its assertions cannot race a
/// policy-triggered fold.
CompactionPolicy ManualOnly() {
  CompactionPolicy policy;
  policy.max_delta_bytes = 0;
  policy.max_delta_age_ms = 0;
  return policy;
}

graph::TemporalGraph MakeBase() {
  graph::GraphBuilder b(kTimeline);
  const IntervalSet always{{0, 9}};
  b.AddNode("alice", always, 1.0);   // id 0
  b.AddNode("bob", always, 2.0);     // id 1
  b.AddNode("carol", always, 3.0);   // id 2
  b.AddEdge(0, 1, always, 1.0);      // edge 0
  b.AddEdge(1, 2, always, 1.0);      // edge 1
  return std::move(b.Build()).value();
}

IngestNode MakeNode(const std::string& label, const IntervalSet& validity,
                    double weight = 0.0) {
  IngestNode node;
  node.label = label;
  node.weight = weight;
  node.validity = validity;
  return node;
}

/// Waits up to 10 s for the background thread to fold the delta away.
bool WaitForCompaction(LiveGraph* live) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (live->Acquire()->overlay != nullptr) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(LiveGraphTest, BaseSnapshotBehavesLikeBuildOnce) {
  LiveGraph live(MakeBase(), ManualOnly());
  EXPECT_EQ(live.generation(), 0u);
  EXPECT_EQ(live.timeline_length(), kTimeline);
  EXPECT_EQ(live.delta_bytes(), 0u);

  const GraphSnapshotHandle snap = live.Acquire();
  EXPECT_EQ(snap->generation, 0u);
  EXPECT_EQ(snap->overlay, nullptr);
  EXPECT_EQ(snap->view().overlay(), nullptr);
  EXPECT_EQ(snap->view().num_nodes(), 3);
  EXPECT_EQ(snap->view().num_edges(), 2);
  EXPECT_NE(snap->graph, nullptr);
  EXPECT_NE(snap->index, nullptr);
}

TEST(LiveGraphTest, ApplyPublishesAndPinnedReadersAreIsolated) {
  LiveGraph live(MakeBase(), ManualOnly());
  const GraphSnapshotHandle before = live.Acquire();

  IngestBatch batch;
  batch.nodes.push_back(MakeNode("dave", IntervalSet{{2, 7}}, 4.0));
  IngestEdge edge;
  edge.src = 0;
  edge.dst_new = 0;
  batch.edges.push_back(edge);
  IngestErrorDetail error;
  const auto generation = live.Apply(batch, &error);
  ASSERT_TRUE(generation.ok()) << error.message;
  EXPECT_EQ(*generation, 1u);
  EXPECT_EQ(live.generation(), 1u);

  // The handle pinned before the publish still reads the old view...
  EXPECT_EQ(before->generation, 0u);
  EXPECT_EQ(before->view().num_nodes(), 3);
  // ...while a fresh acquire sees the delta.
  const GraphSnapshotHandle after = live.Acquire();
  EXPECT_EQ(after->generation, 1u);
  EXPECT_EQ(after->view().num_nodes(), 4);
  EXPECT_EQ(after->view().num_edges(), 3);
  ASSERT_NE(after->view().overlay(), nullptr);
  EXPECT_EQ(after->view().node(3).label, "dave");
  EXPECT_GT(live.delta_bytes(), 0u);

  const IngestStats stats = live.ingest_stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.nodes_added, 1);
  EXPECT_EQ(stats.edges_added, 1);
}

TEST(LiveGraphTest, ApplyClampsEdgeValidityToEndpoints) {
  LiveGraph live(MakeBase(), ManualOnly());
  IngestBatch batch;
  batch.nodes.push_back(MakeNode("dave", IntervalSet{{2, 6}}));
  IngestEdge defaulted;  // Omitted validity = endpoint intersection.
  defaulted.src = 0;
  defaulted.dst_new = 0;
  IngestEdge clamped;  // Explicit validity intersected with the endpoints'.
  clamped.src_new = 0;
  clamped.dst = 1;
  clamped.validity = IntervalSet{{4, 9}};
  batch.edges.push_back(defaulted);
  batch.edges.push_back(clamped);
  IngestErrorDetail error;
  ASSERT_TRUE(live.Apply(batch, &error).ok()) << error.message;

  const GraphSnapshotHandle snap = live.Acquire();
  // Base node 0 is valid [0,9]; dave is [2,6].
  EXPECT_TRUE(snap->view().edge(2).validity ==
              IntervalSet({{2, 6}}));
  EXPECT_TRUE(snap->view().edge(3).validity ==
              IntervalSet({{4, 6}}));
  // Batch-relative refs resolved against the pre-batch total (3 nodes).
  EXPECT_EQ(snap->view().edge(2).dst, 3);
  EXPECT_EQ(snap->view().edge(3).src, 3);
}

TEST(LiveGraphTest, ApplyRejectsWithoutPublishing) {
  LiveGraph live(MakeBase(), ManualOnly());

  IngestBatch bad_ref;
  IngestEdge edge;
  edge.src = 99;  // No such node.
  edge.dst = 0;
  bad_ref.edges.push_back(edge);
  IngestErrorDetail error;
  EXPECT_FALSE(live.Apply(bad_ref, &error).ok());
  EXPECT_EQ(error.code, IngestErrorCode::kBadNodeRef);
  EXPECT_EQ(error.field, "edges");
  EXPECT_EQ(error.offset, 0);

  IngestBatch never_valid;
  never_valid.nodes.push_back(MakeNode("early", IntervalSet{{0, 2}}));
  never_valid.nodes.push_back(MakeNode("late", IntervalSet{{7, 9}}));
  IngestEdge disjoint;  // Endpoint lifetimes never overlap.
  disjoint.src_new = 0;
  disjoint.dst_new = 1;
  never_valid.edges.push_back(disjoint);
  EXPECT_FALSE(live.Apply(never_valid, &error).ok());
  EXPECT_EQ(error.code, IngestErrorCode::kEdgeNeverValid);

  // All-or-nothing: neither rejected batch published anything — not even
  // the two valid nodes of the second batch.
  EXPECT_EQ(live.generation(), 0u);
  EXPECT_EQ(live.Acquire()->view().num_nodes(), 3);
  EXPECT_EQ(live.ingest_stats().batches, 0);
}

TEST(LiveGraphTest, SecondApplyChainsTheOverlay) {
  LiveGraph live(MakeBase(), ManualOnly());
  IngestErrorDetail error;
  IngestBatch first;
  first.nodes.push_back(MakeNode("dave", IntervalSet{{0, 9}}));
  ASSERT_TRUE(live.Apply(first, &error).ok());
  const GraphSnapshotHandle mid = live.Acquire();

  IngestBatch second;
  second.nodes.push_back(MakeNode("erin", IntervalSet{{0, 9}}));
  IngestEdge edge;  // dave -> erin, across batches via absolute id.
  edge.src = 3;
  edge.dst_new = 0;
  second.edges.push_back(edge);
  ASSERT_TRUE(live.Apply(second, &error).ok());

  const GraphSnapshotHandle after = live.Acquire();
  EXPECT_EQ(after->generation, 2u);
  EXPECT_EQ(after->view().num_nodes(), 5);
  EXPECT_EQ(after->view().num_edges(), 3);
  EXPECT_EQ(after->view().node(4).label, "erin");
  EXPECT_EQ(after->view().edge(2).src, 3);
  EXPECT_EQ(after->view().edge(2).dst, 4);
  // The generation-1 pin still sees exactly the first batch.
  EXPECT_EQ(mid->view().num_nodes(), 4);
  EXPECT_EQ(mid->view().num_edges(), 2);
}

TEST(LiveGraphTest, CompactFoldsTheDeltaEquivalently) {
  LiveGraph live(MakeBase(), ManualOnly());
  IngestErrorDetail error;
  IngestBatch batch;
  batch.nodes.push_back(MakeNode("dave fresh", IntervalSet{{2, 7}}, 4.0));
  IngestEdge edge;
  edge.src = 2;
  edge.dst_new = 0;
  edge.weight = 2.0;
  batch.edges.push_back(edge);
  ASSERT_TRUE(live.Apply(batch, &error).ok());
  const GraphSnapshotHandle before = live.Acquire();

  const auto generation = live.Compact(/*manual=*/true);
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 2u);

  const GraphSnapshotHandle after = live.Acquire();
  EXPECT_EQ(after->generation, 2u);
  // The delta is folded in: no overlay, the rebuilt base owns everything.
  EXPECT_EQ(after->overlay, nullptr);
  EXPECT_EQ(live.delta_bytes(), 0u);
  ASSERT_EQ(after->graph->num_nodes(), before->view().num_nodes());
  ASSERT_EQ(after->graph->num_edges(), before->view().num_edges());
  // Element-for-element identity with the overlay view it replaced.
  for (NodeId n = 0; n < after->graph->num_nodes(); ++n) {
    const graph::Node& folded = after->graph->node(n);
    const graph::Node& overlaid = before->view().node(n);
    EXPECT_EQ(folded.label, overlaid.label) << "node " << n;
    EXPECT_EQ(folded.weight, overlaid.weight) << "node " << n;
    EXPECT_TRUE(folded.validity == overlaid.validity) << "node " << n;
  }
  for (graph::EdgeId e = 0; e < after->graph->num_edges(); ++e) {
    const graph::Edge& folded = after->graph->edge(e);
    const graph::Edge& overlaid = before->view().edge(e);
    EXPECT_EQ(folded.src, overlaid.src) << "edge " << e;
    EXPECT_EQ(folded.dst, overlaid.dst) << "edge " << e;
    EXPECT_EQ(folded.weight, overlaid.weight) << "edge " << e;
    EXPECT_TRUE(folded.validity == overlaid.validity) << "edge " << e;
  }
  // The rebuilt index answers for the folded labels.
  search::SearchEngine engine(*after->graph, after->index.get());
  search::Query query;
  query.keywords = {"fresh"};
  const auto response = engine.Search(query);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->results.size(), 1u);
  EXPECT_EQ(response->results[0].root, 3);

  const CompactionStats stats = live.compaction_stats();
  EXPECT_EQ(stats.runs, 1);
  EXPECT_EQ(stats.manual_runs, 1);
  EXPECT_EQ(stats.nodes_folded, 1);
  EXPECT_EQ(stats.edges_folded, 1);
  EXPECT_GE(stats.last_rebuild_seconds, 0.0);
  EXPECT_GE(stats.last_swap_seconds, 0.0);
}

TEST(LiveGraphTest, ApplyReportsLockWaitApartFromApplyTime) {
  LiveGraph live(MakeBase(), ManualOnly());
  IngestErrorDetail error;
  IngestBatch batch;
  batch.nodes.push_back(MakeNode("dave", IntervalSet{{0, 9}}));
  obs::MetricsRegistry& reg = obs::GlobalMetrics();
  const obs::Histogram* apply = reg.GetHistogram("tgks_ingest_apply_micros");
  const obs::Histogram* wait =
      reg.GetHistogram("tgks_ingest_lock_wait_micros");
  const int64_t applies = apply->count();
  const int64_t waits = wait->count();
  ASSERT_TRUE(live.Apply(batch, &error).ok());
  // One sample each per batch: the wait for the writer mutex is its own
  // histogram, not part of the apply time.
  EXPECT_EQ(apply->count(), applies + 1);
  EXPECT_EQ(wait->count(), waits + 1);
}

TEST(LiveGraphTest, CompactWithoutDeltaIsANoOp) {
  LiveGraph live(MakeBase(), ManualOnly());
  const auto generation = live.Compact(/*manual=*/true);
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 0u);
  EXPECT_EQ(live.compaction_stats().runs, 0);
}

TEST(LiveGraphTest, OnPublishFiresForApplyAndCompact) {
  LiveGraph live(MakeBase(), ManualOnly());
  std::vector<uint64_t> published;
  live.set_on_publish([&published](uint64_t generation, cache::ReadSet) {
    published.push_back(generation);
  });

  IngestErrorDetail error;
  IngestBatch batch;
  batch.nodes.push_back(MakeNode("dave", IntervalSet{{0, 9}}));
  ASSERT_TRUE(live.Apply(batch, &error).ok());
  ASSERT_TRUE(live.Compact(/*manual=*/true).ok());
  EXPECT_EQ(published, (std::vector<uint64_t>{1, 2}));
}

TEST(LiveGraphTest, SearchThroughTheOverlaySeesIngestedData) {
  LiveGraph live(MakeBase(), ManualOnly());
  IngestErrorDetail error;
  IngestBatch batch;
  batch.nodes.push_back(MakeNode("dave fresh", IntervalSet{{0, 9}}, 1.0));
  IngestEdge edge;
  edge.src = 0;
  edge.dst_new = 0;
  batch.edges.push_back(edge);
  ASSERT_TRUE(live.Apply(batch, &error).ok());

  const GraphSnapshotHandle snap = live.Acquire();
  search::SearchEngine engine(snap->view(), snap->index.get());
  search::Query query;
  query.keywords = {"fresh"};
  const auto response = engine.Search(query);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->results.size(), 1u);
  EXPECT_EQ(response->results[0].root, 3);

  // An engine over the base alone cannot see the delta.
  const search::SearchEngine base_engine(*snap->graph, snap->index.get());
  const auto blind = base_engine.Search(query);
  ASSERT_TRUE(blind.ok());
  EXPECT_TRUE(blind->results.empty());
}

TEST(LiveGraphTest, BackgroundCompactionFollowsTheSizePolicy) {
  CompactionPolicy policy;
  policy.max_delta_bytes = 1;  // Any delta triggers a fold on the write.
  policy.max_delta_age_ms = 0;
  LiveGraph live(MakeBase(), policy);

  IngestErrorDetail error;
  IngestBatch batch;
  batch.nodes.push_back(MakeNode("dave", IntervalSet{{0, 9}}));
  ASSERT_TRUE(live.Apply(batch, &error).ok());

  ASSERT_TRUE(WaitForCompaction(&live)) << "background compaction never fired";
  EXPECT_EQ(live.Acquire()->graph->num_nodes(), 4);
  EXPECT_EQ(live.compaction_stats().runs, 1);
  EXPECT_EQ(live.compaction_stats().manual_runs, 0);
}

// No write follows the only Apply, so nothing but the age deadline can wake
// the compactor.
TEST(LiveGraphTest, BackgroundCompactionFollowsTheAgePolicy) {
  CompactionPolicy policy;
  policy.max_delta_bytes = 0;
  policy.max_delta_age_ms = 50;
  LiveGraph live(MakeBase(), policy);

  IngestErrorDetail error;
  IngestBatch batch;
  batch.nodes.push_back(MakeNode("dave", IntervalSet{{0, 9}}));
  const auto applied = std::chrono::steady_clock::now();
  ASSERT_TRUE(live.Apply(batch, &error).ok());

  ASSERT_TRUE(WaitForCompaction(&live)) << "background compaction never fired";
  EXPECT_GE(std::chrono::steady_clock::now() - applied,
            std::chrono::milliseconds(50));
  EXPECT_EQ(live.Acquire()->graph->num_nodes(), 4);
  EXPECT_EQ(live.compaction_stats().runs, 1);
  EXPECT_EQ(live.compaction_stats().manual_runs, 0);
}

}  // namespace
}  // namespace tgks::ingest
