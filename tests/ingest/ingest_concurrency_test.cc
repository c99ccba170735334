// Concurrency hammer for LiveGraph, meant to run under TSan: concurrent
// ingest writers, a policy-driven background compactor, and search readers
// that pin snapshots mid-publish. The readers assert atomicity — every
// acquired snapshot is internally consistent (never a half-published
// batch), and a search through it sees exactly the nodes that snapshot
// claims to hold.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "ingest/live_graph.h"
#include "search/search_engine.h"
#include "temporal/interval_set.h"

namespace tgks::ingest {
namespace {

using temporal::IntervalSet;

constexpr graph::NodeId kBaseNodes = 3;
constexpr graph::EdgeId kBaseEdges = 2;
constexpr int kWriters = 3;
constexpr int kBatchesPerWriter = 40;
constexpr int kReaders = 3;

graph::TemporalGraph MakeBase() {
  graph::GraphBuilder b(/*timeline_length=*/8);
  const IntervalSet always{{0, 7}};
  b.AddNode("left", always, 1.0);
  b.AddNode("mid", always, 1.0);
  b.AddNode("right", always, 1.0);
  b.AddEdge(0, 1, always, 1.0);
  b.AddEdge(1, 2, always, 1.0);
  return std::move(b.Build()).value();
}

/// Every batch appends exactly one "live"-labeled node plus one edge from
/// base node 0 to it, so any consistent snapshot satisfies
///   delta_nodes == delta_edges == (number of fully applied batches)
/// and a half-published batch would break the node/edge balance.
IngestBatch MakeBatch(int writer, int tick) {
  IngestBatch batch;
  IngestNode node;
  node.label =
      "live w" + std::to_string(writer) + " t" + std::to_string(tick);
  node.weight = 1.0;
  node.validity = IntervalSet{{0, 7}};
  batch.nodes.push_back(std::move(node));
  IngestEdge edge;
  edge.src = 0;
  edge.dst_new = 0;
  batch.edges.push_back(edge);
  return batch;
}

TEST(IngestConcurrencyTest, ConcurrentIngestCompactionAndSearch) {
  CompactionPolicy policy;
  policy.max_delta_bytes = 4 * 1024;  // Compact often under the hammer.
  policy.max_delta_age_ms = 0;
  LiveGraph live(MakeBase(), policy);

  std::atomic<bool> done{false};
  std::atomic<int64_t> rejected{0};
  // Writers hold off until every reader is inside its loop, so on a loaded
  // host the readers still overlap the writes instead of starting after them.
  std::atomic<int> readers_running{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&live, &rejected, &readers_running, w] {
      while (readers_running.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      for (int t = 0; t < kBatchesPerWriter; ++t) {
        IngestErrorDetail error;
        if (!live.Apply(MakeBatch(w, t), &error).ok()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  std::vector<int64_t> reads(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&live, &done, &readers_running, &reads, r] {
      uint64_t last_generation = 0;
      search::Query query;
      query.keywords = {"live"};
      search::SearchOptions options;
      options.k = 0;  // Exhaustive: one result per matching node.
      bool running = false;
      while (!done.load(std::memory_order_acquire)) {
        if (!running) {
          running = true;
          readers_running.fetch_add(1, std::memory_order_release);
        }
        const GraphSnapshotHandle snap = live.Acquire();
        // Publishes are ordered: a later acquire never sees an older head.
        ASSERT_GE(snap->generation, last_generation);
        last_generation = snap->generation;

        // Atomicity: each batch lands whole, so nodes and edges added
        // since the base balance exactly.
        const graph::NodeId delta_nodes =
            snap->view().num_nodes() - kBaseNodes;
        const graph::EdgeId delta_edges =
            snap->view().num_edges() - kBaseEdges;
        ASSERT_EQ(delta_nodes, delta_edges)
            << "half-published batch at generation " << snap->generation;

        // A search through the pinned snapshot sees exactly its nodes —
        // racing publishes and compactions must not leak into the view.
        search::SearchEngine engine(snap->view(), snap->index.get());
        const auto response = engine.Search(query, options);
        ASSERT_TRUE(response.ok());
        ASSERT_EQ(static_cast<graph::NodeId>(response->results.size()),
                  delta_nodes)
            << "generation " << snap->generation;
        ++reads[static_cast<size_t>(r)];
      }
    });
  }

  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(rejected.load(), 0);
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_GT(reads[static_cast<size_t>(r)], 0) << "reader " << r;
  }

  // Quiesce: a final manual compact folds whatever the background thread
  // had not, and the folded graph holds every ingested node.
  ASSERT_TRUE(live.Compact(/*manual=*/true).ok());
  const GraphSnapshotHandle final_snap = live.Acquire();
  EXPECT_EQ(final_snap->overlay, nullptr);
  EXPECT_EQ(final_snap->graph->num_nodes(),
            kBaseNodes + kWriters * kBatchesPerWriter);
  EXPECT_EQ(final_snap->graph->num_edges(),
            kBaseEdges + kWriters * kBatchesPerWriter);
  const IngestStats stats = live.ingest_stats();
  EXPECT_EQ(stats.batches, kWriters * kBatchesPerWriter);
  EXPECT_EQ(stats.nodes_added, kWriters * kBatchesPerWriter);
  EXPECT_EQ(stats.edges_added, kWriters * kBatchesPerWriter);
}

}  // namespace
}  // namespace tgks::ingest
