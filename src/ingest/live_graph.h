// LiveGraph: the epoch/RCU publication layer that turns the build-once
// TemporalGraph into a live graph (docs/ingest.md).
//
// The design is reader-copy-update over immutable snapshots:
//
//   - a GraphSnapshot is an immutable view: the pooled base graph (SoA +
//     CSR, never mutated after Build(); its reachability labels are built
//     by the first caller that reads them), the base inverted index, and an
//     optional DeltaOverlay holding everything ingested since the base was
//     built;
//   - every query acquires ONE GraphSnapshotHandle (a shared_ptr) at
//     admission and runs entirely against it — zero locks on the search
//     path, and a publish racing the query retires the old snapshot only
//     after its last pinned reader drops the handle;
//   - Apply() validates a batch against the current snapshot, extends the
//     overlay (O(delta) copy; readers of the previous overlay are never
//     touched), and publishes a new snapshot under the writer mutex with a
//     bumped generation. The on_publish hook runs after the swap so the
//     serving layer can invalidate its result cache on every publish;
//   - Compact() folds the accumulated delta into a full GraphBuilder
//     rebuild (same element ids and order, so a compacted graph is
//     indistinguishable from a build-once graph). Queries keep reading
//     their pinned snapshots and the swap itself is a pointer store, but
//     the rebuild holds the writer mutex: an Apply() that arrives
//     meanwhile waits for it (tgks_ingest_lock_wait_micros).
//
// Writer-side mutual exclusion is one mutex (ingest batches and compaction
// serialize); reader-side is the head pointer's own lock, held only for a
// shared_ptr copy.

#ifndef TGKS_INGEST_LIVE_GRAPH_H_
#define TGKS_INGEST_LIVE_GRAPH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/result.h"
#include "graph/delta_overlay.h"
#include "graph/inverted_index.h"
#include "graph/temporal_graph.h"
#include "ingest/ingest_batch.h"

namespace tgks::ingest {

/// One immutable published view of the live graph. Queries read `graph`,
/// `index`, and `overlay` directly (overlay may be null — base-only
/// snapshot).
struct GraphSnapshot {
  uint64_t generation = 0;
  std::shared_ptr<const graph::TemporalGraph> graph;
  std::shared_ptr<const graph::InvertedIndex> index;
  std::shared_ptr<const graph::DeltaOverlay> overlay;

  /// The overlay pointer queries should carry: null when there is no delta
  /// (a base or freshly compacted snapshot behaves exactly like a
  /// build-once graph).
  const graph::DeltaOverlay* overlay_or_null() const {
    return overlay != nullptr && !overlay->empty() ? overlay.get() : nullptr;
  }
  graph::NodeId total_nodes() const {
    return overlay != nullptr ? overlay->total_nodes() : graph->num_nodes();
  }
  graph::EdgeId total_edges() const {
    return overlay != nullptr ? overlay->total_edges() : graph->num_edges();
  }
};

/// The RCU pin: holding it keeps every structure the snapshot references
/// alive, across any number of concurrent publishes and compactions.
using GraphSnapshotHandle = std::shared_ptr<const GraphSnapshot>;

/// When the background thread folds the delta into the base.
struct CompactionPolicy {
  /// Fold once the overlay's approximate footprint exceeds this.
  size_t max_delta_bytes = size_t{8} << 20;
  /// Fold once the oldest uncompacted publish is this old (<= 0 disables
  /// the age trigger).
  int64_t max_delta_age_ms = 30 * 1000;
  /// Background thread poll cadence.
  int64_t poll_interval_ms = 250;
  /// Start the background compaction thread (manual Compact() always
  /// works either way).
  bool background = true;
};

struct CompactionStats {
  int64_t runs = 0;         ///< Completed folds (policy + manual).
  int64_t manual_runs = 0;  ///< Folds triggered via Compact(true).
  int64_t nodes_folded = 0;
  int64_t edges_folded = 0;
  double last_rebuild_seconds = 0.0;  ///< Full rebuild wall time.
  double last_swap_seconds = 0.0;     ///< Publication pause (pointer swap).
};

struct IngestStats {
  int64_t batches = 0;
  int64_t nodes_added = 0;
  int64_t edges_added = 0;
};

class LiveGraph {
 public:
  /// Takes ownership of the base graph; the base inverted index is built
  /// here. Generation starts at 0 (the base snapshot).
  explicit LiveGraph(graph::TemporalGraph base, CompactionPolicy policy = {});
  ~LiveGraph();

  LiveGraph(const LiveGraph&) = delete;
  LiveGraph& operator=(const LiveGraph&) = delete;

  /// Pins the current snapshot. Thread-safe; one light lock, no contention
  /// with the search path.
  GraphSnapshotHandle Acquire() const;

  /// Generation of the current snapshot (bumped by every publish:
  /// ingest batches and compactions alike).
  uint64_t generation() const;

  /// Timeline length; fixed for the life of the live graph (ingest clips
  /// to it, compaction preserves it).
  temporal::TimePoint timeline_length() const;

  /// Validates `batch` against the current snapshot, then publishes a new
  /// snapshot containing it. On validation failure returns InvalidArgument
  /// with `*error` filled (error must be non-null) and publishes nothing.
  /// Returns the new generation.
  Result<uint64_t> Apply(const IngestBatch& batch, IngestErrorDetail* error);

  /// Folds the accumulated delta into a rebuilt base graph and publishes
  /// the compacted snapshot. No-op (returns the current generation) when
  /// there is no delta. `manual` marks the run in CompactionStats.
  Result<uint64_t> Compact(bool manual);

  /// Invoked with the new generation after every publish (ingest and
  /// compaction), while the writer mutex is held — keep it short. The
  /// serving layer hooks its result-cache invalidation here. Set before
  /// serving starts; not synchronized against concurrent Apply().
  void set_on_publish(std::function<void(uint64_t)> on_publish) {
    on_publish_ = std::move(on_publish);
  }

  CompactionStats compaction_stats() const;
  IngestStats ingest_stats() const;

  /// Approximate footprint of the current overlay (0 when compacted).
  size_t delta_bytes() const;

 private:
  /// Publishes `next` as the head snapshot and fires on_publish. Caller
  /// holds mu_.
  void Publish(std::shared_ptr<const GraphSnapshot> next);

  /// True when the policy wants a fold now. Caller holds mu_.
  bool ShouldCompactLocked() const;

  /// Compact() body; caller holds mu_.
  Result<uint64_t> CompactLocked(bool manual);

  void BackgroundLoop();

  CompactionPolicy policy_;

  /// Writer mutex: serializes Apply/Compact and guards every field below
  /// except head_ (which has its own lock so readers never wait on a
  /// rebuild).
  mutable std::mutex mu_;
  uint64_t generation_ = 0;
  IngestStats ingest_stats_;
  CompactionStats compaction_stats_;
  /// Steady-clock time of the first publish after the last compaction;
  /// only meaningful while the head overlay is non-empty.
  std::chrono::steady_clock::time_point first_uncompacted_publish_{};
  std::function<void(uint64_t)> on_publish_;

  mutable std::mutex head_mu_;
  GraphSnapshotHandle head_;

  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread compactor_;
};

}  // namespace tgks::ingest

#endif  // TGKS_INGEST_LIVE_GRAPH_H_
