// Classic (time-oblivious) single-source backward Dijkstra — the path
// iterator of BANKS [9].
//
// Deliberately an independent implementation from search::BestPathIterator:
// it is both the building block of the BANKS(W)/BANKS(I) comparison systems
// (§6.1) and an independent cross-check for the temporal iterator's
// single-snapshot behaviour. Like the temporal iterators, its working state
// (per-node labels, the frontier heap) lives in a pooled scratch so the
// snapshot sweeps of BANKS(I) — thousands of iterators per query — reuse
// memory instead of churning hash maps. It walks the base ExpansionView of
// a build-once graph; live snapshots (delta overlays) are searched only by
// the engine's keyword frontiers.

#ifndef TGKS_BASELINE_DIJKSTRA_ITERATOR_H_
#define TGKS_BASELINE_DIJKSTRA_ITERATOR_H_

#include <optional>
#include <vector>

#include "common/epoch_table.h"
#include "common/scratch_pool.h"
#include "graph/temporal_graph.h"
#include "search/quad_heap.h"
#include "temporal/time_point.h"

namespace tgks::baseline {

/// Per-node Dijkstra label: the best distance seen, the edge it came in
/// through, and whether the node is settled.
struct DijkstraLabel {
  double dist = 0.0;
  graph::EdgeId parent_edge = graph::kInvalidEdge;
  bool settled = false;
};

struct DijkstraQueueEntry {
  double dist;
  graph::NodeId node;
};
struct DijkstraQueueBetter {
  // Smallest (dist, node) pops first — a strict total order, so the pop
  // sequence matches any conforming priority queue exactly.
  bool operator()(const DijkstraQueueEntry& a,
                  const DijkstraQueueEntry& b) const {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.node < b.node;
  }
};

/// Pooled working state of one Dijkstra run.
struct DijkstraScratch {
  common::FlatEpochMap<DijkstraLabel> labels;
  search::QuadHeap<DijkstraQueueEntry, DijkstraQueueBetter> queue;

  void Reset() {
    labels.Clear();
    queue.clear();
  }
};

using DijkstraScratchPool = common::ScratchPool<DijkstraScratch, 8192>;

/// Backward Dijkstra from one source over a temporal graph viewed either
/// whole (timestamps ignored — BANKS(W)) or restricted to one snapshot
/// (BANKS(I)). Expands one settled node per Next() call; records a single
/// shortest-path parent per node.
class DijkstraIterator {
 public:
  /// `snapshot`: when set, nodes/edges not alive at that instant are
  /// invisible. The graph must outlive the iterator.
  DijkstraIterator(const graph::TemporalGraph& graph, graph::NodeId source,
                   std::optional<temporal::TimePoint> snapshot = std::nullopt);

  DijkstraIterator(const DijkstraIterator&) = delete;
  DijkstraIterator& operator=(const DijkstraIterator&) = delete;
  DijkstraIterator(DijkstraIterator&&) noexcept = default;

  /// Settles and expands the next nearest node; returns it, or kInvalidNode
  /// when the frontier is exhausted.
  graph::NodeId Next();

  /// Distance of the node Next() would settle; nullopt when exhausted.
  std::optional<double> PeekDistance();

  /// Shortest distance to `node`; nullopt if not settled (yet).
  std::optional<double> DistanceTo(graph::NodeId node) const;

  /// Forward path node -> ... -> source as edge ids; empty for the source.
  /// `node` must be settled.
  std::vector<graph::EdgeId> PathEdges(graph::NodeId node) const;
  /// PathEdges appended to `*out`.
  void PathEdgesInto(graph::NodeId node, std::vector<graph::EdgeId>* out) const;

  graph::NodeId source() const { return source_; }
  int64_t nodes_settled() const { return nodes_settled_; }

 private:
  bool NodeVisible(graph::NodeId n) const;
  void SettleTop();

  const graph::TemporalGraph* graph_;
  graph::NodeId source_;
  std::optional<temporal::TimePoint> snapshot_;
  DijkstraScratchPool::Handle scratch_;
  int64_t nodes_settled_ = 0;
};

}  // namespace tgks::baseline

#endif  // TGKS_BASELINE_DIJKSTRA_ITERATOR_H_
