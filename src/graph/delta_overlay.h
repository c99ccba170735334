// DeltaOverlay: an immutable append layer over a built TemporalGraph.
//
// Streaming ingest never mutates the pooled SoA structures built by
// GraphBuilder::Build(). Instead, each publish produces a fresh overlay
// holding every node and edge appended since the base graph was built:
//
//   - delta nodes get ids base_num_nodes() .. total_nodes()-1 and delta
//     edges get ids base_num_edges() .. total_edges()-1, so all base
//     structures stay valid verbatim and an id comparison routes reads;
//   - per-node delta in-edge runs, grouped by destination in ascending
//     edge-id order. Because the base CSR also enumerates InEdges(n) in
//     ascending edge-id order (GraphBuilder's counting sort iterates edge
//     ids in order), scanning the base ExpansionView run and then the delta
//     run reproduces exactly the enumeration a build-once graph would have
//     produced — which is what keeps the replay-equivalence suite's work
//     counters bit-identical;
//   - delta posting lists per label word, merged into match sets at
//     materialization time (delta ids sort after every base id, so the
//     merge is an append);
//   - the model invariant val(n) ⊇ val(e) is preserved because ingest
//     intersects every delta edge's validity with both endpoints' before
//     the edge reaches the overlay (src/ingest/ingest_batch.h);
//   - over a narrow base (ExpansionView::uses_time_masks()), per-slot edge
//     masks and per-node masks precomputed at Extend(), so delta expansion
//     runs on the same word operations as base expansion.
//
// An overlay is immutable after construction and shared by all snapshots
// that reference it; Extend() builds the successor overlay by copying the
// accumulated delta (O(delta), bounded by the compaction policy) — readers
// holding the previous overlay are never touched.

#ifndef TGKS_GRAPH_DELTA_OVERLAY_H_
#define TGKS_GRAPH_DELTA_OVERLAY_H_

#include <cassert>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/expansion_view.h"
#include "graph/temporal_graph.h"
#include "temporal/interval_set.h"
#include "temporal/time_mask.h"

namespace tgks::graph {

/// Immutable append overlay over a base TemporalGraph. Construct via
/// Extend(); share via shared_ptr (snapshots pin overlays by reference).
class DeltaOverlay {
 public:
  using SlotRange = ExpansionView::SlotRange;

  DeltaOverlay() = default;

  /// Builds the successor overlay: `prev`'s accumulated delta (nullptr for
  /// the first publish) plus `new_nodes` and `new_edges`. New node ids must
  /// already be absolute (assigned sequentially after prev's last id) and
  /// new edges must reference existing (base, prev-delta, or same-batch)
  /// nodes with validity already clamped to the endpoint intersection.
  static std::shared_ptr<const DeltaOverlay> Extend(
      const TemporalGraph& base, const DeltaOverlay* prev,
      std::vector<Node> new_nodes, std::vector<Edge> new_edges);

  NodeId base_num_nodes() const { return base_num_nodes_; }
  EdgeId base_num_edges() const { return base_num_edges_; }
  NodeId num_delta_nodes() const {
    return static_cast<NodeId>(delta_nodes_.size());
  }
  EdgeId num_delta_edges() const {
    return static_cast<EdgeId>(delta_edges_.size());
  }
  NodeId total_nodes() const { return base_num_nodes_ + num_delta_nodes(); }
  EdgeId total_edges() const { return base_num_edges_ + num_delta_edges(); }
  bool empty() const { return delta_nodes_.empty() && delta_edges_.empty(); }

  bool IsDeltaNode(NodeId id) const { return id >= base_num_nodes_; }
  bool IsDeltaEdge(EdgeId id) const { return id >= base_num_edges_; }

  /// Cold-path accessors by absolute id (id must be a delta id); GraphView
  /// routes any id between these and the base graph.
  const Node& delta_node(NodeId id) const {
    assert(IsDeltaNode(id) && id < total_nodes());
    return delta_nodes_[static_cast<size_t>(id - base_num_nodes_)];
  }
  const Edge& delta_edge(EdgeId id) const {
    assert(IsDeltaEdge(id) && id < total_edges());
    return delta_edges_[static_cast<size_t>(id - base_num_edges_)];
  }

  /// The delta in-edge run of node `n` (absolute id; base or delta node),
  /// in ascending edge-id order. Slots index this overlay's delta slot
  /// array and are disjoint from base ExpansionView slots.
  SlotRange DeltaInSlots(NodeId n) const {
    const auto it = in_runs_.find(n);
    if (it == in_runs_.end()) return {0, 0};
    return it->second;
  }

  /// ExpansionView-mirroring accessors over delta slots.
  EdgeId edge_id(int64_t slot) const {
    return slot_edges_[static_cast<size_t>(slot)];
  }
  NodeId src(int64_t slot) const { return slot_ref(slot).src; }
  double edge_weight(int64_t slot) const { return slot_ref(slot).weight; }

  double node_weight(NodeId n) const { return delta_node(n).weight; }

  void IntersectEdgeValidity(int64_t slot, const temporal::IntervalSet& t,
                             temporal::IntervalSet* out) const {
    out->AssignIntersectionOf(t, slot_ref(slot).validity);
  }

  /// Narrow bases only: the precomputed validity masks of the edge at
  /// delta slot `slot` / of delta node `n`, and the mask intersection.
  const temporal::TimeMask& edge_mask(int64_t slot) const {
    return slot_masks_[static_cast<size_t>(slot)];
  }
  const temporal::TimeMask& node_mask(NodeId n) const {
    assert(IsDeltaNode(n) && n < total_nodes());
    return node_masks_[static_cast<size_t>(n - base_num_nodes_)];
  }
  void IntersectEdgeValidity(int64_t slot, const temporal::TimeMask& t,
                             temporal::TimeMask* out) const {
    *out = t & edge_mask(slot);
  }

  template <typename Fn>
  decltype(auto) WithEdgeValidity(int64_t slot, Fn&& fn) const {
    return fn(slot_ref(slot).validity);
  }

  template <typename Fn>
  decltype(auto) WithNodeValidity(NodeId n, Fn&& fn) const {
    return fn(delta_node(n).validity);
  }

  /// Delta posting list for an already case-folded label word, ascending
  /// absolute node ids. Every id is >= base_num_nodes(), so appending to a
  /// base posting list preserves sorted order.
  std::span<const NodeId> Postings(std::string_view folded_word) const;

  /// Full accumulated delta, for Extend() and compaction.
  const std::vector<Node>& delta_nodes() const { return delta_nodes_; }
  const std::vector<Edge>& delta_edges() const { return delta_edges_; }

  /// Approximate heap footprint of the accumulated delta, for the
  /// size-triggered compaction policy.
  size_t ApproxBytes() const { return approx_bytes_; }

 private:
  const Edge& slot_ref(int64_t slot) const {
    return delta_edges_[static_cast<size_t>(
        slot_edges_[static_cast<size_t>(slot)] - base_num_edges_)];
  }

  NodeId base_num_nodes_ = 0;
  EdgeId base_num_edges_ = 0;
  std::vector<Node> delta_nodes_;
  std::vector<Edge> delta_edges_;

  // Delta in-edge slots grouped by destination; each run ascends in edge
  // id. slot_edges_ holds absolute edge ids; in_runs_ maps a destination
  // node to its contiguous run (hash map, not a dense offsets array, so a
  // publish stays O(delta) instead of O(total_nodes)).
  std::vector<EdgeId> slot_edges_;
  std::unordered_map<NodeId, SlotRange> in_runs_;
  // Narrow bases only (empty otherwise): validity masks per delta slot and
  // per delta node.
  std::vector<temporal::TimeMask> slot_masks_;
  std::vector<temporal::TimeMask> node_masks_;

  std::unordered_map<std::string, std::vector<NodeId>> postings_;
  size_t approx_bytes_ = 0;
};

}  // namespace tgks::graph

#endif  // TGKS_GRAPH_DELTA_OVERLAY_H_
