// GraphView: the temporal graph one search reads — a built base graph
// alone, or the base plus a live snapshot's delta overlay (docs/ingest.md).
//
// Over a live graph a search routes element ids between base and delta
// storage, walks each node's base in-edge run and then its delta run, and
// merges delta postings into its keyword match sets. The view makes that
// choice once: it stores an empty overlay as null at construction, so a
// base or freshly compacted snapshot reads exactly like a build-once graph,
// and it is the only place that answers num_nodes(), node(id), edge(id),
// the delta postings and which slot reader (expansion_reader.h) the
// expansion loops run on.
//
// A view is two pointers, passed and stored by value; the graph and overlay
// it points to must outlive it. It converts implicitly from a
// TemporalGraph, so code over a build-once graph passes the graph itself.

#ifndef TGKS_GRAPH_GRAPH_VIEW_H_
#define TGKS_GRAPH_GRAPH_VIEW_H_

#include <span>
#include <string_view>

#include "common/strings.h"
#include "graph/delta_overlay.h"
#include "graph/expansion_reader.h"
#include "graph/expansion_view.h"
#include "graph/temporal_graph.h"
#include "temporal/time_point.h"

namespace tgks::graph {

class GraphView {
 public:
  /// The base graph alone.
  GraphView(const TemporalGraph& base)  // NOLINT(runtime/explicit)
      : base_(&base) {}
  /// `base` extended by `overlay` (not owned); a null or empty overlay
  /// leaves the base alone.
  GraphView(const TemporalGraph& base, const DeltaOverlay* overlay)
      : base_(&base),
        overlay_(overlay != nullptr && !overlay->empty() ? overlay : nullptr) {
  }
  /// A view of a temporary graph would dangle.
  GraphView(const TemporalGraph&&) = delete;
  GraphView(const TemporalGraph&&, const DeltaOverlay*) = delete;

  /// The non-empty delta, or null.
  const DeltaOverlay* overlay() const { return overlay_; }
  temporal::TimePoint timeline_length() const {
    return base_->timeline_length();
  }

  /// Element counts and reads by absolute id, base and delta alike.
  NodeId num_nodes() const {
    return overlay_ != nullptr ? overlay_->total_nodes() : base_->num_nodes();
  }
  EdgeId num_edges() const {
    return overlay_ != nullptr ? overlay_->total_edges() : base_->num_edges();
  }
  const Node& node(NodeId id) const {
    return overlay_ != nullptr && overlay_->IsDeltaNode(id)
               ? overlay_->delta_node(id)
               : base_->node(id);
  }
  const Edge& edge(EdgeId id) const {
    return overlay_ != nullptr && overlay_->IsDeltaEdge(id)
               ? overlay_->delta_edge(id)
               : base_->edge(id);
  }

  /// The delta nodes whose label holds `keyword` (ASCII case-insensitive,
  /// as InvertedIndex::Lookup), ascending and all past every base id;
  /// empty without a delta.
  std::span<const NodeId> DeltaPostings(std::string_view keyword) const {
    if (overlay_ == nullptr) return {};
    return overlay_->Postings(AsciiToLower(keyword));
  }

  /// Calls `fn` with the slot reader over this view: BaseExpansionReader,
  /// or OverlayExpansionReader when there is a delta.
  template <typename Fn>
  decltype(auto) WithReader(Fn&& fn) const {
    const ExpansionView& view = base_->expansion_view();
    if (overlay_ != nullptr) return fn(OverlayExpansionReader{view, *overlay_});
    return fn(BaseExpansionReader{view});
  }

 private:
  const TemporalGraph* base_;
  const DeltaOverlay* overlay_ = nullptr;
};

}  // namespace tgks::graph

#endif  // TGKS_GRAPH_GRAPH_VIEW_H_
