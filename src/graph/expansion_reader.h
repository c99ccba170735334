// Slot readers that parameterize the best path iterator's expansion loops.
//
// The iterator's hot loop walks a node's in-edge slots and reads per-slot
// src / weight / validity plus per-node weight / validity. On a build-once
// graph those reads go straight to the base ExpansionView; on a live graph
// (streaming ingest) they must also cover the snapshot's delta overlay.
// Rather than branch on every access, each loop body is a template over a
// Reader type and instantiated twice. GraphView::WithReader (graph_view.h)
// is the one place that picks the instantiation:
//
//   BaseExpansionReader    — thin inline forwards to the ExpansionView; the
//                            instantiation compiles to exactly the
//                            pre-overlay code, so build-once graphs see zero
//                            behavior or performance change.
//   OverlayExpansionReader — walks the base run and then the node's delta
//                            run. Slot handles are sign-encoded (s >= 0:
//                            base slot; s < 0: delta slot -(s+1)) and node
//                            accessors route by id. Per-node enumeration —
//                            base run then delta run, each ascending in
//                            edge id — equals the in-edge order of a graph
//                            rebuilt with the delta folded in, which keeps
//                            replayed work counters bit-identical to
//                            build-once runs (GraphBuilder's CSR counting
//                            sort also emits ascending edge ids).
//
// Both readers serve validity in the two representations of the view:
// TimeMask accessors (edge_mask / node_mask and the mask intersection) on
// narrow timelines, IntervalSet ones everywhere.
//
// UniformIn(n) tells the lazy relevance frontier that n's in-slots are one
// base run [BaseInSlots(n)) sharing one increment. A base node with a live
// delta run, and every delta node, reports false.

#ifndef TGKS_GRAPH_EXPANSION_READER_H_
#define TGKS_GRAPH_EXPANSION_READER_H_

#include <cstdint>
#include <utility>

#include "graph/delta_overlay.h"
#include "graph/expansion_view.h"
#include "graph/temporal_graph.h"
#include "temporal/time_mask.h"

namespace tgks::graph {

/// Slot reader over the base ExpansionView only.
struct BaseExpansionReader {
  const ExpansionView& view;

  template <typename Fn>
  void ForEachInSlot(NodeId node, Fn&& fn) const {
    const ExpansionView::SlotRange slots = view.InSlots(node);
    for (int64_t s = slots.begin; s < slots.end; ++s) fn(s);
  }
  bool UniformIn(NodeId node) const { return view.uniform_in(node); }
  ExpansionView::SlotRange BaseInSlots(NodeId node) const {
    return view.InSlots(node);
  }
  NodeId src(int64_t s) const { return view.src(s); }
  EdgeId edge_id(int64_t s) const { return view.edge_id(s); }
  double edge_weight(int64_t s) const { return view.edge_weight(s); }
  double node_weight(NodeId n) const { return view.node_weight(n); }
  const temporal::TimeMask& edge_mask(int64_t s) const {
    return view.edge_mask(s);
  }
  const temporal::TimeMask& node_mask(NodeId n) const {
    return view.node_mask(n);
  }
  template <typename Time>
  void IntersectEdgeValidity(int64_t s, const Time& t, Time* out) const {
    view.IntersectEdgeValidity(s, t, out);
  }
  template <typename Fn>
  decltype(auto) WithEdgeValidity(int64_t s, Fn&& fn) const {
    return view.WithEdgeValidity(s, std::forward<Fn>(fn));
  }
  template <typename Fn>
  decltype(auto) WithNodeValidity(NodeId n, Fn&& fn) const {
    return view.WithNodeValidity(n, std::forward<Fn>(fn));
  }
};

/// Slot reader over base ExpansionView + delta overlay (live snapshots).
struct OverlayExpansionReader {
  const ExpansionView& view;
  const DeltaOverlay& overlay;

  static int64_t EncodeDelta(int64_t s) { return -(s + 1); }
  static int64_t DecodeDelta(int64_t s) { return -s - 1; }

  template <typename Fn>
  void ForEachInSlot(NodeId node, Fn&& fn) const {
    if (node < overlay.base_num_nodes()) {
      const ExpansionView::SlotRange slots = view.InSlots(node);
      for (int64_t s = slots.begin; s < slots.end; ++s) fn(s);
    }
    const ExpansionView::SlotRange delta = overlay.DeltaInSlots(node);
    for (int64_t s = delta.begin; s < delta.end; ++s) fn(EncodeDelta(s));
  }
  bool UniformIn(NodeId node) const {
    // The bit first: a non-uniform node skips the delta-run lookup.
    if (node >= overlay.base_num_nodes() || !view.uniform_in(node)) {
      return false;
    }
    const ExpansionView::SlotRange delta = overlay.DeltaInSlots(node);
    return delta.begin == delta.end;
  }
  ExpansionView::SlotRange BaseInSlots(NodeId node) const {
    return view.InSlots(node);
  }
  NodeId src(int64_t s) const {
    return s >= 0 ? view.src(s) : overlay.src(DecodeDelta(s));
  }
  EdgeId edge_id(int64_t s) const {
    return s >= 0 ? view.edge_id(s) : overlay.edge_id(DecodeDelta(s));
  }
  double edge_weight(int64_t s) const {
    return s >= 0 ? view.edge_weight(s) : overlay.edge_weight(DecodeDelta(s));
  }
  double node_weight(NodeId n) const {
    return overlay.IsDeltaNode(n) ? overlay.node_weight(n)
                                  : view.node_weight(n);
  }
  const temporal::TimeMask& edge_mask(int64_t s) const {
    return s >= 0 ? view.edge_mask(s) : overlay.edge_mask(DecodeDelta(s));
  }
  const temporal::TimeMask& node_mask(NodeId n) const {
    return overlay.IsDeltaNode(n) ? overlay.node_mask(n) : view.node_mask(n);
  }
  template <typename Time>
  void IntersectEdgeValidity(int64_t s, const Time& t, Time* out) const {
    if (s >= 0) {
      view.IntersectEdgeValidity(s, t, out);
    } else {
      overlay.IntersectEdgeValidity(DecodeDelta(s), t, out);
    }
  }
  template <typename Fn>
  decltype(auto) WithEdgeValidity(int64_t s, Fn&& fn) const {
    if (s >= 0) return view.WithEdgeValidity(s, std::forward<Fn>(fn));
    return overlay.WithEdgeValidity(DecodeDelta(s), std::forward<Fn>(fn));
  }
  template <typename Fn>
  decltype(auto) WithNodeValidity(NodeId n, Fn&& fn) const {
    if (!overlay.IsDeltaNode(n)) {
      return view.WithNodeValidity(n, std::forward<Fn>(fn));
    }
    return overlay.WithNodeValidity(n, std::forward<Fn>(fn));
  }
};

}  // namespace tgks::graph

#endif  // TGKS_GRAPH_EXPANSION_READER_H_
