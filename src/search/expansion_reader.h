// Slot readers that parameterize the iterators' expansion loops.
//
// Every iterator's hot loop walks a node's in-edge slots and reads per-slot
// src / weight / validity plus per-node weight / validity. On a build-once
// graph those reads go straight to the base ExpansionView; on a live graph
// (streaming ingest) they must also cover the snapshot's delta overlay.
// Rather than branch on every access, each loop body is a template over a
// Reader type and instantiated twice:
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

#ifndef TGKS_SEARCH_EXPANSION_READER_H_
#define TGKS_SEARCH_EXPANSION_READER_H_

#include <cstdint>
#include <utility>

#include "graph/delta_overlay.h"
#include "graph/expansion_view.h"
#include "graph/temporal_graph.h"
#include "temporal/interval_set.h"
#include "temporal/time_mask.h"
#include "temporal/time_point.h"

namespace tgks::search {

/// Slot reader over the base ExpansionView only.
struct BaseExpansionReader {
  const graph::ExpansionView& view;

  template <typename Fn>
  void ForEachInSlot(graph::NodeId node, Fn&& fn) const {
    const graph::ExpansionView::SlotRange slots = view.InSlots(node);
    for (int64_t s = slots.begin; s < slots.end; ++s) fn(s);
  }
  bool UniformIn(graph::NodeId node) const { return view.uniform_in(node); }
  graph::ExpansionView::SlotRange BaseInSlots(graph::NodeId node) const {
    return view.InSlots(node);
  }
  graph::NodeId src(int64_t s) const { return view.src(s); }
  graph::EdgeId edge_id(int64_t s) const { return view.edge_id(s); }
  double edge_weight(int64_t s) const { return view.edge_weight(s); }
  double node_weight(graph::NodeId n) const { return view.node_weight(n); }
  const temporal::TimeMask& edge_mask(int64_t s) const {
    return view.edge_mask(s);
  }
  const temporal::TimeMask& node_mask(graph::NodeId n) const {
    return view.node_mask(n);
  }
  template <typename Time>
  void IntersectEdgeValidity(int64_t s, const Time& t, Time* out) const {
    view.IntersectEdgeValidity(s, t, out);
  }
  bool EdgeAliveAt(int64_t s, temporal::TimePoint t) const {
    return view.EdgeAliveAt(s, t);
  }
  bool NodeAliveAt(graph::NodeId n, temporal::TimePoint t) const {
    return view.NodeAliveAt(n, t);
  }
  template <typename Fn>
  decltype(auto) WithEdgeValidity(int64_t s, Fn&& fn) const {
    return view.WithEdgeValidity(s, std::forward<Fn>(fn));
  }
  template <typename Fn>
  decltype(auto) WithNodeValidity(graph::NodeId n, Fn&& fn) const {
    return view.WithNodeValidity(n, std::forward<Fn>(fn));
  }
};

/// Slot reader over base ExpansionView + delta overlay (live snapshots).
struct OverlayExpansionReader {
  const graph::ExpansionView& view;
  const graph::DeltaOverlay& overlay;

  static int64_t EncodeDelta(int64_t s) { return -(s + 1); }
  static int64_t DecodeDelta(int64_t s) { return -s - 1; }

  template <typename Fn>
  void ForEachInSlot(graph::NodeId node, Fn&& fn) const {
    if (node < overlay.base_num_nodes()) {
      const graph::ExpansionView::SlotRange slots = view.InSlots(node);
      for (int64_t s = slots.begin; s < slots.end; ++s) fn(s);
    }
    const graph::ExpansionView::SlotRange delta = overlay.DeltaInSlots(node);
    for (int64_t s = delta.begin; s < delta.end; ++s) fn(EncodeDelta(s));
  }
  bool UniformIn(graph::NodeId node) const {
    // The bit first: a non-uniform node skips the delta-run lookup.
    if (node >= overlay.base_num_nodes() || !view.uniform_in(node)) {
      return false;
    }
    const graph::ExpansionView::SlotRange delta = overlay.DeltaInSlots(node);
    return delta.begin == delta.end;
  }
  graph::ExpansionView::SlotRange BaseInSlots(graph::NodeId node) const {
    return view.InSlots(node);
  }
  graph::NodeId src(int64_t s) const {
    return s >= 0 ? view.src(s) : overlay.src(DecodeDelta(s));
  }
  graph::EdgeId edge_id(int64_t s) const {
    return s >= 0 ? view.edge_id(s) : overlay.edge_id(DecodeDelta(s));
  }
  double edge_weight(int64_t s) const {
    return s >= 0 ? view.edge_weight(s) : overlay.edge_weight(DecodeDelta(s));
  }
  double node_weight(graph::NodeId n) const {
    return overlay.IsDeltaNode(n) ? overlay.node_weight(n)
                                  : view.node_weight(n);
  }
  const temporal::TimeMask& edge_mask(int64_t s) const {
    return s >= 0 ? view.edge_mask(s) : overlay.edge_mask(DecodeDelta(s));
  }
  const temporal::TimeMask& node_mask(graph::NodeId n) const {
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
  bool EdgeAliveAt(int64_t s, temporal::TimePoint t) const {
    return s >= 0 ? view.EdgeAliveAt(s, t)
                  : overlay.EdgeAliveAt(DecodeDelta(s), t);
  }
  bool NodeAliveAt(graph::NodeId n, temporal::TimePoint t) const {
    return overlay.IsDeltaNode(n) ? overlay.NodeAliveAt(n, t)
                                  : view.NodeAliveAt(n, t);
  }
  template <typename Fn>
  decltype(auto) WithEdgeValidity(int64_t s, Fn&& fn) const {
    if (s >= 0) return view.WithEdgeValidity(s, std::forward<Fn>(fn));
    return overlay.WithEdgeValidity(DecodeDelta(s), std::forward<Fn>(fn));
  }
  template <typename Fn>
  decltype(auto) WithNodeValidity(graph::NodeId n, Fn&& fn) const {
    if (!overlay.IsDeltaNode(n)) {
      return view.WithNodeValidity(n, std::forward<Fn>(fn));
    }
    return overlay.WithNodeValidity(n, std::forward<Fn>(fn));
  }
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_EXPANSION_READER_H_
