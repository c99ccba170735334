#include "graph/expansion_view.h"

#include <cstring>
#include <span>
#include <string>
#include <unordered_map>

namespace tgks::graph {

using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

namespace {

// Byte key of a canonical interval list. Interval is two TimePoints with no
// padding, and canonical form is unique per set, so byte equality is set
// equality.
std::string PoolKey(const IntervalSet& set) {
  static_assert(sizeof(Interval) == 2 * sizeof(TimePoint));
  const std::span<const Interval> ivs = set.intervals();
  return std::string(reinterpret_cast<const char*>(ivs.data()),
                     ivs.size_bytes());
}

}  // namespace

ExpansionView ExpansionView::Build(const TemporalGraph& g) {
  ExpansionView view;
  const NodeId n = g.num_nodes();
  view.time_masks_ = temporal::TimeMask::Fits(g.timeline_length());
  view.stats_.time_masks = view.time_masks_;
  view.stats_.edge_slot_bytes = static_cast<int64_t>(sizeof(EdgeSlot));
  view.stats_.node_slot_bytes = static_cast<int64_t>(sizeof(NodeSlot));

  std::unordered_map<std::string, int32_t> interned;
  // Packs `set` into `*out` and reports whether it stayed in the slot. A
  // narrow view stores the mask; a wide one stores a single interval inline
  // (the empty set as the empty interval [0, -1]) and interns
  // multi-interval sets.
  const auto pack = [&](const IntervalSet& set, PackedValidity* out) {
    if (view.time_masks_) {
      out->mask = temporal::TimeMask::FromIntervalSet(set);
      return true;
    }
    const std::span<const Interval> ivs = set.intervals();
    if (ivs.size() <= 1) {
      out->wide = {ivs.empty() ? 0 : ivs[0].start,
                   ivs.empty() ? -1 : ivs[0].end, kInlineValidity};
      return true;
    }
    const auto [it, inserted] = interned.try_emplace(
        PoolKey(set), static_cast<int32_t>(view.pool_.size()));
    if (inserted) {
      view.pool_.push_back(set);
    } else {
      ++view.stats_.intern_hits;
    }
    out->wide = {set.Start(), set.End(), it->second};
    return false;
  };

  view.node_slots_.resize(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    NodeSlot& ns = view.node_slots_[static_cast<size_t>(v)];
    const Node& node = g.node(v);
    ns.weight = node.weight;
    if (pack(node.validity, &ns.validity)) {
      ++view.stats_.inline_node_slots;
    } else {
      ++view.stats_.pooled_node_slots;
    }
  }

  const size_t m = static_cast<size_t>(g.num_edges());
  view.in_offsets_.resize(static_cast<size_t>(n) + 1);
  view.in_slots_.resize(m);
  size_t slot = 0;
  for (NodeId v = 0; v < n; ++v) {
    view.in_offsets_[static_cast<size_t>(v)] = static_cast<int64_t>(slot);
    for (const EdgeId e : g.InEdges(v)) {
      const Edge& edge = g.edge(e);
      EdgeSlot& es = view.in_slots_[slot];
      es.edge = e;
      es.src = edge.src;
      es.weight = edge.weight;
      if (pack(edge.validity, &es.validity)) {
        ++view.stats_.inline_edge_slots;
      } else {
        ++view.stats_.pooled_edge_slots;
      }
      ++slot;
    }
  }
  view.in_offsets_[static_cast<size_t>(n)] = static_cast<int64_t>(slot);
  assert(slot == m);

  view.stats_.edge_slots = static_cast<int64_t>(m);
  view.stats_.pool_entries = static_cast<int64_t>(view.pool_.size());
  return view;
}

}  // namespace tgks::graph
