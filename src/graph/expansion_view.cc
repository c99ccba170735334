#include "graph/expansion_view.h"

#include <bit>
#include <cstdint>
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

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
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
  // Whether every node weighs the same: then a node's in-slots are uniform
  // iff their edge weights are, and the slot loop skips the random reads
  // of source-node weights.
  bool same_node_weights = true;
  for (NodeId v = 0; v < n; ++v) {
    NodeSlot& ns = view.node_slots_[static_cast<size_t>(v)];
    const Node& node = g.node(v);
    ns.weight = node.weight;
    same_node_weights = same_node_weights &&
                        SameBits(node.weight, view.node_slots_[0].weight);
    if (pack(node.validity, &ns.validity)) {
      ++view.stats_.inline_node_slots;
    } else {
      ++view.stats_.pooled_node_slots;
    }
  }

  const size_t m = static_cast<size_t>(g.num_edges());
  view.in_offsets_.resize(static_cast<size_t>(n) + 1);
  view.in_slots_.resize(m);
  view.uniform_in_.assign((static_cast<size_t>(n) + 63) / 64, 0);
  size_t slot = 0;
  for (NodeId v = 0; v < n; ++v) {
    const size_t first = slot;
    view.in_offsets_[static_cast<size_t>(v)] = static_cast<int64_t>(slot);
    bool uniform = true;
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
      // Compared bit for bit, as (edge weight, source weight) pairs: equal
      // sums of different pairs can round differently once added to a
      // distance, and only identical pairs give identical child distances.
      const EdgeSlot& head = view.in_slots_[first];
      uniform = uniform && SameBits(es.weight, head.weight) &&
                (same_node_weights ||
                 SameBits(view.node_weight(es.src),
                          view.node_weight(head.src)));
      ++slot;
    }
    if (uniform) {
      view.uniform_in_[static_cast<size_t>(v) / 64] |=
          uint64_t{1} << (static_cast<size_t>(v) % 64);
      ++view.stats_.uniform_in_nodes;
    }
  }
  view.in_offsets_[static_cast<size_t>(n)] = static_cast<int64_t>(slot);
  assert(slot == m);

  view.stats_.edge_slots = static_cast<int64_t>(m);
  view.stats_.pool_entries = static_cast<int64_t>(view.pool_.size());
  return view;
}

}  // namespace tgks::graph
