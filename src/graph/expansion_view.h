// ExpansionView: a cache-resident, traversal-ordered mirror of the
// in-adjacency.
//
// The search iterators spend their time in one loop: walk InEdges(n), read
// each edge's src / weight / validity, intersect the carried time set, and
// read the neighbor node's weight / validity. On the array-of-structs
// TemporalGraph that loop chases pointers through Edge objects (which drag a
// cold std::string-bearing Node along) and through each IntervalSet's
// small-buffer header. This view re-materializes exactly the fields that
// loop touches, laid out in traversal order:
//
//   in_slots_[s]   = {weight, edge id, src, validity} — one 32-byte packed
//                    record per in-edge slot, CSR-sliced per node, so a
//                    typical low-degree node's whole adjacency spans two or
//                    three cache lines instead of one line per field array;
//   node_slots_[n] = {weight, validity} — the hot per-node fields in one
//                    24-byte record (neighbor lookups are random-access: one
//                    cache line instead of up to four). Labels stay cold on
//                    the TemporalGraph.
//
// The 16-byte validity field has one of two encodings, chosen once per view
// from the graph's timeline_length():
//
//   - narrow (timeline <= TimeMask::kCapacity = 128 instants): the validity
//     is a TimeMask, whatever its interval count. The iterators intersect
//     and test it with word operations (edge_mask / node_mask), and no
//     validity ever leaves its slot.
//   - wide (longer timelines): a single interval is stored inline as
//     [vstart, vend] with vpool == kInlineValidity; multi-interval sets
//     spill to a shared pool of IntervalSets, and byte-equal sets are
//     interned to one pool entry, so the pool stays tiny and hot.
//
// IntervalSet readers (IntersectEdgeValidity, With*Validity, *AliveAt) work
// on both encodings, with results identical to the graph's own sets.
//
// One bit per node records whether all its in-slots share one increment:
// the same edge weight and the same source-node weight, so every backward
// expansion product of the node has the same distance. The relevance
// frontier's lazy successor generation walks such a node's in-slots with
// one queue entry (docs/algorithms.md, "Lazy successor generation").
//
// Weights are verbatim double copies of the graph's weights: distance
// arithmetic through the view is bit-identical to going through the graph,
// which is what keeps the work-count golden suites byte-stable.
//
// The view is immutable, built once by GraphBuilder::Build() (so every load
// path — text, binary, archive — carries one), and shared by all copies of
// its graph. Enumeration order per node is exactly TemporalGraph::InEdges.

#ifndef TGKS_GRAPH_EXPANSION_VIEW_H_
#define TGKS_GRAPH_EXPANSION_VIEW_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/temporal_graph.h"
#include "temporal/interval.h"
#include "temporal/interval_set.h"
#include "temporal/time_mask.h"
#include "temporal/time_point.h"

namespace tgks::graph {

/// Struct-of-arrays expansion mirror of a TemporalGraph's in-adjacency.
/// Construct via Build(); accessed through TemporalGraph::expansion_view().
class ExpansionView {
 public:
  /// Wide views: vpool value meaning "the validity is the single inline
  /// interval [vstart, vend]" (empty when vstart > vend). Non-negative
  /// values index the interned pool().
  static constexpr int32_t kInlineValidity = -1;

  /// Half-open range of in-edge slots for one node.
  struct SlotRange {
    int64_t begin = 0;
    int64_t end = 0;
  };

  /// Build-time layout counters, reported in docs/performance.md.
  struct LayoutStats {
    bool time_masks = false;       // narrow encoding (see file comment)
    int64_t edge_slot_bytes = 0;   // sizeof one in-edge slot
    int64_t node_slot_bytes = 0;   // sizeof one node slot
    int64_t edge_slots = 0;        // total in-edge slots (== num_edges)
    int64_t inline_edge_slots = 0; // edges whose validity sits in the slot
                                   // (every edge of a narrow view)
    int64_t pooled_edge_slots = 0; // edges referencing the interned pool
    int64_t inline_node_slots = 0; // nodes whose validity sits in the slot
    int64_t pooled_node_slots = 0;
    int64_t pool_entries = 0;      // distinct interned validity sets
    int64_t intern_hits = 0;       // pool references resolved to an
                                   // already-interned set
    int64_t uniform_in_nodes = 0;  // nodes whose in-slots share one
                                   // increment (see uniform_in)
  };

  ExpansionView() = default;

  /// Materializes the view for `g`. The result is self-contained (owns all
  /// its arrays) and valid independently of `g`'s lifetime.
  static ExpansionView Build(const TemporalGraph& g);

  /// In-edge slots of node `n`, in exactly the order of
  /// TemporalGraph::InEdges(n).
  SlotRange InSlots(NodeId n) const {
    return {in_offsets_[static_cast<size_t>(n)],
            in_offsets_[static_cast<size_t>(n) + 1]};
  }

  EdgeId edge_id(int64_t slot) const {
    return in_slots_[static_cast<size_t>(slot)].edge;
  }
  NodeId src(int64_t slot) const {
    return in_slots_[static_cast<size_t>(slot)].src;
  }
  double edge_weight(int64_t slot) const {
    return in_slots_[static_cast<size_t>(slot)].weight;
  }

  double node_weight(NodeId n) const {
    return node_slots_[static_cast<size_t>(n)].weight;
  }

  /// Whether every in-slot of `n` has the same edge weight and the same
  /// source-node weight (true for nodes with at most one in-slot).
  bool uniform_in(NodeId n) const {
    const size_t i = static_cast<size_t>(n);
    return (uniform_in_[i / 64] >> (i % 64)) & 1;
  }

  /// Whether validities are TimeMasks (the narrow encoding): true iff the
  /// graph's timeline has at most TimeMask::kCapacity instants.
  bool uses_time_masks() const { return time_masks_; }

  /// Narrow views only: the validity of the edge at `slot` / of node `n`.
  const temporal::TimeMask& edge_mask(int64_t slot) const {
    assert(time_masks_);
    return in_slots_[static_cast<size_t>(slot)].validity.mask;
  }
  const temporal::TimeMask& node_mask(NodeId n) const {
    assert(time_masks_);
    return node_slots_[static_cast<size_t>(n)].validity.mask;
  }

  /// Narrow views only: *out = `t` ∩ val(edge at `slot`).
  void IntersectEdgeValidity(int64_t slot, const temporal::TimeMask& t,
                             temporal::TimeMask* out) const {
    *out = t & edge_mask(slot);
  }

  /// out = `t` ∩ val(edge at `slot`). Uses the inline single-interval fast
  /// path when the validity did not spill; result is identical to
  /// intersecting with the graph edge's IntervalSet.
  void IntersectEdgeValidity(int64_t slot, const temporal::IntervalSet& t,
                             temporal::IntervalSet* out) const {
    const EdgeSlot& s = in_slots_[static_cast<size_t>(slot)];
    if (time_masks_) {
      out->AssignIntersectionOf(t, s.validity.mask);
    } else if (s.validity.wide.vpool == kInlineValidity) {
      out->AssignIntersectionOf(
          t, temporal::Interval(s.validity.wide.vstart, s.validity.wide.vend));
    } else {
      out->AssignIntersectionOf(t, pool_[static_cast<size_t>(
                                       s.validity.wide.vpool)]);
    }
  }

  bool EdgeAliveAt(int64_t slot, temporal::TimePoint t) const {
    return AliveAt(in_slots_[static_cast<size_t>(slot)].validity, t);
  }

  bool NodeAliveAt(NodeId n, temporal::TimePoint t) const {
    return AliveAt(node_slots_[static_cast<size_t>(n)].validity, t);
  }

  /// Invokes `fn(const IntervalSet&)` with the edge's validity set and
  /// returns its result. Inline intervals and masks materialize as a
  /// stack-local IntervalSet (a mask of more than two runs spills to the
  /// heap: narrow-view hot paths read edge_mask instead); pooled sets pass
  /// the interned set by reference.
  template <typename Fn>
  decltype(auto) WithEdgeValidity(int64_t slot, Fn&& fn) const {
    return WithValidity(in_slots_[static_cast<size_t>(slot)].validity,
                        std::forward<Fn>(fn));
  }

  /// Node-validity counterpart of WithEdgeValidity.
  template <typename Fn>
  decltype(auto) WithNodeValidity(NodeId n, Fn&& fn) const {
    return WithValidity(node_slots_[static_cast<size_t>(n)].validity,
                        std::forward<Fn>(fn));
  }

  /// Wide views: the interned multi-interval validity pool (for tests /
  /// stats). Always empty on narrow views.
  const std::vector<temporal::IntervalSet>& pool() const { return pool_; }

  /// Wide views only: raw pool reference of a slot (kInlineValidity when
  /// inline); exposed so tests can assert interning without poking at
  /// internals.
  int32_t edge_vpool(int64_t slot) const {
    assert(!time_masks_);
    return in_slots_[static_cast<size_t>(slot)].validity.wide.vpool;
  }
  int32_t node_vpool(NodeId n) const {
    assert(!time_masks_);
    return node_slots_[static_cast<size_t>(n)].validity.wide.vpool;
  }

  const LayoutStats& layout_stats() const { return stats_; }

 private:
  /// Wide encoding of one validity: an inline interval or a pool index.
  struct WideValidity {
    temporal::TimePoint vstart;
    temporal::TimePoint vend;
    int32_t vpool;
  };
  /// One element's validity; `mask` is live in narrow views, `wide`
  /// otherwise.
  union PackedValidity {
    temporal::TimeMask mask = temporal::TimeMask();
    WideValidity wide;
  };
  static_assert(sizeof(PackedValidity) == 16);

  /// Hot fields of one in-edge, packed so sequential slot scans stay within
  /// a couple of cache lines per node.
  struct EdgeSlot {
    double weight = 0.0;
    EdgeId edge = kInvalidEdge;
    NodeId src = kInvalidNode;
    PackedValidity validity;
  };
  static_assert(sizeof(EdgeSlot) <= 32, "EdgeSlot should stay cache-compact");

  /// Hot fields of one node (random-access by neighbor id: one cache line).
  struct NodeSlot {
    double weight = 0.0;
    PackedValidity validity;
  };
  static_assert(sizeof(NodeSlot) <= 24, "NodeSlot should stay cache-compact");

  bool AliveAt(const PackedValidity& v, temporal::TimePoint t) const {
    if (time_masks_) return v.mask.Contains(t);
    if (v.wide.vpool == kInlineValidity) {
      return t >= v.wide.vstart && t <= v.wide.vend;
    }
    return pool_[static_cast<size_t>(v.wide.vpool)].Contains(t);
  }

  template <typename Fn>
  decltype(auto) WithValidity(const PackedValidity& v, Fn&& fn) const {
    if (time_masks_) return fn(v.mask.ToIntervalSet());
    if (v.wide.vpool == kInlineValidity) {
      return fn(temporal::IntervalSet(
          temporal::Interval(v.wide.vstart, v.wide.vend)));
    }
    return fn(pool_[static_cast<size_t>(v.wide.vpool)]);
  }

  bool time_masks_ = false;
  std::vector<int64_t> in_offsets_;  // num_nodes + 1 entries.
  std::vector<EdgeSlot> in_slots_;
  std::vector<NodeSlot> node_slots_;
  std::vector<uint64_t> uniform_in_;  // One bit per node (uniform_in).

  std::vector<temporal::IntervalSet> pool_;
  LayoutStats stats_;
};

}  // namespace tgks::graph

#endif  // TGKS_GRAPH_EXPANSION_VIEW_H_
