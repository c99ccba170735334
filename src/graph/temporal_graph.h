// TemporalGraph: the paper's data model (§2.2).
//
// A directed graph in which every node and edge carries (a) a label, (b) an
// optional weight, and (c) a set of validity intervals over a discrete
// timeline. The model invariant is that an edge is valid only when both of
// its endpoints are: val(n) ⊇ val(e) for each endpoint n of e (enforced by
// GraphBuilder).
//
// The graph is immutable once built. Adjacency is stored CSR-style in both
// directions because result trees have *forward* paths root → keyword match,
// while the best path iterators expand *backward* along incoming edges.

#ifndef TGKS_GRAPH_TEMPORAL_GRAPH_H_
#define TGKS_GRAPH_TEMPORAL_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "temporal/interval_set.h"
#include "temporal/time_point.h"

namespace tgks::graph {

class ExpansionView;      // expansion_view.h
class ReachabilityIndex;  // reachability_index.h

using NodeId = int32_t;
using EdgeId = int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// A labeled, weighted, temporally annotated node.
struct Node {
  std::string label;
  double weight = 0.0;
  temporal::IntervalSet validity;
};

/// A directed, weighted, temporally annotated edge src -> dst.
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double weight = 1.0;
  temporal::IntervalSet validity;
};

/// Immutable temporal graph. Construct through GraphBuilder.
class TemporalGraph {
 public:
  TemporalGraph() = default;

  TemporalGraph(const TemporalGraph&) = default;
  TemporalGraph& operator=(const TemporalGraph&) = default;
  TemporalGraph(TemporalGraph&&) noexcept = default;
  TemporalGraph& operator=(TemporalGraph&&) noexcept = default;

  /// Number of instants in the timeline; validity sets live in
  /// [0, timeline_length).
  temporal::TimePoint timeline_length() const { return timeline_length_; }

  NodeId num_nodes() const { return static_cast<NodeId>(nodes_.size()); }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  const Edge& edge(EdgeId id) const { return edges_[static_cast<size_t>(id)]; }

  /// Edge ids leaving `n` (n is the src).
  std::span<const EdgeId> OutEdges(NodeId n) const {
    return Slice(out_offsets_, out_edges_, n);
  }

  /// Edge ids entering `n` (n is the dst). This is what the best path
  /// iterator walks during backward expansion.
  std::span<const EdgeId> InEdges(NodeId n) const {
    return Slice(in_offsets_, in_edges_, n);
  }

  /// True iff node `n` exists at instant `t`.
  bool NodeAliveAt(NodeId n, temporal::TimePoint t) const {
    return node(n).validity.Contains(t);
  }

  /// True iff edge `e` exists at instant `t`.
  bool EdgeAliveAt(EdgeId e, temporal::TimePoint t) const {
    return edge(e).validity.Contains(t);
  }

  /// The cache-resident SoA expansion mirror (see expansion_view.h).
  /// Present on every graph produced by GraphBuilder::Build(); copies of a
  /// graph share one immutable view.
  const ExpansionView& expansion_view() const { return *view_; }

  /// The temporal reachability labeling (see reachability_index.h), built
  /// on the first call: no search reads it, so graphs that are only
  /// searched never pay for it. Thread-safe; concurrent first callers wait
  /// for the one build. Every graph produced by GraphBuilder::Build() has
  /// one, and copies of a graph share it (and its build).
  const ReachabilityIndex& reachability() const;

 private:
  friend class GraphBuilder;

  /// The lazily filled index, shared by every copy of one built graph.
  struct ReachabilityCell {
    std::once_flag once;
    std::shared_ptr<const ReachabilityIndex> index;
  };

  static std::span<const EdgeId> Slice(const std::vector<int64_t>& offsets,
                                       const std::vector<EdgeId>& edges,
                                       NodeId n) {
    const auto begin = static_cast<size_t>(offsets[static_cast<size_t>(n)]);
    const auto end = static_cast<size_t>(offsets[static_cast<size_t>(n) + 1]);
    return {edges.data() + begin, end - begin};
  }

  temporal::TimePoint timeline_length_ = 0;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<int64_t> out_offsets_;  // num_nodes + 1 entries.
  std::vector<EdgeId> out_edges_;
  std::vector<int64_t> in_offsets_;
  std::vector<EdgeId> in_edges_;
  std::shared_ptr<const ExpansionView> view_;
  std::shared_ptr<ReachabilityCell> reach_;
};

}  // namespace tgks::graph

#endif  // TGKS_GRAPH_TEMPORAL_GRAPH_H_
