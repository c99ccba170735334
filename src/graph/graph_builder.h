// GraphBuilder: validating constructor for TemporalGraph.

#ifndef TGKS_GRAPH_GRAPH_BUILDER_H_
#define TGKS_GRAPH_GRAPH_BUILDER_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "graph/temporal_graph.h"
#include "temporal/interval_set.h"
#include "temporal/time_point.h"

namespace tgks::graph {

/// How Build() reconciles an edge's validity with its endpoints'.
///
/// The model requires val(n) ⊇ val(e) for both endpoints (§2.2: "the graph
/// should be valid at any timestamp").
enum class ValidityPolicy {
  /// Reject edges whose validity is not contained in both endpoints'.
  kStrict,
  /// Clamp edge validity to the intersection with both endpoints'
  /// (Fig. 2's convention: unspecified edge validity is the endpoint
  /// intersection). Edges whose clamped validity is empty are rejected.
  kClamp,
};

/// Accumulates nodes and edges, validates, and emits a TemporalGraph.
///
/// Usage:
///   GraphBuilder b(/*timeline_length=*/100);
///   NodeId mary = b.AddNode("Mary", IntervalSet{{0, 99}});
///   b.AddEdge(mary, bob, IntervalSet{{3, 7}});
///   TGKS_ASSIGN_OR_RETURN(TemporalGraph g, b.Build());
class GraphBuilder {
 public:
  /// Timeline of `timeline_length` instants [0, timeline_length).
  explicit GraphBuilder(temporal::TimePoint timeline_length,
                        ValidityPolicy policy = ValidityPolicy::kClamp);

  GraphBuilder(const GraphBuilder&) = delete;
  GraphBuilder& operator=(const GraphBuilder&) = delete;

  /// Adds a node; returns its id. Validity is clipped to the timeline.
  NodeId AddNode(std::string label, temporal::IntervalSet validity,
                 double weight = 0.0);

  /// Adds a node valid over the whole timeline.
  NodeId AddNode(std::string label, double weight = 0.0);

  /// Adds a directed edge src -> dst with explicit validity.
  /// Endpoint containment is checked at Build() per the ValidityPolicy.
  void AddEdge(NodeId src, NodeId dst, temporal::IntervalSet validity,
               double weight = 1.0);

  /// Adds an edge whose validity is the intersection of its endpoints'
  /// (Fig. 2's default).
  void AddEdge(NodeId src, NodeId dst, double weight = 1.0);

  /// Number of nodes added so far.
  NodeId num_nodes() const { return static_cast<NodeId>(nodes_.size()); }

  /// Validates and produces the immutable graph. The builder is left in a
  /// valid but unspecified state afterwards.
  Result<TemporalGraph> Build();

 private:
  temporal::TimePoint timeline_length_;
  ValidityPolicy policy_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<bool> edge_validity_defaulted_;
};

/// Rebuilds `g` over a timeline of `timeline_length` instants, which must
/// be at least g.timeline_length(): the same nodes and edges (ids, labels,
/// weights, validities) in the same order. Every validity already lies in
/// the original timeline, so only the representation the graph selects
/// from its timeline_length() can change — which is how the equivalence
/// suites run one graph down both the TimeMask and the IntervalSet path.
Result<TemporalGraph> RebuildWithTimeline(const TemporalGraph& g,
                                          temporal::TimePoint timeline_length);

}  // namespace tgks::graph

#endif  // TGKS_GRAPH_GRAPH_BUILDER_H_
