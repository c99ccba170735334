#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "graph/expansion_view.h"

namespace tgks::graph {

using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

GraphBuilder::GraphBuilder(TimePoint timeline_length, ValidityPolicy policy)
    : timeline_length_(timeline_length), policy_(policy) {}

NodeId GraphBuilder::AddNode(std::string label, IntervalSet validity,
                             double weight) {
  Node node;
  node.label = std::move(label);
  node.weight = weight;
  node.validity =
      validity.Intersect(IntervalSet(Interval(0, timeline_length_ - 1)));
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId GraphBuilder::AddNode(std::string label, double weight) {
  return AddNode(std::move(label), IntervalSet::All(timeline_length_), weight);
}

void GraphBuilder::AddEdge(NodeId src, NodeId dst, IntervalSet validity,
                           double weight) {
  Edge edge;
  edge.src = src;
  edge.dst = dst;
  edge.weight = weight;
  edge.validity = std::move(validity);
  edges_.push_back(std::move(edge));
  edge_validity_defaulted_.push_back(false);
}

void GraphBuilder::AddEdge(NodeId src, NodeId dst, double weight) {
  Edge edge;
  edge.src = src;
  edge.dst = dst;
  edge.weight = weight;
  edges_.push_back(std::move(edge));
  edge_validity_defaulted_.push_back(true);
}

Result<TemporalGraph> GraphBuilder::Build() {
  if (timeline_length_ <= 0 ||
      timeline_length_ > temporal::kMaxTimelineLength) {
    return Status::InvalidArgument("timeline length out of range");
  }
  const NodeId n = num_nodes();
  for (EdgeId e = 0; e < static_cast<EdgeId>(edges_.size()); ++e) {
    Edge& edge = edges_[static_cast<size_t>(e)];
    if (edge.src < 0 || edge.src >= n || edge.dst < 0 || edge.dst >= n) {
      std::ostringstream msg;
      msg << "edge " << e << " references missing node";
      return Status::InvalidArgument(msg.str());
    }
    if (!std::isfinite(edge.weight) || edge.weight < 0) {
      std::ostringstream msg;
      msg << "edge " << e << " has negative or non-finite weight";
      return Status::InvalidArgument(msg.str());
    }
    const IntervalSet endpoint_common =
        nodes_[static_cast<size_t>(edge.src)].validity.Intersect(
            nodes_[static_cast<size_t>(edge.dst)].validity);
    if (edge_validity_defaulted_[static_cast<size_t>(e)]) {
      edge.validity = endpoint_common;
    } else if (!endpoint_common.Subsumes(edge.validity)) {
      if (policy_ == ValidityPolicy::kStrict) {
        std::ostringstream msg;
        msg << "edge " << e << " (" << edge.src << "->" << edge.dst
            << ") valid " << edge.validity.ToString()
            << " outside endpoint validity " << endpoint_common.ToString();
        return Status::InvalidArgument(msg.str());
      }
      edge.validity = edge.validity.Intersect(endpoint_common);
    }
    if (edge.validity.IsEmpty()) {
      std::ostringstream msg;
      msg << "edge " << e << " (" << edge.src << "->" << edge.dst
          << ") is never valid";
      return Status::InvalidArgument(msg.str());
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    const double weight = nodes_[static_cast<size_t>(v)].weight;
    if (!std::isfinite(weight) || weight < 0) {
      std::ostringstream msg;
      msg << "node " << v << " has negative or non-finite weight";
      return Status::InvalidArgument(msg.str());
    }
  }

  TemporalGraph g;
  g.timeline_length_ = timeline_length_;
  g.nodes_ = std::move(nodes_);
  g.edges_ = std::move(edges_);

  // CSR in both directions via counting sort over endpoints.
  const auto build_csr = [&](bool outgoing, std::vector<int64_t>* offsets,
                             std::vector<EdgeId>* adjacency) {
    offsets->assign(static_cast<size_t>(n) + 1, 0);
    for (const Edge& edge : g.edges_) {
      const NodeId key = outgoing ? edge.src : edge.dst;
      ++(*offsets)[static_cast<size_t>(key) + 1];
    }
    for (size_t i = 1; i < offsets->size(); ++i) {
      (*offsets)[i] += (*offsets)[i - 1];
    }
    adjacency->assign(g.edges_.size(), kInvalidEdge);
    std::vector<int64_t> cursor(offsets->begin(), offsets->end() - 1);
    for (EdgeId e = 0; e < static_cast<EdgeId>(g.edges_.size()); ++e) {
      const NodeId key = outgoing ? g.edges_[static_cast<size_t>(e)].src
                                  : g.edges_[static_cast<size_t>(e)].dst;
      (*adjacency)[static_cast<size_t>(cursor[static_cast<size_t>(key)]++)] =
          e;
    }
  };
  build_csr(/*outgoing=*/true, &g.out_offsets_, &g.out_edges_);
  build_csr(/*outgoing=*/false, &g.in_offsets_, &g.in_edges_);

  // Materialize the SoA expansion mirror here so every construction path
  // (programmatic, text/binary load, archive) carries one.
  g.view_ = std::make_shared<const ExpansionView>(ExpansionView::Build(g));

  // The temporal reachability labeling is built on first use
  // (TemporalGraph::reachability()); every copy of `g` shares this cell.
  g.reach_ = std::make_shared<TemporalGraph::ReachabilityCell>();

  nodes_.clear();
  edges_.clear();
  edge_validity_defaulted_.clear();
  return g;
}

Result<TemporalGraph> RebuildWithTimeline(const TemporalGraph& g,
                                          TimePoint timeline_length) {
  if (timeline_length < g.timeline_length()) {
    return Status::InvalidArgument("timeline may only grow");
  }
  GraphBuilder b(timeline_length, ValidityPolicy::kStrict);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Node& node = g.node(v);
    b.AddNode(node.label, node.validity, node.weight);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    b.AddEdge(edge.src, edge.dst, edge.validity, edge.weight);
  }
  return b.Build();
}

}  // namespace tgks::graph
