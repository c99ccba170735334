#include "baseline/dijkstra_iterator.h"

#include <cassert>

#include "graph/expansion_view.h"

namespace tgks::baseline {

using graph::EdgeId;
using graph::NodeId;

DijkstraIterator::DijkstraIterator(
    const graph::TemporalGraph& graph, NodeId source,
    std::optional<temporal::TimePoint> snapshot)
    : graph_(&graph),
      source_(source),
      snapshot_(snapshot),
      scratch_(DijkstraScratchPool::Acquire()) {
  assert(source >= 0 && source < graph.num_nodes());
  scratch_->Reset();
  if (!NodeVisible(source)) return;
  const double d0 = graph.node(source).weight;
  DijkstraLabel& label = scratch_->labels.Activate(
      static_cast<uint32_t>(source),
      [](DijkstraLabel& stale) { stale = DijkstraLabel{}; });
  label.dist = d0;
  scratch_->queue.push(DijkstraQueueEntry{d0, source});
}

bool DijkstraIterator::NodeVisible(NodeId n) const {
  return !snapshot_.has_value() || graph_->NodeAliveAt(n, *snapshot_);
}

void DijkstraIterator::SettleTop() {
  while (!scratch_->queue.empty()) {
    const DijkstraLabel* label = scratch_->labels.Find(
        static_cast<uint32_t>(scratch_->queue.top().node));
    assert(label != nullptr);
    if (label == nullptr || !label->settled) return;
    scratch_->queue.pop();  // Stale entry (lazy decrease-key).
  }
}

std::optional<double> DijkstraIterator::PeekDistance() {
  SettleTop();
  if (scratch_->queue.empty()) return std::nullopt;
  return scratch_->queue.top().dist;
}

NodeId DijkstraIterator::Next() {
  SettleTop();
  if (scratch_->queue.empty()) return graph::kInvalidNode;
  const DijkstraQueueEntry top = scratch_->queue.top();
  scratch_->queue.pop();
  scratch_->labels.Find(static_cast<uint32_t>(top.node))->settled = true;
  ++nodes_settled_;
  const graph::ExpansionView& view = graph_->expansion_view();
  const graph::ExpansionView::SlotRange slots = view.InSlots(top.node);
  for (int64_t s = slots.begin; s < slots.end; ++s) {
    if (snapshot_.has_value() && !view.EdgeAliveAt(s, *snapshot_)) continue;
    const NodeId neighbor = view.src(s);
    if (snapshot_.has_value() && !view.NodeAliveAt(neighbor, *snapshot_)) {
      continue;
    }
    const double nd =
        top.dist + view.edge_weight(s) + view.node_weight(neighbor);
    bool fresh = false;
    DijkstraLabel& label = scratch_->labels.Activate(
        static_cast<uint32_t>(neighbor), [&fresh](DijkstraLabel& stale) {
          stale = DijkstraLabel{};
          fresh = true;
        });
    if (label.settled) continue;
    if (fresh || nd < label.dist) {
      label.dist = nd;
      label.parent_edge = view.edge_id(s);
      scratch_->queue.push(DijkstraQueueEntry{nd, neighbor});
    }
  }
  return top.node;
}

std::optional<double> DijkstraIterator::DistanceTo(NodeId node) const {
  const DijkstraLabel* label =
      scratch_->labels.Find(static_cast<uint32_t>(node));
  if (label == nullptr || !label->settled) return std::nullopt;
  return label->dist;
}

std::vector<EdgeId> DijkstraIterator::PathEdges(NodeId node) const {
  std::vector<EdgeId> edges;
  PathEdgesInto(node, &edges);
  return edges;
}

void DijkstraIterator::PathEdgesInto(NodeId node,
                                     std::vector<EdgeId>* out) const {
  assert(DistanceTo(node).has_value());
  NodeId cur = node;
  while (cur != source_) {
    const EdgeId e = scratch_->labels.Find(static_cast<uint32_t>(cur))
                         ->parent_edge;
    out->push_back(e);
    cur = graph_->edge(e).dst;
  }
}

}  // namespace tgks::baseline
