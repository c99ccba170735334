#include "graph/delta_overlay.h"

#include <algorithm>

#include "common/strings.h"

namespace tgks::graph {

std::shared_ptr<const DeltaOverlay> DeltaOverlay::Extend(
    const TemporalGraph& base, const DeltaOverlay* prev,
    std::vector<Node> new_nodes, std::vector<Edge> new_edges) {
  auto overlay = std::make_shared<DeltaOverlay>();
  overlay->base_num_nodes_ = base.num_nodes();
  overlay->base_num_edges_ = base.num_edges();

  if (prev != nullptr) {
    assert(prev->base_num_nodes_ == base.num_nodes());
    assert(prev->base_num_edges_ == base.num_edges());
    overlay->delta_nodes_ = prev->delta_nodes_;
    overlay->delta_edges_ = prev->delta_edges_;
  }
  overlay->delta_nodes_.insert(overlay->delta_nodes_.end(),
                               std::make_move_iterator(new_nodes.begin()),
                               std::make_move_iterator(new_nodes.end()));
  overlay->delta_edges_.insert(overlay->delta_edges_.end(),
                               std::make_move_iterator(new_edges.begin()),
                               std::make_move_iterator(new_edges.end()));

  // Group delta in-edges by destination, preserving ascending edge-id order
  // within each run (counting-sort over a first pass of run lengths — the
  // same stable grouping GraphBuilder's CSR pass performs, but keyed by a
  // hash map so the publish cost is O(delta)).
  std::unordered_map<NodeId, int64_t> run_len;
  run_len.reserve(overlay->delta_edges_.size());
  for (const Edge& e : overlay->delta_edges_) ++run_len[e.dst];
  overlay->in_runs_.reserve(run_len.size());
  int64_t offset = 0;
  // Deterministic run placement: assign runs in first-appearance order of
  // the destination among delta edges (iteration over the unordered_map
  // would be nondeterministic across platforms).
  std::unordered_map<NodeId, int64_t> cursor;
  cursor.reserve(run_len.size());
  for (const Edge& e : overlay->delta_edges_) {
    if (cursor.find(e.dst) != cursor.end()) continue;
    const int64_t len = run_len[e.dst];
    overlay->in_runs_[e.dst] = SlotRange{offset, offset + len};
    cursor[e.dst] = offset;
    offset += len;
  }
  overlay->slot_edges_.assign(overlay->delta_edges_.size(), kInvalidEdge);
  for (EdgeId i = 0; i < static_cast<EdgeId>(overlay->delta_edges_.size());
       ++i) {
    const Edge& e = overlay->delta_edges_[static_cast<size_t>(i)];
    overlay->slot_edges_[static_cast<size_t>(cursor[e.dst]++)] =
        overlay->base_num_edges_ + i;
  }

  if (base.expansion_view().uses_time_masks()) {
    overlay->slot_masks_.reserve(overlay->slot_edges_.size());
    for (const EdgeId e : overlay->slot_edges_) {
      overlay->slot_masks_.push_back(temporal::TimeMask::FromIntervalSet(
          overlay->delta_edge(e).validity));
    }
    overlay->node_masks_.reserve(overlay->delta_nodes_.size());
    for (const Node& node : overlay->delta_nodes_) {
      overlay->node_masks_.push_back(
          temporal::TimeMask::FromIntervalSet(node.validity));
    }
  }

  // Delta postings: same tokenization as InvertedIndex, absolute ids. Node
  // ids arrive ascending, so per-word lists stay sorted and deduplicated.
  for (NodeId i = 0; i < static_cast<NodeId>(overlay->delta_nodes_.size());
       ++i) {
    const NodeId id = overlay->base_num_nodes_ + i;
    for (std::string& word :
         TokenizeWords(overlay->delta_nodes_[static_cast<size_t>(i)].label)) {
      std::vector<NodeId>& posting = overlay->postings_[std::move(word)];
      if (posting.empty() || posting.back() != id) posting.push_back(id);
    }
  }

  size_t bytes = overlay->delta_nodes_.size() * sizeof(Node) +
                 overlay->delta_edges_.size() * (sizeof(Edge) + sizeof(EdgeId));
  for (const Node& node : overlay->delta_nodes_) {
    bytes += node.label.size() +
             node.validity.intervals().size() * sizeof(temporal::Interval);
  }
  for (const Edge& edge : overlay->delta_edges_) {
    bytes += edge.validity.intervals().size() * sizeof(temporal::Interval);
  }
  for (const auto& [word, posting] : overlay->postings_) {
    bytes += word.size() + posting.size() * sizeof(NodeId);
  }
  overlay->approx_bytes_ = bytes;
  return overlay;
}

std::span<const NodeId> DeltaOverlay::Postings(
    std::string_view folded_word) const {
  const auto it = postings_.find(std::string(folded_word));
  if (it == postings_.end()) return {};
  return it->second;
}

}  // namespace tgks::graph
