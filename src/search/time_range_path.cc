#include "search/time_range_path.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>

#include "search/best_path_iterator.h"
#include "temporal/interval_set.h"

namespace tgks::search {

using graph::EdgeId;
using graph::NodeId;
using temporal::Interval;
using temporal::IntervalSet;

namespace {

/// [25]-style planner: forward Dijkstra over the subgraph of elements valid
/// throughout the range.
std::optional<TimeRangePath> ThroughoutPath(const graph::TemporalGraph& graph,
                                            NodeId source, NodeId target,
                                            Interval range) {
  const IntervalSet window{range};
  auto usable_node = [&](NodeId n) {
    return graph.node(n).validity.Subsumes(window);
  };
  auto usable_edge = [&](EdgeId e) {
    return graph.edge(e).validity.Subsumes(window);
  };
  if (!usable_node(source) || !usable_node(target)) return std::nullopt;

  struct Entry {
    double dist;
    NodeId node;
    bool operator>(const Entry& other) const {
      if (dist != other.dist) return dist > other.dist;
      return node > other.node;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::unordered_map<NodeId, double> best;
  std::unordered_map<NodeId, EdgeId> parent;
  best[source] = graph.node(source).weight;
  queue.push({graph.node(source).weight, source});
  std::optional<double> target_dist;
  while (!queue.empty()) {
    const Entry top = queue.top();
    queue.pop();
    if (top.dist > best.at(top.node)) continue;  // Stale.
    if (top.node == target) {
      target_dist = top.dist;
      break;
    }
    for (const EdgeId e : graph.OutEdges(top.node)) {
      if (!usable_edge(e)) continue;
      const NodeId next = graph.edge(e).dst;
      if (!usable_node(next)) continue;
      const double nd =
          top.dist + graph.edge(e).weight + graph.node(next).weight;
      const auto it = best.find(next);
      if (it == best.end() || nd < it->second) {
        best[next] = nd;
        parent[next] = e;
        queue.push({nd, next});
      }
    }
  }
  if (!target_dist.has_value()) return std::nullopt;
  TimeRangePath out;
  out.weight = *target_dist;
  IntervalSet time = graph.node(target).validity;
  IntervalSet narrow;  // Intersection double-buffer.
  for (NodeId cur = target; cur != source;) {
    const EdgeId e = parent.at(cur);
    out.edges.push_back(e);
    narrow.AssignIntersectionOf(time, graph.edge(e).validity);
    time.Swap(narrow);
    cur = graph.edge(e).src;
  }
  narrow.AssignIntersectionOf(time, graph.node(source).validity);
  time.Swap(narrow);
  std::reverse(out.edges.begin(), out.edges.end());
  out.time = std::move(time);
  assert(out.time.Subsumes(window));
  return out;
}

/// Temporal-iterator planner: the best path valid at >= 1 range instant.
std::optional<TimeRangePath> SometimePath(const graph::TemporalGraph& graph,
                                          NodeId source, NodeId target,
                                          Interval range) {
  const IntervalSet window{range};
  // The iterator expands backward, so paths run node -> iterator-source;
  // seeding it at `target` yields forward paths source -> target.
  BestPathIterator iter(graph, target, {});
  for (NtdId id = iter.Next(); id != kInvalidNtd; id = iter.Next()) {
    const Ntd& ntd = iter.ntd(id);
    if (ntd.node != source) continue;
    IntervalSet time = iter.TimeOf(id);
    if (!time.Overlaps(window)) continue;
    // Pops are best-first by distance, and any qualifying instant would
    // have been claimed by an equally-qualifying earlier pop, so the first
    // overlapping pop at `source` is optimal.
    TimeRangePath out;
    out.edges = iter.PathEdges(id);
    out.weight = ntd.dist;
    out.time = std::move(time);
    return out;
  }
  return std::nullopt;
}

}  // namespace

std::optional<TimeRangePath> ShortestPathInRange(
    const graph::TemporalGraph& graph, NodeId source, NodeId target,
    Interval range, RangeSemantics semantics) {
  assert(source >= 0 && source < graph.num_nodes());
  assert(target >= 0 && target < graph.num_nodes());
  if (range.IsEmpty() || range.start < 0 ||
      range.end >= graph.timeline_length()) {
    return std::nullopt;
  }
  switch (semantics) {
    case RangeSemantics::kThroughout:
      return ThroughoutPath(graph, source, target, range);
    case RangeSemantics::kSometime:
      return SometimePath(graph, source, target, range);
  }
  return std::nullopt;
}

}  // namespace tgks::search
