// Time-range shortest path queries — the related-work query type of Huo &
// Tsotras [25] that the paper contrasts with its best path iterator (§7).
//
// Given two nodes and a time range, find the shortest path among paths
// whose elements are valid with respect to the range, under one of two
// semantics:
//
//  * kThroughout — every element must be valid during the whole range, so
//    the path exists continuously across it (the stricter, [25]-style
//    semantics: "only process nodes and edges that satisfy the given time
//    range");
//  * kSometime — the path must be valid at some instant inside the range
//    (equivalent to the best relevance path whose validity overlaps the
//    range, answered with the temporal best path iterator).
//
// The contrast the paper draws: [25] answers one (source, target, range)
// probe per Dijkstra run, whereas the temporal iterator computes the best
// path for *every* instant in one pass. Both are provided here — the
// kThroughout planner as a small range-filtered Dijkstra, kSometime on top
// of BestPathIterator — and the tests cross-check them where the semantics
// coincide (single-instant ranges).

#ifndef TGKS_SEARCH_TIME_RANGE_PATH_H_
#define TGKS_SEARCH_TIME_RANGE_PATH_H_

#include <optional>
#include <vector>

#include "graph/temporal_graph.h"
#include "temporal/interval.h"

namespace tgks::search {

enum class RangeSemantics {
  kThroughout,  ///< Path valid at every instant of the range.
  kSometime,    ///< Path valid at >= 1 instant of the range.
};

/// A shortest-path answer.
struct TimeRangePath {
  /// Edges of the forward path source -> ... -> target.
  std::vector<graph::EdgeId> edges;
  /// Total weight (edge weights + interior/endpoint node weights).
  double weight = 0.0;
  /// The path's full valid time intersected with... nothing: its exact
  /// validity (always a superset of the range under kThroughout; overlaps
  /// the range under kSometime).
  temporal::IntervalSet time;
};

/// Shortest path from `source` to `target` w.r.t. `range`; nullopt when no
/// qualifying path exists. `range` must be non-empty and inside the
/// timeline.
std::optional<TimeRangePath> ShortestPathInRange(
    const graph::TemporalGraph& graph, graph::NodeId source,
    graph::NodeId target, temporal::Interval range,
    RangeSemantics semantics = RangeSemantics::kThroughout);

}  // namespace tgks::search

#endif  // TGKS_SEARCH_TIME_RANGE_PATH_H_
