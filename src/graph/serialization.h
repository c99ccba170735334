// Text serialization for temporal graphs (.tgf — "temporal graph format").
//
// Line-oriented, versioned, human-diffable:
//
//   tgf 1
//   timeline 100
//   # comments and blank lines allowed
//   node <id> <weight> <validity> <label...>
//   edge <src> <dst> <weight> <validity>
//
// where <validity> is the compact interval-set literal `@[0,5][8,9]` (no
// spaces) or `@*` for "the whole timeline". Node ids must be dense 0..N-1
// and appear before the edges that reference them.

#ifndef TGKS_GRAPH_SERIALIZATION_H_
#define TGKS_GRAPH_SERIALIZATION_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "graph/temporal_graph.h"

namespace tgks::graph {

/// Parses the compact validity literal ("@[0,5][8,9]" or "@*") into a set.
/// `timeline_length` resolves "@*".
Result<temporal::IntervalSet> ParseValidity(
    std::string_view text, temporal::TimePoint timeline_length);

/// Renders `set` as a compact validity literal; inverse of ParseValidity.
std::string FormatValidity(const temporal::IntervalSet& set,
                           temporal::TimePoint timeline_length);

/// Writes `graph` in .tgf form.
Status SaveGraph(const TemporalGraph& graph, std::ostream& out);
Status SaveGraphToFile(const TemporalGraph& graph, const std::string& path);

/// Reads a .tgf graph. Validates through GraphBuilder (strict policy).
Result<TemporalGraph> LoadGraph(std::istream& in);
Result<TemporalGraph> LoadGraphFromFile(const std::string& path);

/// Binary serialization (.tgb): a compact little-endian format for large
/// archives —
///
///   "TGKB" u32-version u32-timeline u32-nodes u32-edges
///   per node: f64 weight, u32 label length + bytes,
///             u32 interval count + (i32 start, i32 end)*
///   per edge: u32 src, u32 dst, f64 weight, intervals as above
///
/// Loading validates through GraphBuilder (strict policy), so a corrupt or
/// adversarial file cannot produce an invariant-violating graph. Versions
/// 1 to 5 are accepted; versions 2 to 4 appended a reachability labeling
/// blob after the edges, which the loader ignores. The index is built on
/// first use (TemporalGraph::reachability()).
Status SaveGraphBinary(const TemporalGraph& graph, std::ostream& out);
Status SaveGraphBinaryToFile(const TemporalGraph& graph,
                             const std::string& path);
Result<TemporalGraph> LoadGraphBinary(std::istream& in);
Result<TemporalGraph> LoadGraphBinaryFromFile(const std::string& path);

}  // namespace tgks::graph

#endif  // TGKS_GRAPH_SERIALIZATION_H_
