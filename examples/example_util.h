// Shared helpers for the examples and tools: result printing and strict
// numeric flag parsing.

#ifndef TGKS_EXAMPLES_EXAMPLE_UTIL_H_
#define TGKS_EXAMPLES_EXAMPLE_UTIL_H_

#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>

#include "common/strings.h"
#include "graph/temporal_graph.h"
#include "search/search_engine.h"

namespace tgks::examples {

/// Renders one result tree as indented label lines with its valid time and
/// score, e.g.
///   #1  [weight=3, time={[6,7]}]  (relevance=0.333333)
///       Mary -(knows)-> Bob -> Ross -> John
inline void PrintResults(const graph::TemporalGraph& g,
                         const search::Query& query,
                         const search::SearchResponse& response) {
  std::cout << "query: " << query.ToString() << "\n";
  if (response.results.empty()) {
    std::cout << "  (no results)\n";
    return;
  }
  int rank = 0;
  for (const search::ResultTree& tree : response.results) {
    std::cout << "  #" << ++rank << "  root=\"" << g.node(tree.root).label
              << "\" weight=" << tree.total_weight
              << " time=" << tree.time.ToString() << "  ("
              << search::FormatScore(query.ranking, tree.score) << ")\n";
    for (const graph::EdgeId e : tree.edges) {
      std::cout << "      " << g.node(g.edge(e).src).label << " -> "
                << g.node(g.edge(e).dst).label << "  valid "
                << g.edge(e).validity.ToString() << "\n";
    }
    if (tree.edges.empty()) {
      std::cout << "      (single node) " << g.node(tree.root).label << "\n";
    }
  }
}

/// One-line summary of the work the engine did.
inline void PrintCounters(const search::SearchCounters& c) {
  std::cout << "  [iterators=" << c.iterators << " pops=" << c.pops
            << " nodes_visited=" << c.nodes_visited
            << " candidates=" << c.candidates << " results=" << c.results
            << " avg_ntds_per_node=" << c.avg_ntds_per_node << "]\n";
}

/// Parses a numeric flag value strictly: the whole of `text` must be a
/// decimal integer that fits T, or a finite number when T is double.
/// Reports a bad value on stderr.
template <typename T>
bool ParseFlag(const std::string& flag, const char* text, T* out) {
  bool ok = false;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ParseDouble(text, out) && std::isfinite(*out);
  } else {
    int64_t value = 0;
    ok = ParseInt64(text, &value) && value >= std::numeric_limits<T>::min() &&
         value <= std::numeric_limits<T>::max();
    if (ok) *out = static_cast<T>(value);
  }
  if (!ok) std::cerr << "invalid value for " << flag << ": '" << text << "'\n";
  return ok;
}

}  // namespace tgks::examples

#endif  // TGKS_EXAMPLES_EXAMPLE_UTIL_H_
