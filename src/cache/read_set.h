// The read set of a cached search and the change set of a live publish
// share one type (docs/caching.md, "Read sets"): node ids and words, each
// sorted and unique, plus an optional value per node. A publish can change
// a cached answer only when its change set shares a word with the answer's
// read set, or names one of its nodes with an increment no larger than the
// node's slack. Header only, so the ingest layer builds change sets without
// linking the cache.

#ifndef TGKS_CACHE_READ_SET_H_
#define TGKS_CACHE_READ_SET_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace tgks::cache {

/// What a cached search read, or what one publish changed.
struct ReadSet {
  /// A search's expanded nodes, whose in-slots it read; a publish's new
  /// edges' `dst`, whose in-slots gained one.
  std::vector<int32_t> nodes;
  /// A keyword search's keywords, lower-cased; the words of a publish's
  /// new node labels, which join those keywords' match lists.
  std::vector<std::string> words;
  /// Empty, or one value per entry of `nodes`. A search's slack: how much
  /// farther than the node's first pop its frontiers' final tops lay (+inf
  /// where a new in-edge can matter at any weight). A publish's increment:
  /// the least edge weight + source node weight over the new in-edges at
  /// the node, which a frontier adds to the node's distance. When either
  /// side has none, every shared node counts as a change.
  std::vector<double> values;
};

/// Sorts `values` and drops duplicates.
template <typename T>
void SortUnique(std::vector<T>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

}  // namespace tgks::cache

#endif  // TGKS_CACHE_READ_SET_H_
