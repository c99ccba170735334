// The read set of a cached search and the change set of a live publish
// share one type (docs/caching.md, "Read sets"): node ids and words, each
// sorted and unique. A publish can change a cached answer only when its
// change set shares a node or a word with the answer's read set. Header
// only, so the ingest layer builds change sets without linking the cache.

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
};

/// Sorts `values` and drops duplicates.
template <typename T>
void SortUnique(std::vector<T>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

}  // namespace tgks::cache

#endif  // TGKS_CACHE_READ_SET_H_
