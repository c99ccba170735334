// Level-2 cache (docs/caching.md): filtered match lists -> the per-node
// viability sets ReachabilityIndex::ComputeViability derives from them.
//
// ComputeViability is the dominant per-query cost of reachability_prune
// (docs/reachability.md): it walks the TopChain labels for every match of
// every keyword even though the result depends only on the (unordered) SET
// of filtered match lists. Distinct queries sharing a keyword set — the
// Zipfian common case — therefore recompute identical viability vectors.
//
// The key is the EXACT canonical encoding of the filtered match lists
// (each list sorted and deduplicated, as FilterMatches leaves them; the
// list-of-lists sorted lexicographically because ComputeViability is
// keyword-order-invariant), not a hash digest: equal keys imply equal
// inputs, so a cache hit is bit-identical to recomputation by construction
// and the cached-vs-uncached differential gate holds with no collision
// caveat. Keying on post-filter lists also makes predicate effects and the
// explicit-match protocol (SearchWithMatches) cache-correct for free.
//
// Values are shared_ptr<const vector<IntervalSet>> — one entry per graph
// node, read-only after construction, safe to share across concurrent
// queries.

#ifndef TGKS_CACHE_VIABILITY_CACHE_H_
#define TGKS_CACHE_VIABILITY_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_stats.h"
#include "cache/lru.h"
#include "graph/temporal_graph.h"
#include "temporal/interval_set.h"

namespace tgks::cache {

/// Canonical encoding of a set of match lists: for each list (lexicographic
/// order) its length followed by its node ids. Compared exactly.
struct ViabilityKey {
  std::vector<uint64_t> words;
  friend bool operator==(const ViabilityKey& a, const ViabilityKey& b) {
    return a.words == b.words;
  }
};

struct ViabilityKeyHash {
  size_t operator()(const ViabilityKey& key) const {
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the words.
    for (const uint64_t w : key.words) {
      h ^= w;
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// Builds the canonical key from filtered match lists (each already sorted
/// and unique — FilterMatches' postcondition).
ViabilityKey MakeViabilityKey(
    const std::vector<std::vector<graph::NodeId>>& match_lists);

using ViabilityVector = std::vector<temporal::IntervalSet>;

/// Thread-safe match-lists -> viability-vector LRU, one per served graph.
class ViabilityCache {
 public:
  explicit ViabilityCache(int64_t byte_budget);

  std::shared_ptr<const ViabilityVector> Lookup(const ViabilityKey& key) {
    return lru_.Lookup(key);
  }

  /// Stores a freshly computed vector; returns the pointer to use (an
  /// earlier concurrent insert wins, see LruCache::Insert).
  std::shared_ptr<const ViabilityVector> Insert(
      ViabilityKey key, std::shared_ptr<const ViabilityVector> value);

  void Clear() { lru_.Clear(); }
  CacheStats stats() const { return lru_.stats(); }

 private:
  CacheMetrics metrics_;
  LruCache<ViabilityKey, ViabilityVector, ViabilityKeyHash> lru_;
};

}  // namespace tgks::cache

#endif  // TGKS_CACHE_VIABILITY_CACHE_H_
