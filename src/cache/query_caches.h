// QueryCaches: the per-graph bundle of in-engine cache levels (docs/
// caching.md) that SearchOptions::query_caches points at.
//
// Level 1 (match sets) and level 2 (viability memoization) live together
// because they share a lifetime: both are derived purely from one graph's
// index/labels and must be invalidated together when the graph advances an
// epoch.
// InvalidateAll() is that hook — it bumps a generation counter and clears
// every level, mirroring ResultCache::InvalidateAll on the serving side.
//
// The bundle is thread-safe (each level has its own mutex) and is shared by
// every query the executor runs against the graph. Search behaves
// identically with or without it — cached values are bit-identical to what
// the engine would recompute — so the only observable differences are wall
// time and the cache_* counters.

#ifndef TGKS_CACHE_QUERY_CACHES_H_
#define TGKS_CACHE_QUERY_CACHES_H_

#include <atomic>
#include <cstdint>

#include "cache/match_set_cache.h"
#include "cache/viability_cache.h"

namespace tgks::cache {

struct QueryCachesOptions {
  /// Byte budget for the keyword match-set LRU (level 1).
  int64_t match_set_bytes = int64_t{8} << 20;
  /// Byte budget for the viability memoization LRU (level 2). Viability
  /// vectors are dense (one IntervalSet per graph node), so this budget is
  /// the knob that bounds resident memory on large graphs.
  int64_t viability_bytes = int64_t{64} << 20;
};

class QueryCaches {
 public:
  explicit QueryCaches(const QueryCachesOptions& options = {})
      : match_sets_(options.match_set_bytes),
        viability_(options.viability_bytes) {}

  QueryCaches(const QueryCaches&) = delete;
  QueryCaches& operator=(const QueryCaches&) = delete;

  MatchSetCache& match_sets() { return match_sets_; }
  ViabilityCache& viability() { return viability_; }

  /// Epoch invalidation hook for streaming ingest: clears every level and
  /// bumps the generation. Returns the new generation.
  uint64_t InvalidateAll() {
    match_sets_.Clear();
    viability_.Clear();
    return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  MatchSetCache match_sets_;
  ViabilityCache viability_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace tgks::cache

#endif  // TGKS_CACHE_QUERY_CACHES_H_
