// QueryCaches: the per-graph in-engine cache (docs/caching.md) that
// SearchOptions::query_caches points at: the keyword match-set LRU plus a
// generation counter.
//
// Match sets are derived purely from one graph's inverted index and must be
// dropped when the graph advances an epoch. InvalidateAll() is that hook —
// it bumps the generation and clears the match sets, mirroring
// ResultCache::InvalidateAll on the serving side.
//
// The bundle is thread-safe (the match-set LRU has its own mutex) and is
// shared by every query the executor runs against the graph. Search behaves
// identically with or without it — cached values are bit-identical to what
// the engine would recompute — so the only observable differences are wall
// time and the cache_* counters.

#ifndef TGKS_CACHE_QUERY_CACHES_H_
#define TGKS_CACHE_QUERY_CACHES_H_

#include <atomic>
#include <cstdint>

#include "cache/match_set_cache.h"

namespace tgks::cache {

struct QueryCachesOptions {
  /// Byte budget for the keyword match-set LRU.
  int64_t match_set_bytes = int64_t{8} << 20;
};

class QueryCaches {
 public:
  explicit QueryCaches(const QueryCachesOptions& options = {})
      : match_sets_(options.match_set_bytes) {}

  QueryCaches(const QueryCaches&) = delete;
  QueryCaches& operator=(const QueryCaches&) = delete;

  MatchSetCache& match_sets() { return match_sets_; }

  /// Epoch invalidation hook for streaming ingest: clears the match sets
  /// and bumps the generation. Returns the new generation.
  uint64_t InvalidateAll() {
    match_sets_.Clear();
    return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  MatchSetCache match_sets_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace tgks::cache

#endif  // TGKS_CACHE_QUERY_CACHES_H_
