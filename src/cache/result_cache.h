// The result cache (docs/caching.md): normalized request fingerprint ->
// serialized response body, for the serving layer.
//
// The value is the exact byte string the router would have written for an
// uncached request (stats excluded — those bodies carry per-run wall
// times), so a hit is bit-identical to a miss by construction. Keys are the
// router's canonical fingerprint of everything that can affect the answer:
// canonical query text, effective k and bound, any explicit match lists,
// and on a live graph the pinned snapshot's generation. Deadlines are
// deliberately NOT in the key — only complete responses are cached, and a
// complete answer is a valid answer under any deadline.
//
// Invalidation is generational: InvalidateAll() bumps the generation and
// clears the map. A search that began under generation G refuses to insert
// once the generation has moved past G, so a slow in-flight query can never
// resurrect a pre-invalidation answer — the contract LiveGraph::on_publish
// relies on when it invalidates the cache after every publish.

#ifndef TGKS_CACHE_RESULT_CACHE_H_
#define TGKS_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "cache/cache_stats.h"
#include "cache/lru.h"

namespace tgks::cache {

/// One cached HTTP response body.
struct CachedResult {
  std::string body;
};

class ResultCache {
 public:
  explicit ResultCache(int64_t byte_budget);

  std::shared_ptr<const CachedResult> Lookup(const std::string& key) {
    return lru_.Lookup(key);
  }

  /// Stores `value` if the cache is still at the generation the producing
  /// search started under; silently drops it otherwise.
  void Insert(const std::string& key, std::shared_ptr<const CachedResult> value,
              uint64_t generation_at_start);

  /// Epoch invalidation hook: bumps the generation and clears every entry.
  /// Returns the new generation.
  uint64_t InvalidateAll();

  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

  CacheStats stats() const { return lru_.stats(); }

 private:
  /// Serializes Insert's generation check against InvalidateAll.
  mutable std::mutex mu_;
  CacheMetrics metrics_;
  LruCache<std::string, CachedResult> lru_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<int64_t> invalidations_{0};
};

}  // namespace tgks::cache

#endif  // TGKS_CACHE_RESULT_CACHE_H_
