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
// Storage is a byte-budget LRU: each entry costs EntryBytes(key, body), and
// Insert evicts least-recently-used entries until the budget holds. Bodies
// are immutable and shared, so a Lookup's pointer stays valid after the
// entry is evicted and readers never race eviction.
//
// Invalidation is generational: InvalidateAll() bumps the generation and
// clears the map. A search that began under generation G refuses to insert
// once the generation has moved past G, so a slow in-flight query can never
// resurrect a pre-invalidation answer — the contract LiveGraph::on_publish
// relies on when it invalidates the cache after every publish.
//
// Every operation takes one mutex: the cache is probed once per request,
// not per pop, so the lock is cheap next to the search a hit saves, and it
// keeps the map, the recency list, the generation and the stats coherent.

#ifndef TGKS_CACHE_RESULT_CACHE_H_
#define TGKS_CACHE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace tgks::obs {
class Counter;
class Gauge;
}  // namespace tgks::obs

namespace tgks::cache {

/// Point-in-time snapshot of the cache's activity.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t oversized = 0;  ///< Bodies too large to store at all.
  int64_t entries = 0;    ///< Current resident entries.
  int64_t bytes = 0;      ///< Current accounted bytes.

  int64_t lookups() const { return hits + misses; }
  double HitRate() const {
    const int64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

class ResultCache {
 public:
  /// One cached HTTP response body.
  using Body = std::shared_ptr<const std::string>;

  /// `byte_budget` <= 0 stores nothing (every Insert is oversized); lookups
  /// are still counted, so the miss traffic stays observable.
  explicit ResultCache(int64_t byte_budget);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Accounted cost of one entry: the body, the key, and a fixed estimate
  /// of the map, list and shared_ptr overhead.
  static int64_t EntryBytes(const std::string& key, const std::string& body) {
    return static_cast<int64_t>(sizeof(std::string) + 96 + key.size() +
                                body.size());
  }

  /// Returns the cached body and refreshes its recency, or nullptr.
  Body Lookup(const std::string& key);

  /// Stores `body` if the cache is still at the generation the producing
  /// search started under, evicting LRU entries until the budget holds.
  /// Three cases leave the map as it was: a stale generation, a body whose
  /// cost alone exceeds the budget (counted as oversized), and a key that
  /// is already present, whose EXISTING body is kept so concurrent fillers
  /// converge on one shared object. Returns the body callers should use
  /// from here on: the resident one for a present key, else `body`.
  Body Insert(const std::string& key, Body body, uint64_t generation_at_start);

  /// Epoch invalidation hook: bumps the generation and clears every entry
  /// (outstanding bodies stay valid). Returns the new generation.
  uint64_t InvalidateAll();

  uint64_t generation() const;
  /// InvalidateAll() calls so far; each bumps the generation once, so this
  /// is the generation read as a count.
  int64_t invalidations() const;
  CacheStats stats() const;

 private:
  struct Entry {
    Body body;
    int64_t bytes = 0;
    std::list<std::string>::iterator recency;
  };

  const int64_t byte_budget_;
  // Registry instruments, {level="result"}; the registry owns them.
  obs::Counter* const hits_;
  obs::Counter* const misses_;
  obs::Counter* const insertions_;
  obs::Counter* const evictions_;
  obs::Gauge* const bytes_gauge_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< Front = most recently used.
  int64_t bytes_ = 0;
  CacheStats stats_;
  uint64_t generation_ = 0;
};

}  // namespace tgks::cache

#endif  // TGKS_CACHE_RESULT_CACHE_H_
