// LruCache: a thread-safe, byte-budget LRU map from Key to
// shared_ptr<const Value>.
//
// This is the storage primitive behind the result cache in src/cache/
// (docs/caching.md). Values are immutable and shared: a Lookup hands back a
// shared_ptr that stays valid after the entry is evicted, so readers never
// race eviction. Each entry carries a caller-estimated byte cost; Insert
// evicts least-recently-used entries until the configured budget holds. An
// entry whose cost alone exceeds the budget is not stored (counted in
// Stats::oversized) — the computed value is still returned to the caller,
// it just isn't shared.
//
// All operations take one internal mutex. The cache sits outside the
// per-pop hot loops (one probe per query, not per NTD), so a mutex is cheap
// relative to the work a hit saves; it also keeps the recency list and the
// stats coherent without atomics gymnastics.

#ifndef TGKS_CACHE_LRU_H_
#define TGKS_CACHE_LRU_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "cache/cache_stats.h"
#include "obs/metrics.h"

namespace tgks::cache {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// `byte_budget` <= 0 disables storage entirely (every Insert is
  /// oversized); the cache still counts lookups so callers can observe the
  /// miss traffic they would be serving.
  explicit LruCache(int64_t byte_budget, const CacheMetrics* metrics = nullptr)
      : byte_budget_(byte_budget), metrics_(metrics) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Returns the cached value and refreshes its recency, or nullptr.
  std::shared_ptr<const Value> Lookup(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      if (metrics_ != nullptr && metrics_->misses != nullptr) {
        metrics_->misses->Increment();
      }
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    ++stats_.hits;
    if (metrics_ != nullptr && metrics_->hits != nullptr) {
      metrics_->hits->Increment();
    }
    return it->second.value;
  }

  /// Stores `value` under `key` at an accounted cost of `bytes`, evicting
  /// LRU entries until the budget holds. If the key is already present the
  /// EXISTING value is kept (and returned) so concurrent compute-then-insert
  /// races converge on one shared object. Returns the pointer callers should
  /// use from here on.
  std::shared_ptr<const Value> Insert(const Key& key,
                                      std::shared_ptr<const Value> value,
                                      int64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.recency);
      return it->second.value;
    }
    if (bytes > byte_budget_) {
      ++stats_.oversized;
      return value;
    }
    lru_.push_front(key);
    entries_.emplace(key, Entry{value, bytes, lru_.begin()});
    bytes_ += bytes;
    ++stats_.insertions;
    if (metrics_ != nullptr && metrics_->insertions != nullptr) {
      metrics_->insertions->Increment();
    }
    while (bytes_ > byte_budget_ && lru_.size() > 1) {
      const auto victim = entries_.find(lru_.back());
      bytes_ -= victim->second.bytes;
      entries_.erase(victim);
      lru_.pop_back();
      ++stats_.evictions;
      if (metrics_ != nullptr && metrics_->evictions != nullptr) {
        metrics_->evictions->Increment();
      }
    }
    if (metrics_ != nullptr && metrics_->bytes != nullptr) {
      metrics_->bytes->Set(bytes_);
    }
    return value;
  }

  /// Drops every entry (outstanding shared_ptrs stay valid).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
    if (metrics_ != nullptr && metrics_->bytes != nullptr) {
      metrics_->bytes->Set(0);
    }
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats out = stats_;
    out.entries = static_cast<int64_t>(entries_.size());
    out.bytes = bytes_;
    return out;
  }

  int64_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry {
    std::shared_ptr<const Value> value;
    int64_t bytes = 0;
    typename std::list<Key>::iterator recency;
  };

  const int64_t byte_budget_;
  const CacheMetrics* const metrics_;

  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, Hash> entries_;
  std::list<Key> lru_;  ///< Front = most recently used.
  int64_t bytes_ = 0;
  CacheStats stats_;
};

}  // namespace tgks::cache

#endif  // TGKS_CACHE_LRU_H_
