#include "cache/result_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace tgks::cache {

namespace {

const obs::LabelSet& ResultLevel() {
  static const obs::LabelSet labels = {{"level", "result"}};
  return labels;
}

}  // namespace

ResultCache::ResultCache(int64_t byte_budget)
    : byte_budget_(byte_budget),
      hits_(obs::GlobalMetrics().GetCounter(
          "tgks_cache_hits_total",
          "Cache lookups served from the cache, by level.", ResultLevel())),
      misses_(obs::GlobalMetrics().GetCounter(
          "tgks_cache_misses_total", "Cache lookups that missed, by level.",
          ResultLevel())),
      insertions_(obs::GlobalMetrics().GetCounter(
          "tgks_cache_insertions_total", "Entries inserted, by level.",
          ResultLevel())),
      evictions_(obs::GlobalMetrics().GetCounter(
          "tgks_cache_evictions_total",
          "Entries evicted by the byte budget, by level.", ResultLevel())),
      bytes_gauge_(obs::GlobalMetrics().GetGauge(
          "tgks_cache_bytes", "Resident accounted bytes, by level.",
          ResultLevel())) {}

ResultCache::Body ResultCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    misses_->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.recency);
  ++stats_.hits;
  hits_->Increment();
  return it->second.body;
}

ResultCache::Body ResultCache::Insert(const std::string& key, Body body,
                                      uint64_t generation_at_start) {
  const int64_t bytes = EntryBytes(key, *body);
  std::lock_guard<std::mutex> lock(mu_);
  if (generation_ != generation_at_start) return body;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    return it->second.body;
  }
  if (bytes > byte_budget_) {
    ++stats_.oversized;
    return body;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{body, bytes, lru_.begin()});
  bytes_ += bytes;
  ++stats_.insertions;
  insertions_->Increment();
  while (bytes_ > byte_budget_ && lru_.size() > 1) {
    const auto victim = entries_.find(lru_.back());
    bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
    evictions_->Increment();
  }
  bytes_gauge_->Set(bytes_);
  return body;
}

uint64_t ResultCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  bytes_gauge_->Set(0);
  return ++generation_;
}

uint64_t ResultCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

int64_t ResultCache::invalidations() const {
  return static_cast<int64_t>(generation());
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats out = stats_;
  out.entries = static_cast<int64_t>(entries_.size());
  out.bytes = bytes_;
  return out;
}

}  // namespace tgks::cache
