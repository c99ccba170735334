// Shared bookkeeping types for the cache subsystem (docs/caching.md).
//
// Every cache keeps its own CacheStats (plain counters under the cache
// mutex) so gates and /varz can read hit rates, and optionally mirrors
// increments into obs::MetricsRegistry instruments through a CacheMetrics
// pointer bundle.

#ifndef TGKS_CACHE_CACHE_STATS_H_
#define TGKS_CACHE_CACHE_STATS_H_

#include <cstdint>
#include <string>

namespace tgks::obs {
class Counter;
class Gauge;
}  // namespace tgks::obs

namespace tgks::cache {

/// Point-in-time snapshot of one cache level's activity.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t oversized = 0;  ///< Values too large to store at all.
  int64_t entries = 0;    ///< Current resident entries.
  int64_t bytes = 0;      ///< Current accounted bytes.

  int64_t lookups() const { return hits + misses; }
  double HitRate() const {
    const int64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
  std::string ToString() const;
};

/// Nullable obs instrument bundle; a null pointer (or null member) means
/// "don't export" (a bare LruCache built without instruments).
struct CacheMetrics {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* insertions = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Gauge* bytes = nullptr;
};

/// Registers (or fetches) the standard instrument family for one cache
/// level, labeled {level="<level>"}: tgks_cache_{hits,misses,insertions,
/// evictions}_total and tgks_cache_bytes.
CacheMetrics MetricsForLevel(const std::string& level);

}  // namespace tgks::cache

#endif  // TGKS_CACHE_CACHE_STATS_H_
