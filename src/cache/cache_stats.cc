#include "cache/cache_stats.h"

#include <cstdio>

#include "obs/metrics.h"

namespace tgks::cache {

std::string CacheStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "hits=%lld misses=%lld hit_rate=%.3f insertions=%lld "
                "evictions=%lld oversized=%lld entries=%lld bytes=%lld",
                static_cast<long long>(hits), static_cast<long long>(misses),
                HitRate(), static_cast<long long>(insertions),
                static_cast<long long>(evictions),
                static_cast<long long>(oversized),
                static_cast<long long>(entries), static_cast<long long>(bytes));
  return buf;
}

CacheMetrics MetricsForLevel(const std::string& level) {
  CacheMetrics m;
  obs::MetricsRegistry& reg = obs::GlobalMetrics();
  const obs::LabelSet labels = {{"level", level}};
  m.hits = reg.GetCounter("tgks_cache_hits_total",
                          "Cache lookups served from the cache, by level.",
                          labels);
  m.misses = reg.GetCounter("tgks_cache_misses_total",
                            "Cache lookups that missed, by level.", labels);
  m.insertions = reg.GetCounter("tgks_cache_insertions_total",
                                "Entries inserted, by level.", labels);
  m.evictions = reg.GetCounter("tgks_cache_evictions_total",
                               "Entries evicted by the byte budget, by level.",
                               labels);
  m.bytes = reg.GetGauge("tgks_cache_bytes",
                         "Resident accounted bytes, by level.", labels);
  return m;
}

}  // namespace tgks::cache
