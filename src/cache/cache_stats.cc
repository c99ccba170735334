#include "cache/cache_stats.h"

#include "obs/metrics.h"

namespace tgks::cache {

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
