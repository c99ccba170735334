// SearchStats: the per-query observability payload every SearchResponse
// carries.
//
// SearchStats complements the paper-oriented SearchCounters (§6's reported
// quantities and the Figs. 7-10 phase times) with the three values those
// counters lack: how hard the hot structures were pushed (heap high-water
// mark, interval-algebra operation count) and how many elements predicate
// pruning skipped. Every other per-query count lives in SearchCounters only.

#ifndef TGKS_OBS_SEARCH_STATS_H_
#define TGKS_OBS_SEARCH_STATS_H_

#include <cstdint>
#include <string>

namespace tgks::obs {

/// Per-query work profile, populated on EVERY exit path (exhausted, bound,
/// max_pops, deadline, cancelled): finalization runs unconditionally, so a
/// deadline-killed query still reports where its budget went.
struct SearchStats {
  int64_t prunes = 0;           ///< Elements skipped by pruning (§5).
  int64_t interval_ops = 0;     ///< IntervalSet operations on the search
                                ///< path (intersect/union/subtract).
  int64_t heap_high_water = 0;  ///< Most entries one source of the
                                ///< query's keyword frontiers held: its
                                ///< queue, plus its lazily created head
                                ///< under pure relevance ranking.

  /// Merges `other` into this (batch aggregation): sums everything except
  /// heap_high_water, which takes the max.
  void Merge(const SearchStats& other) {
    prunes += other.prunes;
    interval_ops += other.interval_ops;
    if (other.heap_high_water > heap_high_water) {
      heap_high_water = other.heap_high_water;
    }
  }

  /// One-line key=value rendering for logs and --stats output.
  std::string ToString() const;
};

}  // namespace tgks::obs

#endif  // TGKS_OBS_SEARCH_STATS_H_
