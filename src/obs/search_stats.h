// SearchStats: the per-query observability payload every SearchResponse
// carries, and the TGKS_NO_STATS compile-out switch.
//
// SearchStats complements the paper-oriented SearchCounters (§6's reported
// quantities) with the operational view a serving system needs: where the
// query's time went (per-phase microseconds), how hard the hot structures
// were pushed (heap high-water mark, interval-algebra operation count), and
// how much exploration was wasted (dedup hits, prunes).
//
// Instrumentation sites are wrapped in TGKS_STATS(...) so a build configured
// with -DTGKS_NO_STATS=ON compiles them out entirely; the struct itself is
// always present (fields just stay zero), keeping the API stable across both
// build flavours.

#ifndef TGKS_OBS_SEARCH_STATS_H_
#define TGKS_OBS_SEARCH_STATS_H_

#include <cstdint>
#include <string>

#ifdef TGKS_NO_STATS
#define TGKS_STATS(expr) \
  do {                   \
  } while (0)
#else
#define TGKS_STATS(expr) \
  do {                   \
    expr;                \
  } while (0)
#endif

namespace tgks::obs {

/// Per-query work profile, populated on EVERY exit path (exhausted, bound,
/// max_pops, deadline, cancelled): finalization runs unconditionally, so a
/// deadline-killed query still reports where its budget went.
struct SearchStats {
  // Exploration volume.
  int64_t pops = 0;           ///< NTDs popped across all iterators.
  int64_t ntds_created = 0;   ///< NTD triplets created (arena entries).
  int64_t ntds_merged = 0;    ///< NTDs merged away: subsumption skips +
                              ///< evictions (Algorithm 2 cases 1 and 3).
  int64_t dedup_hits = 0;     ///< Stale queue entries skipped + duplicate
                              ///< result trees re-derived.
  int64_t prunes = 0;         ///< Elements skipped by predicate pruning (§5).
  int64_t edges_scanned = 0;  ///< In-edges examined during expansion.

  // Hot-structure pressure.
  int64_t interval_ops = 0;     ///< IntervalSet operations on the search
                                ///< path (intersect/union/subtract).
  int64_t heap_high_water = 0;  ///< Most entries one source of the
                                ///< query's keyword frontiers held: its
                                ///< queue, plus its lazily created head
                                ///< under pure relevance ranking.

  // Phase breakdown in microseconds (match lookup, predicate filtering,
  // best-path expansion, result generation).
  int64_t micros_match = 0;
  int64_t micros_filter = 0;
  int64_t micros_expand = 0;
  int64_t micros_generate = 0;

  /// Sum of the phase micros (total instrumented time; wall time of the
  /// query is >= this).
  int64_t MicrosTotal() const {
    return micros_match + micros_filter + micros_expand + micros_generate;
  }

  /// Merges `other` into this (batch aggregation): sums everything except
  /// heap_high_water, which takes the max.
  void Merge(const SearchStats& other) {
    pops += other.pops;
    ntds_created += other.ntds_created;
    ntds_merged += other.ntds_merged;
    dedup_hits += other.dedup_hits;
    prunes += other.prunes;
    edges_scanned += other.edges_scanned;
    interval_ops += other.interval_ops;
    if (other.heap_high_water > heap_high_water) {
      heap_high_water = other.heap_high_water;
    }
    micros_match += other.micros_match;
    micros_filter += other.micros_filter;
    micros_expand += other.micros_expand;
    micros_generate += other.micros_generate;
  }

  /// One-line key=value rendering for logs and --stats output.
  std::string ToString() const;
};

/// True when the library was built with -DTGKS_NO_STATS=ON (stats fields
/// stay zero); surfaces the build flavour to tools and tests.
bool StatsCompiledOut();

}  // namespace tgks::obs

#endif  // TGKS_OBS_SEARCH_STATS_H_
