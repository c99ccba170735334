// The per-query counter table, and SearchStats, the observability payload
// every SearchResponse carries beside search::SearchCounters.
//
// Every per-query value a search reports is declared once, in one of the
// two X-macro lists below: TGKS_SEARCH_COUNTERS (the paper's §6 work counts
// and the Figs. 7-10 phase times, search::SearchCounters) and
// TGKS_SEARCH_STATS (the values those counters lack: how hard the hot
// structures were pushed and how many elements predicate pruning skipped).
// Each entry is X(type, name, kind, help). The struct members, both Merges
// and every rendering (ToString, tgks_cli --stats, the HTTP "counters" and
// "stats" objects) are generated from the lists, so adding a counter is one
// table line plus the line that increments it. docs/observability.md,
// "Counter table", lists what stays hand-written and why.

#ifndef TGKS_OBS_SEARCH_STATS_H_
#define TGKS_OBS_SEARCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

namespace tgks::obs {

/// How a table entry merges across a batch and where it is rendered.
enum class FieldKind {
  /// Summed. Rendered under its name, in the HTTP object of its list
  /// ("counters" or "stats").
  kCount,
  /// Merged by max. Rendered under its name, in its list's HTTP object.
  kMax,
  /// A phase time `seconds_<phase>`, summed. Rendered as `micros_<phase>`
  /// (rounded) in the HTTP "stats" object and as `ms_<phase>` by ToString.
  kSeconds,
  /// A per-query mean: not merged and not on the wire; rendered for one
  /// query only, never in a merged total.
  kMean,
};

// clang-format off
#define TGKS_SEARCH_COUNTERS(X)                                              \
  X(int64_t, iterators, kCount,                                              \
    "Best-path sources started: the filtered match nodes of every keyword "  \
    "frontier, including sources that start exhausted.")                     \
  X(int64_t, pops, kCount, "NTDs popped (all frontiers).")                   \
  X(int64_t, useless_pops, kCount,                                           \
    "Stale queue entries skipped; 0 under pure relevance ranking, whose "    \
    "frontiers skip a fully claimed child before creating it.")              \
  X(int64_t, ntds_created, kCount, "Arena NTDs across frontiers.")           \
  X(int64_t, edges_scanned, kCount, "In-edges examined across frontiers.")   \
  X(int64_t, subsumption_skips, kCount, "Algorithm-2 case-1 prunes.")        \
  X(int64_t, subsumption_evictions, kCount, "Algorithm-2 case-3 removals.")  \
  X(int64_t, nodes_visited, kCount, "Distinct nodes popped by >=1 source.")  \
  X(int64_t, candidates, kCount, "NTD-set combinations examined.")           \
  X(int64_t, invalid_time, kCount, "Candidates with empty common time.")     \
  X(int64_t, invalid_structure, kCount, "Path unions that were not trees.")  \
  X(int64_t, root_reducible, kCount, "Candidates dropped per the root rule.")\
  X(int64_t, predicate_rejected, kCount, "Results failing the final check.") \
  X(int64_t, duplicates, kCount, "Re-derived known trees.")                  \
  X(int64_t, combo_overflows, kCount,                                        \
    "Met-all pops whose cross product max_combos_per_pop cut short: at "     \
    "least one combination was left unvisited.")                             \
  X(int64_t, memo_hits, kCount,                                              \
    "Candidates whose verdict the pop's candidate memo replayed instead of " \
    "assembling them (docs/algorithms.md, \"Redundant keyword paths\"). "    \
    "Each is also counted under the verdict it replayed.")                   \
  X(int64_t, results, kCount, "Distinct valid results found.")               \
  X(double, avg_ntds_per_node, kMean,                                        \
    "Mean NTDs per reached node per source (the paper's \"average number "   \
    "of NTDs associated with each node\"), over sources that expanded past " \
    "themselves.")                                                           \
  X(double, seconds_match, kSeconds, "Keyword-match lookup.")                \
  X(double, seconds_filter, kSeconds, "Predicate filtering of matches.")     \
  X(double, seconds_expand, kSeconds,                                        \
    "Best-path iteration: the frontier build plus the whole main loop "      \
    "minus seconds_generate (docs/observability.md).")                       \
  X(double, seconds_generate, kSeconds, "Result generation.")

#define TGKS_SEARCH_STATS(X)                                                 \
  X(int64_t, prunes, kCount, "Elements skipped by pruning (§5).")            \
  X(int64_t, interval_ops, kCount,                                           \
    "IntervalSet operations on the search path (intersect/union/subtract).") \
  X(int64_t, heap_high_water, kMax,                                          \
    "Most entries one source of the query's keyword frontiers held: its "    \
    "queue, plus its lazily created head under pure relevance ranking.")
// clang-format on

/// Generators for a struct over one list: its members, the body of its
/// Merge(const T& other), and the body of its ForEachField(fn), which calls
/// fn.template operator()<kind>(name, value) per entry in table order.
#define TGKS_FIELD_DECLARE(type, name, kind, help) type name = 0;
#define TGKS_FIELD_MERGE(type, name, kind, help) \
  ::tgks::obs::MergeField<::tgks::obs::FieldKind::kind>(name, other.name);
#define TGKS_FIELD_VISIT(type, name, kind, help) \
  fn.template operator()<::tgks::obs::FieldKind::kind>(#name, name);

/// Merges one field of `from` into `into` as its kind says.
template <FieldKind kKind, typename T>
void MergeField(T& into, T from) {
  if constexpr (kKind == FieldKind::kMax) {
    into = std::max(into, from);
  } else if constexpr (kKind != FieldKind::kMean) {
    into += from;
  }
}

/// The phase of a kSeconds field: its name without "seconds_".
std::string_view PhaseName(std::string_view seconds_field);

/// Appends " name=value" (no leading space on an empty `out`); doubles use
/// the default stream format.
void AppendKeyValue(std::string* out, std::string_view name, int64_t value);
void AppendKeyValue(std::string* out, std::string_view name, double value);

/// One-line key=value rendering of every field of a table struct, in table
/// order; a kSeconds field is written as ms_<phase>. With `merged` (a batch
/// total) the kMean fields are left out: Merge does not combine a mean, so
/// a total's would read as a measured value.
template <typename Fields>
std::string FieldsToString(const Fields& fields, bool merged = false) {
  std::string out;
  fields.ForEachField([&out, merged]<FieldKind kKind>(std::string_view name,
                                                      auto value) {
    if constexpr (kKind == FieldKind::kSeconds) {
      AppendKeyValue(&out, "ms_" + std::string(PhaseName(name)), value * 1e3);
    } else if (kKind != FieldKind::kMean || !merged) {
      AppendKeyValue(&out, name, value);
    }
  });
  return out;
}

/// Per-query work profile, populated on EVERY exit path (exhausted, bound,
/// max_pops, deadline, cancelled): finalization runs unconditionally, so a
/// deadline-killed query still reports where its budget went.
struct SearchStats {
  TGKS_SEARCH_STATS(TGKS_FIELD_DECLARE)

  /// Merges `other` into this (batch aggregation), per each field's kind.
  void Merge(const SearchStats& other) { TGKS_SEARCH_STATS(TGKS_FIELD_MERGE) }

  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    TGKS_SEARCH_STATS(TGKS_FIELD_VISIT)
  }

  /// One-line key=value rendering for logs and --stats output.
  std::string ToString() const { return FieldsToString(*this); }
};

}  // namespace tgks::obs

#endif  // TGKS_OBS_SEARCH_STATS_H_
