// SearchEngine: top-k keyword search over temporal graphs (Algorithm 3).
//
// One backward best-path expansion per keyword match, grouped into one
// multi-source BestPathIterator — a keyword frontier — per keyword; a result
// is born when some node has been reached from every keyword and the chosen
// NTDs' valid times intersect. Scheduling follows §4.1: global best-first
// when ranking by relevance, round-robin over *keywords* (the best source
// within the keyword's frontier) for temporal rankings. Termination follows
// §4.2: the search stops once the kth best result beats the configured
// upper bound on unseen results.

#ifndef TGKS_SEARCH_SEARCH_ENGINE_H_
#define TGKS_SEARCH_SEARCH_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "graph/inverted_index.h"
#include "graph/temporal_graph.h"
#include "obs/query_trace.h"
#include "obs/search_stats.h"
#include "search/best_path_iterator.h"
#include "search/query.h"
#include "search/result_tree.h"
#include "temporal/ntd_bitmap_index.h"

namespace tgks::graph {
class DeltaOverlay;  // graph/delta_overlay.h
}  // namespace tgks::graph

namespace tgks::search {

/// Score upper bounds for unseen results (§4.2).
enum class UpperBoundKind {
  kAccurate,   ///< Tight (Propositions 4.1-4.3): exact top-k, slowest stop.
  kEmpirical,  ///< 1/(m·d) resp. worst queue top: fast stop, may skip some
               ///< true top-k results.
  kAverage,    ///< Midpoint of the two.
};

std::string_view UpperBoundKindName(UpperBoundKind kind);

/// How many pops the main loop runs between wall-clock deadline polls.
/// steady_clock::now() is a vDSO call that dominates a cheap pop, so the
/// poll is amortized; the worst-case deadline overshoot is
/// (kDeadlineCheckStridePops - 1) pops beyond the poll that would have
/// fired, i.e. bounded by the stride times the slowest single pop.
inline constexpr int64_t kDeadlineCheckStridePops = 32;

/// Engine knobs; the defaults reproduce the paper's primary configuration.
struct SearchOptions {
  /// Number of results wanted; <= 0 means ALL (run to exhaustion).
  int32_t k = 20;
  UpperBoundKind bound = UpperBoundKind::kEmpirical;
  /// §4.1 keyword round-robin for temporal rankings; disable only for the
  /// ablation study.
  bool round_robin_keywords = true;
  /// Subsumption index used when ranking by duration (row-major measured
  /// fastest; kColumnMajor is the paper's Fig.-5 layout — see
  /// bench_ablation_bitmap).
  temporal::NtdIndexKind duration_index = temporal::NtdIndexKind::kRowMajor;
  /// Live-snapshot delta overlay (docs/ingest.md; not owned, immutable,
  /// must outlive the call). When non-null and non-empty the engine reads
  /// graph elements through it — keyword match lists gain the overlay's
  /// delta postings, expansion walks base in-edge runs followed by delta
  /// runs (the exact enumeration order a rebuilt graph would produce), and
  /// candidate assembly routes delta element ids through the overlay.
  /// An empty overlay is identical to null.
  const graph::DeltaOverlay* overlay = nullptr;
  /// Safety valve: stop after this many NTD pops (<= 0 = unlimited).
  int64_t max_pops = -1;
  /// Safety valve: cap on NTD-set cross products explored per pop.
  int64_t max_combos_per_pop = 1 << 16;
  /// Wall-clock budget for one Search() call in milliseconds (<= 0 = none).
  /// When it expires the search stops at the next pop boundary and returns
  /// whatever was found, sorted and truncated to k, with
  /// `deadline_exceeded` set on the response. A budget that reaches past
  /// the clock's last representable instant could never expire and runs
  /// as none.
  int64_t deadline_ms = -1;
  /// Cooperative cancellation token (not owned; may be shared by many
  /// queries). When non-null and set, the search stops at the next pop
  /// boundary with `cancelled` set on the response.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional second cancellation token, checked alongside `cancel`. Lets a
  /// batch-wide token (e.g. QueryExecutor::Cancel) compose with a
  /// caller-supplied per-query token; either one stops the search.
  const std::atomic<bool>* extra_cancel = nullptr;
  /// Optional flight recorder (not owned). One trace serves ONE query on one
  /// thread; batch callers must hand each query its own trace or none.
  obs::QueryTrace* trace = nullptr;

  /// Test seam: when non-null the deadline machinery reads this clock
  /// instead of std::chrono::steady_clock::now(). Must be monotone.
  std::chrono::steady_clock::time_point (*clock_fn)(void* ctx) = nullptr;
  void* clock_ctx = nullptr;

  /// Test seam: when non-null the main loop calls this after every pop
  /// with the keyword, its frontier and the popped NTD, so a caller can
  /// fingerprint the pop sequence (workcount_dump --popseq).
  void (*pop_fn)(void* ctx, size_t keyword, const BestPathIterator& frontier,
                 NtdId popped) = nullptr;
  void* pop_ctx = nullptr;
};

/// Work counters for the evaluation harness (§6's reported quantities).
struct SearchCounters {
  /// Best-path sources started: the filtered match nodes of every keyword
  /// frontier, including sources that start exhausted.
  int64_t iterators = 0;
  int64_t pops = 0;                ///< NTDs popped (all frontiers).
  /// Stale queue entries skipped; 0 under pure relevance ranking, whose
  /// frontiers skip a fully claimed child before creating it.
  int64_t useless_pops = 0;
  int64_t ntds_created = 0;        ///< Arena NTDs across frontiers.
  int64_t edges_scanned = 0;       ///< In-edges examined across frontiers.
  int64_t subsumption_skips = 0;   ///< Algorithm-2 case-1 prunes.
  int64_t subsumption_evictions = 0;  ///< Algorithm-2 case-3 removals.
  int64_t nodes_visited = 0;       ///< Distinct nodes popped by >=1 source.
  int64_t candidates = 0;          ///< NTD-set combinations examined.
  int64_t invalid_time = 0;        ///< Candidates with empty common time.
  int64_t invalid_structure = 0;   ///< Path unions that were not trees.
  int64_t root_reducible = 0;      ///< Candidates dropped per the root rule.
  int64_t predicate_rejected = 0;  ///< Results failing the final check.
  int64_t duplicates = 0;          ///< Re-derived known trees.
  /// Met-all pops whose cross product max_combos_per_pop cut short: at
  /// least one combination was left unvisited.
  int64_t combo_overflows = 0;
  /// Candidates whose verdict the pop's candidate memo replayed instead of
  /// assembling them (docs/algorithms.md, "Redundant keyword paths").
  /// Each is also counted under the verdict it replayed.
  int64_t memo_hits = 0;
  int64_t results = 0;             ///< Distinct valid results found.
  /// Mean NTDs per reached node per source (the paper's "average number
  /// of NTDs associated with each node"), over sources that expanded past
  /// themselves.
  double avg_ntds_per_node = 0.0;

  /// Wall-clock phase breakdown in seconds (Figs. 7-10): keyword-match
  /// lookup, predicate filtering of matches, best-path iteration, result
  /// generation. seconds_expand is the frontier build plus the whole main
  /// loop minus seconds_generate (docs/observability.md).
  double seconds_match = 0.0;
  double seconds_filter = 0.0;
  double seconds_expand = 0.0;
  double seconds_generate = 0.0;

  /// Adds every count and phase time of `other` (batch totals).
  /// avg_ntds_per_node, a per-query mean, is left as it is.
  void Merge(const SearchCounters& other);
};

/// Why the main loop stopped.
enum class StopReason {
  kExhausted,   ///< Every keyword frontier drained.
  kBound,       ///< The §4.2 kth-beats-bound test fired.
  kMaxPops,     ///< The max_pops safety valve fired.
  kDeadline,    ///< The wall-clock deadline expired.
  kCancelled,   ///< The cancellation token was set.
};

std::string_view StopReasonName(StopReason reason);

/// Outcome of one search.
struct SearchResponse {
  /// Up to k results, best score first. Sorted and truncated to k on every
  /// stop path, including early exits (max_pops / deadline / cancellation).
  std::vector<ResultTree> results;
  SearchCounters counters;
  /// Observability values SearchCounters lacks; populated on every stop
  /// path.
  obs::SearchStats stats;
  StopReason stop_reason = StopReason::kExhausted;
  /// True when every frontier drained (vs. stopping on the bound).
  bool exhausted = false;
  /// True when a safety valve fired (max_pops, deadline, or cancellation).
  bool truncated = false;
  /// True when the wall-clock deadline expired before completion.
  bool deadline_exceeded = false;
  /// True when the cancellation token stopped the search.
  bool cancelled = false;
};

/// Top-k keyword search over one temporal graph.
///
/// The graph (and index, if given) must outlive the engine. The engine is
/// stateless across Search() calls and therefore reusable.
class SearchEngine {
 public:
  /// `index` resolves keywords to match nodes; pass nullptr if every query
  /// will use SearchWithMatches().
  explicit SearchEngine(const graph::TemporalGraph& graph,
                        const graph::InvertedIndex* index = nullptr);

  /// Runs `query`, resolving keywords through the inverted index.
  Result<SearchResponse> Search(const Query& query,
                                const SearchOptions& options = {}) const;

  /// Runs `query` with externally supplied match sets, one per keyword
  /// (the paper's protocol for the unlabeled social-network data).
  Result<SearchResponse> SearchWithMatches(
      const Query& query,
      const std::vector<std::vector<graph::NodeId>>& matches,
      const SearchOptions& options = {}) const;

 private:
  const graph::TemporalGraph* graph_;
  const graph::InvertedIndex* index_;
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_SEARCH_ENGINE_H_
