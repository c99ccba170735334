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
//
// The engine searches a graph::GraphView: a build-once graph, or a live
// snapshot's base plus delta overlay (docs/ingest.md), whose postings the
// view adds to the keyword match lists, whose delta runs the keyword
// frontiers expand after the base runs, and whose elements candidate
// assembly reads by id. A view with no delta is the base graph.

#ifndef TGKS_SEARCH_SEARCH_ENGINE_H_
#define TGKS_SEARCH_SEARCH_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/graph_view.h"
#include "graph/inverted_index.h"
#include "graph/temporal_graph.h"
#include "obs/query_trace.h"
#include "obs/search_stats.h"
#include "search/best_path_iterator.h"
#include "search/query.h"
#include "search/result_tree.h"
#include "temporal/ntd_bitmap_index.h"

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
  /// Safety valve: stop after this many NTD pops (<= 0 = unlimited).
  int64_t max_pops = -1;
  /// Safety valve: cap on NTD-set cross products explored per pop.
  int64_t max_combos_per_pop = 1 << 16;
  /// Wall-clock budget for one Search() call in milliseconds (<= 0 = none).
  /// When it expires the search stops at the next pop boundary and returns
  /// whatever was found, sorted and truncated to k, with stop reason
  /// kDeadline. A budget that reaches past the clock's last representable
  /// instant could never expire and runs as none.
  int64_t deadline_ms = -1;
  /// Cooperative cancellation token (not owned; may be shared by many
  /// queries). When non-null and set, the search stops at the next pop
  /// boundary with stop reason kCancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional flight recorder (not owned). One trace serves ONE query on one
  /// thread; batch callers must hand each query its own trace or none.
  obs::QueryTrace* trace = nullptr;
  /// Output request, like `trace`: when true the response lists the nodes
  /// the query expanded and their slack (SearchResponse::expanded_nodes,
  /// expanded_slack). The search itself is unchanged.
  bool report_expanded_nodes = false;

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

/// Work counters for the evaluation harness (§6's reported quantities) and
/// the Figs. 7-10 phase breakdown in seconds; each field is declared, with
/// its meaning, in TGKS_SEARCH_COUNTERS (obs/search_stats.h).
struct SearchCounters {
  TGKS_SEARCH_COUNTERS(TGKS_FIELD_DECLARE)

  /// Adds every count and phase time of `other` (batch totals).
  /// avg_ntds_per_node, a per-query mean, is left as it is.
  void Merge(const SearchCounters& other) {
    TGKS_SEARCH_COUNTERS(TGKS_FIELD_MERGE)
  }

  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    TGKS_SEARCH_COUNTERS(TGKS_FIELD_VISIT)
  }

  /// One-line key=value rendering (tgks_cli --stats).
  std::string ToString() const { return obs::FieldsToString(*this); }
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
  /// True when a safety valve fired (max_pops, deadline, or cancellation):
  /// stop_reason is neither kExhausted nor kBound.
  bool truncated = false;
  /// Sorted ids of every node a keyword frontier popped, hence every node
  /// whose in-slots the search read (docs/caching.md, "Read sets"). Filled
  /// only under SearchOptions::report_expanded_nodes.
  std::vector<graph::NodeId> expanded_nodes;
  /// Parallel to expanded_nodes: how far a new in-edge at the node must
  /// reach before it can change the answer (docs/caching.md, "Read sets").
  /// Per node, the max over the keywords that popped it of that keyword
  /// frontier's final top minus the distance of its first pop there; +inf
  /// when such a frontier drained, or when the ranking's primary factor is
  /// not relevance. A new child at the node's distance + its in-edge's
  /// weight + its source's weight is never popped nor any frontier's top
  /// when that increment exceeds the slack.
  std::vector<double> expanded_slack;

  /// True when every frontier drained (vs. stopping on the bound).
  bool exhausted() const { return stop_reason == StopReason::kExhausted; }
  /// True when the wall-clock deadline expired before completion.
  bool deadline_exceeded() const {
    return stop_reason == StopReason::kDeadline;
  }
  /// True when the cancellation token stopped the search.
  bool cancelled() const { return stop_reason == StopReason::kCancelled; }
};

/// Top-k keyword search over one temporal graph.
///
/// The viewed graph (and index, if given) must outlive the engine. The
/// engine is stateless across Search() calls and therefore reusable.
class SearchEngine {
 public:
  /// `graph` is a build-once graph or a live snapshot's base + delta
  /// (docs/ingest.md). `index` resolves keywords to match nodes over the
  /// base; the view adds the delta's postings. Pass nullptr if every query
  /// will use SearchWithMatches().
  explicit SearchEngine(graph::GraphView graph,
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
  graph::GraphView graph_;
  const graph::InvertedIndex* index_;
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_SEARCH_ENGINE_H_
