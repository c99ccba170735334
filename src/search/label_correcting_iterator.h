// Label-correcting best path iterator for non-monotone ranking directions
// (the paper's §8 future work).
//
// Algorithm 1 requires the path score to be monotonically NON-INCREASING
// under edge expansion (Corollary 3.3). Three inverse directions violate
// that — expanding an edge intersects validity away, which *improves*
//
//   * ascending result end time    (earliest-ending results first),
//   * descending result start time (latest-starting results first),
//   * ascending duration           (shortest-lived results first).
//
// This is the temporal analogue of negative edge weights, so — as §8
// suggests — we adapt Bellman-Ford into a label-correcting relaxation.
//
// The key design point is the dominance rule. Scalar per-(node, instant)
// labels are NOT sound here: a path with a worse value today can win after a
// future intersection (e.g. under ascending end time, T={1,9} loses to
// T'={1,5} at instant 1 now, but intersected with E={1,5} it yields {1},
// end 1, beating {1,5}, end 5). What IS sound is the set-subset dual of
// Algorithm 2's rule: a kept fragment with time T_A dominates an arrival
// T_B *at the instants of T_A* iff T_A ⊆ T_B, because T_A ∩ E ⊆ T_B ∩ E for
// every future intersection E, and a subset has smaller-or-equal end,
// greater-or-equal start, and smaller-or-equal duration. An arrival is
// therefore dropped iff the kept subsets of its time-set jointly cover it —
// answered with the same subsumption index Algorithm 2 uses, direction
// reversed. All three factors are functions of the time-set alone, so one
// rule serves all of them.
//
// There is no useful best-first order (scores improve during exploration),
// hence no incremental top-k: Run() relaxes to fixpoint, then per-(node,
// instant) optima and witness paths are inspected. Termination: a node
// keeps at most one fragment per distinct time-set (re-arrivals are covered
// by themselves), bounding work by the paper's own O(2^T) Algorithm-2
// worst case; real graphs stay tiny.
//
// The iterator reads a build-once graph only: it walks the base
// ExpansionView and has no live-snapshot (delta overlay) path, which only
// the engine's keyword frontiers have (search/best_path_iterator.h).

#ifndef TGKS_SEARCH_LABEL_CORRECTING_ITERATOR_H_
#define TGKS_SEARCH_LABEL_CORRECTING_ITERATOR_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/temporal_graph.h"
#include "obs/query_trace.h"
#include "obs/search_stats.h"
#include "search/ntd.h"
#include "search/search_scratch.h"
#include "temporal/interval_set.h"
#include "temporal/ntd_bitmap_index.h"

namespace tgks::search {

/// Work counters for the label-correcting relaxation (observability).
struct LabelCorrectingStats {
  int64_t fragments_dropped = 0;      ///< Arrivals covered by kept subsets.
  int64_t interval_ops = 0;           ///< IntervalSet ops on the hot path.
  int64_t worklist_high_water = 0;    ///< Max worklist size ever reached.
};

/// The ranking directions Algorithm 1 cannot serve (§8).
enum class InverseRankFactor {
  kEndTimeAsc,     ///< Minimize the result's latest valid instant.
  kStartTimeDesc,  ///< Maximize the result's earliest valid instant.
  kDurationAsc,    ///< Minimize the number of valid instants.
};

std::string_view InverseRankFactorName(InverseRankFactor factor);

/// Factor value of a validity set, normalized so smaller is better.
/// The set must be non-empty.
int32_t InverseValue(InverseRankFactor factor,
                     const temporal::IntervalSet& time);

/// Single-source label-correcting search over a temporal graph.
class LabelCorrectingIterator {
 public:
  struct Options {
    InverseRankFactor factor = InverseRankFactor::kEndTimeAsc;
    /// Safety valve on fragment relaxations (<= 0 = unlimited).
    int64_t max_relaxations = -1;
    /// Optional event recorder (not owned; null = no tracing). Events carry
    /// `trace_iter` as their iterator id.
    obs::QueryTrace* trace = nullptr;
    int32_t trace_iter = -1;
  };

  /// Prepares a run from `source`; the graph must outlive the iterator.
  LabelCorrectingIterator(const graph::TemporalGraph& graph,
                          graph::NodeId source, Options options);

  LabelCorrectingIterator(const LabelCorrectingIterator&) = delete;
  LabelCorrectingIterator& operator=(const LabelCorrectingIterator&) = delete;

  /// Relaxes to fixpoint. Returns false iff max_relaxations fired (results
  /// are then incomplete). Idempotent.
  bool Run();

  /// Best factor value over all paths source -> node valid at instant t;
  /// nullopt when unreachable at t. Requires Run().
  std::optional<int32_t> BestAt(graph::NodeId node,
                                temporal::TimePoint t) const;

  /// Fragment ids kept at `node` (per-instant optima live among them).
  std::vector<NtdId> FragmentsAt(graph::NodeId node) const;

  /// The valid time of fragment `id`.
  const temporal::IntervalSet& FragmentTime(NtdId id) const;

  /// Forward path node -> ... -> source encoded by fragment `id`.
  std::vector<graph::EdgeId> PathEdges(NtdId id) const;
  /// PathEdges appended to `*out`.
  void PathEdgesInto(NtdId id, std::vector<graph::EdgeId>* out) const;

  int64_t relaxations() const { return relaxations_; }
  int64_t fragments_kept() const { return static_cast<int64_t>(arena_.size()); }
  const LabelCorrectingStats& stats() const { return stats_; }
  graph::NodeId source() const { return source_; }

 private:
  struct Fragment {
    graph::NodeId node;
    temporal::IntervalSet time;
    NtdId parent;
    graph::EdgeId via_edge;
  };

  /// Keeps a fragment (node, time, parent, via_edge) unless covered by kept
  /// subsets; returns its id or kInvalidNtd when dropped. `time` is
  /// copy-assigned into the arena.
  NtdId TryKeep(graph::NodeId node, const temporal::IntervalSet& time,
                NtdId parent, graph::EdgeId via_edge);

  const graph::TemporalGraph* graph_;
  graph::NodeId source_;
  Options options_;

  std::vector<Fragment> arena_;
  std::deque<NtdId> worklist_;
  LabelCorrectingScratchPool::Handle scratch_;
  int64_t relaxations_ = 0;
  LabelCorrectingStats stats_;
  bool ran_ = false;
  bool complete_ = true;
};

/// One result of an inverse-direction search.
struct InverseSearchResult {
  graph::NodeId root = graph::kInvalidNode;
  std::vector<graph::NodeId> nodes;   ///< Sorted.
  std::vector<graph::EdgeId> edges;   ///< Sorted, forward direction.
  temporal::IntervalSet time;         ///< Exact result time.
  int32_t value = 0;                  ///< Factor value (smaller = better).
};

/// Exhaustively computes the k best minimal keyword trees (Definition 2.2)
/// under an inverse ranking direction: one label-correcting iterator per
/// match, witness fragments joined at every common node. k <= 0 returns
/// all. Exhaustive by nature — these directions admit no early-stop bound,
/// which is precisely why §8 leaves them outside the incremental framework.
/// `max_relaxations_per_iterator` caps each iterator's fixpoint loop
/// (<= 0 = unlimited); with a cap the result list may be incomplete but
/// every returned tree is still valid. The state space is worst-case
/// exponential in the timeline (like Algorithm 2), so keep inverse
/// searches to archive-scale timelines or set the valve.
std::vector<InverseSearchResult> SearchInverse(
    const graph::TemporalGraph& graph,
    const std::vector<std::vector<graph::NodeId>>& matches,
    InverseRankFactor factor, int32_t k,
    int64_t max_relaxations_per_iterator = 200000);

}  // namespace tgks::search

#endif  // TGKS_SEARCH_LABEL_CORRECTING_ITERATOR_H_
