// Temporal-aware best path iterator (paper §3, Algorithms 1 and 2).
//
// A generalization of Dijkstra's single-source algorithm to temporal graphs.
// The exploration unit is the NTD triplet (node, interval set, distance); the
// iterator pops NTDs in best-first order of the query's ranking function and
// expands them backward along incoming edges. Guarantees *snapshot
// reducibility*: its output equals running (ranking-appropriate) Dijkstra on
// every snapshot and merging duplicate paths.
//
// Two NTD-maintenance semantics, chosen by the primary ranking factor:
//
//  * Partition (relevance / end time / start time, §3.1-3.2): across the
//    popped NTDs of a node, every time instant is claimed at most once —
//    by the first-popped (hence best) NTD covering it. Stale queue entries
//    are skipped lazily via per-(node, instant) visited marks, the paper's
//    "in-place update" (§3.1).
//
//  * Subsumption (duration, §3.3, Algorithm 2): an instant may live in
//    several NTDs of a node; an arriving interval set is dropped iff an
//    existing NTD's set subsumes it, and it evicts the NTDs it subsumes.
//    Subsumption is answered by a pluggable NtdSubsumptionIndex (row-major
//    bitmaps by default; the paper's Fig.-5 column layout is available).
//
// Element-level predicate pruning (§5) hooks in through Options::prune:
// nodes/edges whose validity fails the predicate's necessary condition are
// never expanded.
//
// An iterator runs one such expansion per source and always pops the
// globally best NTD across them (§4.1's "expand the best iterator"), so the
// engine needs one iterator — a keyword frontier — per keyword instead of
// one per match. Sources never interact: each keeps its own queue, claims
// and subsumption indexes, and pops exactly the sequence a one-source
// iterator over it would. A 4-ary heap of sources, keyed by each source's
// settled queue top (ties to the smaller source index), merges those
// sequences. NTDs of all sources share one arena and carry their source's
// index in Ntd::origin. The iterator keeps no per-node list of its pops:
// the engine files each pop in its own meeting lists as Next() returns it.
//
// Under pure relevance ranking (partition semantics, factors exactly
// {relevance}) successors are generated lazily, as in partial-expansion A*
// (docs/algorithms.md, "Lazy successor generation"): a popped NTD leaves
// continuations in its source's queue instead of pushing every child, and a
// child is created only when its continuation reaches the top — so a source
// creates little more than the NTDs it pops. The pop sequence is exactly the
// eager one. Every other ranking expands eagerly, because there the child's
// key depends on its time set (or Algorithm 2 needs it at push time). The
// choice is made from the ranking alone.
//
// Time sets have two representations, chosen once per iterator from the
// graph's timeline_length() (docs/performance.md, "Word-parallel time
// masks"): on timelines of at most TimeMask::kCapacity (128) instants, NTD
// times, per-node claims, the per-edge intersection and the temporal score
// factors are all TimeMasks — two 64-bit words each. Longer
// timelines run the same loops on IntervalSets, with NTD times in an arena
// parallel to the NTDs. Both produce identical pops and work counters;
// TimeOf() reads an NTD's time in either.
//
// The graph is a graph::GraphView: a build-once graph, or a live snapshot's
// base plus delta overlay. The view picks the slot reader the expansion
// loops run on (graph/expansion_reader.h); over a delta they walk each
// node's base in-edge run and then its delta run, the order a graph rebuilt
// with the delta would enumerate, so they pop what a rebuilt graph pops.
//
// All working state (NTD arena, heaps, flat per-node epoch tables) lives in
// a pooled BestPathScratch (search_scratch.h): constructing an iterator on
// a thread that ran one before reuses the previous state's memory, and the
// steady-state pop/expand loop performs no heap allocation (see
// docs/performance.md and bench_micro_alloc).

#ifndef TGKS_SEARCH_BEST_PATH_ITERATOR_H_
#define TGKS_SEARCH_BEST_PATH_ITERATOR_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph_view.h"
#include "graph/temporal_graph.h"
#include "obs/query_trace.h"
#include "obs/search_stats.h"
#include "search/ntd.h"
#include "search/predicate.h"
#include "search/ranking.h"
#include "search/search_scratch.h"
#include "temporal/interval_set.h"
#include "temporal/ntd_bitmap_index.h"
#include "temporal/time_mask.h"

namespace tgks::search {

/// Work counters exposed for the evaluation harness.
struct IteratorStats {
  /// NTDs created. In lazy mode a child is created only when it is about
  /// to pop, so this is the pops plus at most one head per source.
  int64_t ntds_pushed = 0;
  int64_t ntds_popped = 0;       ///< Useful pops (expanded).
  /// Stale/dead queue entries skipped; always 0 in lazy mode, which skips
  /// a fully claimed child before creating it.
  int64_t useless_pops = 0;
  /// In-slots whose child was checked: every in-slot of a popped NTD in
  /// eager mode, only those whose continuation reached the top in lazy
  /// mode.
  int64_t edges_scanned = 0;
  int64_t nodes_reached = 0;     ///< Distinct nodes with >= 1 popped NTD.
  int64_t subsumption_skips = 0; ///< Algorithm-2 case-1 prunes.
  int64_t subsumption_evictions = 0;  ///< Algorithm-2 case-3 removals.
  // Observability additions.
  int64_t prunes = 0;            ///< Elements rejected by predicate pruning.
  int64_t interval_ops = 0;      ///< IntervalSet ops on the expansion path.
  /// Max entries any source held: its queue, plus its head in lazy mode.
  int64_t heap_high_water = 0;
};

/// Multi-source best path iterator over a temporal graph.
///
/// The graph must outlive the iterator. Call Next() repeatedly; each useful
/// step pops one NTD — the best remaining path prefix under the ranking,
/// over all sources — and expands its in-neighbors. Stats are summed over
/// the sources (heap_high_water: max), so they equal the sums of one-source
/// iterators run over the same sources.
class BestPathIterator {
 public:
  struct Options {
    /// Pop order; every factor must be expansion-monotone (all four
    /// supported factors are). The primary factor selects the NTD
    /// maintenance semantics.
    RankingSpec ranking;
    /// Optional element-level predicate pruning (§5). Not owned.
    const PredicateExpr* prune = nullptr;
    /// Subsumption index implementation for duration ranking. Row-major
    /// is the measured-fastest at laptop scale (see bench_ablation_bitmap);
    /// kColumnMajor is the paper's Fig.-5 structure.
    temporal::NtdIndexKind duration_index =
        temporal::NtdIndexKind::kRowMajor;
    /// Optional event recorder (not owned; null = no tracing). Events of
    /// source i carry `trace_iter + i` as their iterator id.
    obs::QueryTrace* trace = nullptr;
    int32_t trace_iter = -1;
  };

  /// Starts one backward expansion per entry of `sources` over `graph`
  /// (a build-once graph, or a live snapshot's base + delta); source i is
  /// the NTD origin i. A source that fails the predicate prune starts
  /// exhausted.
  BestPathIterator(graph::GraphView graph,
                   std::span<const graph::NodeId> sources, Options options);
  /// The one-source case.
  BestPathIterator(graph::GraphView graph, graph::NodeId source,
                   Options options)
      : BestPathIterator(graph, std::span<const graph::NodeId>(&source, 1),
                         std::move(options)) {}

  BestPathIterator(const BestPathIterator&) = delete;
  BestPathIterator& operator=(const BestPathIterator&) = delete;
  BestPathIterator(BestPathIterator&&) noexcept = default;

  /// Pops and expands the next best NTD. Returns its id, or kInvalidNtd when
  /// the frontier is exhausted.
  NtdId Next();

  /// Score of the NTD Next() would pop, or nullptr when exhausted. Every
  /// source is settled — stale queue entries skipped, or in lazy mode its
  /// next pop created — at construction and at the end of each Next(), so
  /// this is a plain read.
  const ScoreKey* PeekScore() const {
    return scratch_->sources.empty() ? nullptr
                                     : &scratch_->sources.top().score;
  }

  /// The NTD arena entry (valid for any id returned by Next()). Its `time`
  /// is meaningful only when uses_time_masks(); TimeOf reads either.
  const Ntd& ntd(NtdId id) const {
    return scratch_->arena[static_cast<size_t>(id)];
  }

  /// Whether NTD times are TimeMasks: true iff the graph's timeline has at
  /// most TimeMask::kCapacity instants.
  bool uses_time_masks() const { return masks_; }

  /// The time T of NTD `id` as an IntervalSet, in either representation.
  /// For cold readers (path planners, tests); the hot paths use TimeAs.
  temporal::IntervalSet TimeOf(NtdId id) const {
    if (masks_) return ntd(id).time.ToIntervalSet();
    return scratch_->wide_times[static_cast<size_t>(id)];
  }

  /// T of NTD `id` in the iterator's own representation: `Time` must be
  /// TimeMask when uses_time_masks() and IntervalSet otherwise.
  template <typename Time>
  const Time& TimeAs(NtdId id) const {
    if constexpr (std::is_same_v<Time, temporal::TimeMask>) {
      assert(masks_);
      return ntd(id).time;
    } else {
      assert(!masks_);
      return scratch_->wide_times[static_cast<size_t>(id)];
    }
  }

  /// Edge ids of the forward path node -> ... -> source encoded by `id`'s
  /// parent chain (empty when `id` is the source NTD).
  std::vector<graph::EdgeId> PathEdges(NtdId id) const;
  /// PathEdges appended to `*out`, so candidate assembly can reuse one
  /// buffer for every keyword's path.
  void PathEdgesInto(NtdId id, std::vector<graph::EdgeId>* out) const;

  int32_t num_sources() const { return num_sources_; }
  /// The node source `origin` started from.
  graph::NodeId source(int32_t origin) const {
    return scratch_->origins[static_cast<size_t>(origin)].source;
  }
  /// The source whose expansion created NTD `id`.
  graph::NodeId source_of(NtdId id) const { return source(ntd(id).origin); }
  const IteratorStats& stats() const { return stats_; }

  /// Number of NTDs ever created (arena size), over all sources / by
  /// source `origin`.
  int64_t num_ntds() const {
    return static_cast<int64_t>(scratch_->arena.size());
  }
  int64_t num_ntds(int32_t origin) const {
    return scratch_->origins[static_cast<size_t>(origin)].ntds;
  }

  /// Distinct nodes popped, summed over sources / by source `origin`.
  int64_t nodes_reached() const { return stats_.nodes_reached; }
  int64_t nodes_reached(int32_t origin) const {
    return scratch_->origins[static_cast<size_t>(origin)].nodes_reached;
  }

 private:
  bool UsesSubsumptionSemantics() const {
    return options_.ranking.primary() == RankFactor::kDurationDesc;
  }

  /// Readies source `origin`'s next pop: SettleTop in eager mode,
  /// CreateHead in lazy mode. Returns false when the source is exhausted.
  bool Settle(BestPathOrigin& slot, int32_t origin);
  /// Score of the settled next pop of `slot`'s source.
  const ScoreKey& TopScore(const BestPathOrigin& slot) const {
    return lazy_ ? slot.head_score : slot.queue.top().score;
  }

  /// Eager mode: pops stale/dead entries off `slot`'s queue until its top
  /// is actionable (or the queue is empty). Returns false when exhausted.
  bool SettleTop(BestPathOrigin& slot, int32_t trace_iter);

  /// Lazy mode: runs the best continuations of `slot`'s queue until one
  /// creates an actionable child, which becomes the source's head. Returns
  /// false when the queue empties first.
  template <typename Time, typename Reader>
  bool CreateHead(BestPathOrigin& slot, const Reader& reader);
  /// Lazy mode: queues the continuations of popped NTD `id` — one for a
  /// uniform node's whole in-slot run, else one per slot.
  template <typename Reader>
  void PushContinuations(BestPathOrigin& slot, NtdId id,
                         const Reader& reader);

  /// Appends an NTD of source `origin` to the arena and queues it — in
  /// lazy mode as the source's head. `time` is copied into the NTD (a wide
  /// time is copy-assigned into its parallel arena slot, which keeps its
  /// capacity). Records a kExpand trace event only for expansion products
  /// (`parent` set) — a source NTD was never expanded from anything.
  template <typename Time>
  NtdId PushNtd(BestPathOrigin& slot, int32_t origin, graph::NodeId node,
                const Time& time, double dist, NtdId parent,
                graph::EdgeId via_edge);
  void ExpandNeighbors(BestPathOrigin& slot, NtdId id);
  /// Picks the semantics for one time representation, with the graph
  /// view's slot reader.
  template <typename Time>
  void ExpandNeighborsAs(BestPathOrigin& slot, NtdId id);
  /// Expansion loop bodies, templated over the time representation and a
  /// slot reader (graph/expansion_reader.h). The base-reader instantiations
  /// inline to plain view reads, so build-once graphs pay nothing for the
  /// overlay.
  template <typename Time, typename Reader>
  void ExpandNeighborsPartition(BestPathOrigin& slot, NtdId id,
                                const Reader& reader);
  template <typename Time, typename Reader>
  void ExpandNeighborsSubsumption(BestPathOrigin& slot, NtdId id,
                                  const Reader& reader);

  /// The partition checks of the child of the NTD with `parent_time` /
  /// `parent_dist` at slot `s`, in Algorithm 1's order: predicate prune,
  /// T∩ = parent_time ∩ val(edge) non-empty, then `slot`'s claims. Counts
  /// the slot as scanned. True iff the child is to be created, with T∩ in
  /// `*tmp`.
  template <typename Time, typename Reader>
  bool ChildSurvives(const BestPathOrigin& slot, const Time& parent_time,
                     double parent_dist, int64_t s, graph::NodeId neighbor,
                     int32_t trace_iter, const Reader& reader, Time* tmp);

  /// Predicate prune (§5) of the edge at slot `s` and its source node
  /// `neighbor`: false iff either element fails the necessary condition.
  template <typename Time, typename Reader>
  bool ElementsMayQualify(const Reader& reader, int64_t s,
                          graph::NodeId neighbor) const;

  /// True iff every instant of `time` is already claimed at `node` by
  /// `slot`'s source (allocation-free).
  static bool FullyClaimed(const BestPathOrigin& slot, graph::NodeId node,
                           const temporal::TimeMask& time);
  static bool FullyClaimed(const BestPathOrigin& slot, graph::NodeId node,
                           const temporal::IntervalSet& time);
  /// FullyClaimed for NTD `id`'s own time.
  bool NtdFullyClaimed(const BestPathOrigin& slot, NtdId id) const;

  graph::GraphView graph_;
  Options options_;
  int32_t num_sources_ = 0;
  bool masks_ = false;  ///< Time representation (see uses_time_masks).
  /// Lazy successor generation: partition semantics with factors exactly
  /// {relevance}.
  bool lazy_ = false;

  BestPathScratchPool::Handle scratch_;
  IteratorStats stats_;
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_BEST_PATH_ITERATOR_H_
