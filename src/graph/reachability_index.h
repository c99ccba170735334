// ReachabilityIndex: temporal reachability labeling.
//
// The transformed temporal graph is, per time instant, an ordinary directed
// graph (the snapshot G_t, §2.2). Because validity is interval-based, the
// timeline factors into *epochs* — maximal instant ranges over which no node
// or edge appears or disappears — and every instant of an epoch shares one
// snapshot. The index condenses each epoch's snapshot into its DAG of
// strongly connected components and answers "can u temporally reach v at
// instant t" through a TopChain-style chain-cover labeling (Wu et al.,
// arXiv:1601.05909, adapted from time-respecting paths to the paper's
// per-snapshot semantics):
//
//   * SCC ids are assigned in topological order, so every condensed edge
//     goes from a lower id to a higher id and id comparison alone refutes
//     most negative probes.
//   * The DAG is greedily decomposed into chains (paths in the DAG). Each
//     SCC carries an out-label {(chain, min position reached)} and an
//     in-label {(chain, max position that reaches it)}; u reaches v iff some
//     chain appears in both with out-position <= in-position.
//   * Labels are truncated to the top kMaxLabelEntries chains (lowest chain
//     ids — the longest, earliest chains — first). A per-SCC completeness
//     bit records whether truncation lost information; probes between a
//     complete side and anything are exact, and the rare
//     truncated-vs-truncated miss falls back to a DFS over the condensed
//     DAG pruned by topological id.
//
// On top of the boolean oracle the index derives EarliestArrival(u, t, v):
// the smallest instant t' >= t at which u reaches v (kNoTimePoint if none) —
// a lower bound on when any result tree can connect the pair, monotone
// non-decreasing in t. No search path reads the index; tests use it as a
// reachability oracle for answers, and graph_stats, workcount_dump --layout
// and the dblp benchmark report its build statistics
// (docs/reachability.md).
//
// Built on the first TemporalGraph::reachability() call, once per graph
// and its copies. It is not persisted: a .tgb load ignores the labels that
// format versions 2 to 4 stored.
// Construction is O(epochs * (V + E + labels)); probes are O(label size)
// with the DFS fallback bounded by the condensed DAG.

#ifndef TGKS_GRAPH_REACHABILITY_INDEX_H_
#define TGKS_GRAPH_REACHABILITY_INDEX_H_

#include <cstdint>
#include <vector>

#include "graph/temporal_graph.h"
#include "temporal/interval_set.h"
#include "temporal/time_point.h"

namespace tgks::graph {

/// Snapshot-factored chain-cover reachability labeling. Immutable once
/// built; probes are const and thread-compatible (no shared mutable state).
class ReachabilityIndex {
 public:
  /// Labels kept per SCC side before truncation kicks in. Chains are ranked
  /// by id (creation order along the topological order), so low ids cover
  /// the bulk of the DAG and truncation rarely loses completeness.
  static constexpr int kMaxLabelEntries = 8;

  /// One (chain, position) entry; meaning depends on the side (out-labels
  /// store the minimum reachable position, in-labels the maximum reaching
  /// position).
  struct LabelEntry {
    int32_t chain = 0;
    int32_t pos = 0;
  };

  /// Construction-time facts surfaced through graph_stats / --layout.
  struct BuildStats {
    int64_t epochs = 0;
    int64_t sccs = 0;          // summed over epochs
    int64_t dag_edges = 0;     // summed over epochs
    int64_t chains = 0;        // summed over epochs
    int64_t label_entries = 0; // out + in, summed over epochs
    int64_t label_bytes = 0;   // storage for label entries alone
    double build_seconds = 0.0;
  };

  ReachabilityIndex() = default;

  /// Builds the full index for `g`. Requires a structurally valid graph
  /// (what GraphBuilder::Build has already enforced).
  static ReachabilityIndex Build(const TemporalGraph& g);

  /// True iff u and v are both alive at `t` and the snapshot G_t has a
  /// directed path u -> v (u == v counts when alive). Exact, never a bound.
  bool CanReach(NodeId u, temporal::TimePoint t, NodeId v) const;

  /// The earliest instant t' >= t with CanReach(u, t', v); kNoTimePoint if
  /// no such instant exists. Monotone non-decreasing in t.
  temporal::TimePoint EarliestArrival(NodeId u, temporal::TimePoint t,
                                      NodeId v) const;

  const BuildStats& stats() const { return stats_; }
  NodeId num_nodes() const { return num_nodes_; }
  temporal::TimePoint timeline_length() const { return timeline_length_; }
  int64_t num_epochs() const { return static_cast<int64_t>(epochs_.size()); }

  /// Byte-exact structural equality (pins that a lazy build equals Build).
  bool IdenticalTo(const ReachabilityIndex& other) const;

 private:
  /// One epoch's condensed snapshot. SCC ids are topological: every DAG
  /// edge satisfies src-id < dst-id.
  struct Epoch {
    temporal::TimePoint begin = 0;  // inclusive
    temporal::TimePoint end = 0;    // inclusive
    int32_t num_sccs = 0;
    std::vector<int32_t> scc_of;       // per node; -1 = dead in this epoch
    std::vector<int32_t> dag_offsets;  // num_sccs + 1
    std::vector<int32_t> dag_edges;    // deduped, ascending per source
    std::vector<int32_t> chain_of;     // per SCC
    std::vector<int32_t> chain_pos;    // per SCC, position along its chain
    int32_t num_chains = 0;
    std::vector<int32_t> out_offsets;  // num_sccs + 1 into out_labels
    std::vector<LabelEntry> out_labels;
    std::vector<uint8_t> out_complete;  // per SCC, 1 = label untruncated
    std::vector<int32_t> in_offsets;    // num_sccs + 1 into in_labels
    std::vector<LabelEntry> in_labels;
    std::vector<uint8_t> in_complete;
  };

  const Epoch& EpochAt(temporal::TimePoint t) const {
    return epochs_[static_cast<size_t>(
        epoch_of_[static_cast<size_t>(t)])];
  }

  static void BuildEpoch(const TemporalGraph& g, temporal::TimePoint begin,
                         temporal::TimePoint end, Epoch* epoch);
  static bool SccReaches(const Epoch& epoch, int32_t cu, int32_t cv);

  temporal::TimePoint timeline_length_ = 0;
  NodeId num_nodes_ = 0;
  std::vector<Epoch> epochs_;
  std::vector<int32_t> epoch_of_;  // per instant -> index into epochs_
  BuildStats stats_;
};

}  // namespace tgks::graph

#endif  // TGKS_GRAPH_REACHABILITY_INDEX_H_
