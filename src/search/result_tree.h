// Result trees (Definition 2.2) and candidate assembly.
//
// A result is a rooted subtree of the data graph containing a match for
// every query keyword, minimal (no node removable), valid in at least one
// instant, and satisfying the query predicates. Candidates are assembled
// from one best-path NTD per keyword meeting at a common root; this module
// turns such a bundle of paths into a validated, reduced, canonicalized
// ResultTree.

#ifndef TGKS_SEARCH_RESULT_TREE_H_
#define TGKS_SEARCH_RESULT_TREE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/temporal_graph.h"
#include "search/ranking.h"
#include "temporal/interval_set.h"

namespace tgks::graph {
class DeltaOverlay;  // delta_overlay.h
}

namespace tgks::search {

/// A validated query result.
struct ResultTree {
  graph::NodeId root = graph::kInvalidNode;
  /// Tree nodes, sorted ascending (root included).
  std::vector<graph::NodeId> nodes;
  /// Tree edges in forward (root-to-leaf) direction, sorted ascending.
  std::vector<graph::EdgeId> edges;
  /// Exact result time: the intersection of every node's and edge's
  /// validity. Non-empty for any valid result.
  temporal::IntervalSet time;
  /// Sum of node and edge weights (the paper's weighted tree size; relevance
  /// score is its inverse), added in a fixed order: the root's weight, then
  /// for each other node in ascending NodeId order its own weight followed
  /// by its incoming tree edge's. The order pins the last bit of the sum.
  double total_weight = 0.0;
  /// Score under the query's ranking spec, larger-is-better per component.
  ScoreVec score;
  /// For each query keyword, the matched node serving it in this tree.
  std::vector<graph::NodeId> keyword_nodes;

  /// Stable identity for deduplication: root plus the sorted edge set, as
  /// "root:e1,e2,...,".
  std::string Signature() const;
  /// Signature() appended to `*out`; allocates only if `*out` must grow.
  void AppendSignature(std::string* out) const;
};

/// Signatures of the trees a search has already accepted.
using SignatureSet = std::unordered_set<std::string>;

/// Why a candidate bundle failed to become a result.
enum class CandidateRejection {
  kAccepted,
  kNotATree,      ///< The union of paths has a node with two parents.
  kEmptyTime,     ///< Element validities share no instant.
  kRootReducible, ///< Root had one child and covered no keyword: a
                  ///< lower-rooted duplicate exists and is emitted instead.
  kDuplicate,     ///< The reduced tree is already in the caller's seen set.
};

/// Turns per-keyword paths meeting at a root into a reduced, timed tree.
///
/// One assembler serves one search: its buffers keep their capacity across
/// candidates, so a candidate that is rejected or found to be a duplicate
/// allocates nothing once the buffers have grown to the search's largest
/// candidate. Assembly works on small sorted arrays, in four steps:
///
///  1. sort and dedup the edge union, and check it is a tree under `root`;
///  2. read keyword coverage by binary search on the sorted match lists;
///  3. peel leaves not needed for coverage, farthest from the root first,
///     ties to the smaller NodeId;
///  4. apply the root rule, then look the reduced tree's signature up in the
///     caller's seen set before timing and weighing the tree.
class CandidateAssembler {
 public:
  /// `match_lists[i]`, when given, is keyword i's full match set, sorted
  /// and unique, so that any tree node matching keyword i covers it during
  /// reduction; otherwise only the designated match covers i. Both
  /// `match_lists` and `overlay` (which routes element reads for delta ids
  /// on live snapshots) must outlive the assembler.
  CandidateAssembler(const graph::TemporalGraph& graph,
                     const std::vector<std::vector<graph::NodeId>>* match_lists,
                     const graph::DeltaOverlay* overlay = nullptr);

  /// Assembles the candidate whose forward paths (root -> match) are
  /// concatenated in `path_edges`, in any order and with shared prefixes
  /// repeated; the buffer is sorted and deduplicated in place. `matches[i]`
  /// is keyword i's designated match node.
  ///
  /// Returns kDuplicate, without timing or building anything, when the
  /// reduced tree's signature is in `seen` (which may be null). On
  /// kAccepted `*out` holds the tree, its score left to the caller. After
  /// kEmptyTime or kAccepted, signature() names the reduced tree; the
  /// caller inserts it into `seen` once its own checks pass.
  CandidateRejection Assemble(graph::NodeId root,
                              std::vector<graph::EdgeId>* path_edges,
                              const std::vector<graph::NodeId>& matches,
                              const SignatureSet* seen, ResultTree* out);

  /// Signature of the last reduced candidate (see Assemble).
  const std::string& signature() const { return signature_; }

  /// After an Assemble that did not return kNotATree, with at most 64
  /// keywords: whether every keyword in `redundant` (one bit per keyword)
  /// kept a coverer that survived the peel for a reason outside
  /// `redundant` — the root, a node that never became a leaf, or a leaf
  /// kept as the last coverer of a keyword outside `redundant`. This is
  /// condition (c) of the redundant-path lemma (candidate_memo.h,
  /// docs/algorithms.md "Redundant keyword paths"), checked on the peel of
  /// a combination's core paths.
  bool RedundantCoverHolds(uint64_t redundant) const;

 private:
  CandidateRejection CheckTree(graph::NodeId root,
                               const std::vector<graph::EdgeId>& edges);
  void ComputeCoverage(const std::vector<graph::NodeId>& matches);
  void Peel();
  bool ComputeTimeAndWeight();
  void Build(const std::vector<graph::EdgeId>& edges, ResultTree* out) const;

  const graph::Node& NodeAt(graph::NodeId id) const;
  const graph::Edge& EdgeAt(graph::EdgeId id) const;

  const graph::TemporalGraph& graph_;
  const std::vector<std::vector<graph::NodeId>>* match_lists_;
  const graph::DeltaOverlay* overlay_;

  // Per-candidate state. Tree nodes are addressed by their position in the
  // sorted `nodes_` array, so position order is NodeId order.
  std::vector<graph::NodeId> nodes_;  ///< Root plus every edge head, sorted.
  std::vector<int32_t> parent_;       ///< Parent position; -1 at the root.
  std::vector<graph::EdgeId> edge_to_;  ///< Incoming tree edge.
  std::vector<int32_t> edge_child_;   ///< Child position per union edge.
  std::vector<int32_t> depth_;        ///< Edges from the root.
  std::vector<int32_t> children_;     ///< Live child count.
  std::vector<uint8_t> removed_;      ///< Peeled.
  /// Per kept leaf: the keywords it was the last live coverer of; 0 for a
  /// node never examined as a leaf. Bits for keywords 0-63 only.
  std::vector<uint64_t> kept_for_;
  std::vector<uint8_t> cover_;        ///< Position-major n x m coverage.
  std::vector<int32_t> cover_count_;  ///< Live coverers per keyword.
  std::vector<int32_t> walk_;         ///< Parent-chain scratch for depths.
  std::vector<int64_t> leaves_;       ///< Peel heap of (depth, -position).
  size_t m_ = 0;
  int32_t root_pos_ = 0;
  std::string signature_;
  temporal::IntervalSet time_, narrow_;
  double weight_ = 0.0;
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_RESULT_TREE_H_
