// Result trees (Definition 2.2) and candidate assembly.
//
// A result is a rooted subtree of the data graph containing a match for
// every query keyword, minimal (no node removable), valid in at least one
// instant, and satisfying the query predicates. Candidates are assembled
// from one best-path NTD per keyword meeting at a common root; this module
// turns such a bundle of paths into a validated, reduced, canonicalized
// ResultTree, and keeps the k best of a search's trees.

#ifndef TGKS_SEARCH_RESULT_TREE_H_
#define TGKS_SEARCH_RESULT_TREE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/graph_view.h"
#include "graph/temporal_graph.h"
#include "search/ranking.h"
#include "temporal/interval_set.h"

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
};

/// Signatures of the trees a search has already accepted.
using SignatureSet = std::unordered_set<std::string>;

/// The k best result trees in the order every search ranks by: the better
/// score first, ties to the smaller signature. Over distinct trees that
/// order is strict and total, so which trees are kept, and their order,
/// does not depend on the order they are offered in.
///
/// A bounded set keeps its trees in a heap with the worst on top, so a tree
/// that does not beat it is turned away before anything is built for it.
/// k <= 0 keeps every tree. Nothing is reserved for k: a huge k costs only
/// the trees actually kept.
class TopKResults {
 public:
  explicit TopKResults(int64_t k) : k_(k > 0 ? static_cast<size_t>(k) : 0) {}

  /// Whether the set is bounded and holds k trees.
  bool full() const { return k_ > 0 && entries_.size() >= k_; }

  /// The worst kept tree's score, the k-th best score offered so far.
  /// Requires full().
  const ScoreKey& worst() const { return entries_.front().score; }

  /// Offers a tree with `score` and signature `*signature`, which must
  /// outlive the set. Returns the tree to build it in, or null when the set
  /// is full and the tree does not beat worst(). The returned tree is a
  /// fresh one or the evicted worst, whose buffers keep their capacity;
  /// the caller overwrites every field but the score.
  ResultTree* Offer(const ScoreKey& score, const std::string* signature);

  /// The kept trees, best first, each scored under `ranking` (the spec the
  /// offered scores were made with). Leaves the set empty.
  std::vector<ResultTree> TakeRanked(const RankingSpec& ranking);

 private:
  struct Entry {
    ScoreKey score;
    const std::string* signature;
    size_t tree;  ///< Index into trees_.
  };
  /// The ranking order: true iff `a` ranks before `b`.
  static bool Before(const Entry& a, const Entry& b) {
    if (!(a.score == b.score)) return ScoreBetter(a.score, b.score);
    return *a.signature < *b.signature;
  }

  size_t k_;
  /// Bounded: a heap under Before, so the worst entry is on top.
  std::vector<Entry> entries_;
  std::vector<ResultTree> trees_;
};

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
///
/// Building the ResultTree is a separate step (Build), so that a caller
/// that ranks trees by time and weight builds only those it keeps.
class CandidateAssembler {
 public:
  /// `match_lists[i]`, when given, is keyword i's full match set, sorted
  /// and unique, so that any tree node matching keyword i covers it during
  /// reduction; otherwise only the designated match covers i.
  /// `match_lists` and the viewed graph must outlive the assembler.
  CandidateAssembler(
      graph::GraphView graph,
      const std::vector<std::vector<graph::NodeId>>* match_lists);

  /// Assembles the candidate whose forward paths (root -> match) are
  /// concatenated in `path_edges`, in any order and with shared prefixes
  /// repeated; the buffer is sorted and deduplicated in place. `matches[i]`
  /// is keyword i's designated match node.
  ///
  /// Names, times and weighs the reduced tree but builds nothing. Returns
  /// kDuplicate, without timing, when the reduced tree's signature is in
  /// `seen` (which may be null). After kEmptyTime or kAccepted, signature()
  /// names the reduced tree; after kAccepted, time() and weight() hold its
  /// exact validity and weight, and Build() fills a ResultTree with it. The
  /// caller inserts the signature into `seen` once its own checks pass.
  CandidateRejection Assemble(graph::NodeId root,
                              std::vector<graph::EdgeId>* path_edges,
                              const std::vector<graph::NodeId>& matches,
                              const SignatureSet* seen);

  /// Fills `*out` with the tree the last Assemble accepted: everything but
  /// the score, which is left to the caller. Every other field is
  /// overwritten, so `out` may be a recycled tree whose buffers keep their
  /// capacity.
  void Build(ResultTree* out) const;

  /// The last accepted tree's exact validity and total weight (see
  /// ResultTree::total_weight for the summation order).
  const temporal::IntervalSet& time() const { return time_; }
  double weight() const { return weight_; }

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

  graph::GraphView graph_;
  const std::vector<std::vector<graph::NodeId>>* match_lists_;

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
  std::vector<graph::EdgeId> tree_edges_;  ///< Reduced tree's edges, sorted.
  std::string signature_;
  temporal::IntervalSet time_, narrow_;
  double weight_ = 0.0;
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_RESULT_TREE_H_
