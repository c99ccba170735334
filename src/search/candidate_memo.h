// Verdict memo for the combinations of one met-all pop (Algorithm 3).
//
// At a node where every keyword has met, the engine enumerates the cross
// product of the per-keyword NTD lists and reduces each combination of
// paths to a minimal tree. When a combination's extra keyword paths
// provably peel away, its reduced tree is that of its core paths alone, so
// every combination with the same core and the same redundant keywords
// gets the verdict the first one got (docs/algorithms.md, "Redundant
// keyword paths"). For a combination choosing one path per keyword:
//
//  * R, the redundant keywords: those matched by the root or by a node on
//    another keyword's path;
//  * K, the core: every other keyword; U is the union of the core paths.
//
// If the union of all chosen paths is a tree (FormsTree), and the peel of
// U alone keeps, for each keyword in R, a coverer that survives for a
// reason outside R (CandidateAssembler::RedundantCoverHolds), then peeling
// the full union removes every node outside U and makes the same choices
// on U: the candidate's reduced tree, time, weight and verdict are U's.
//
// The memo holds one pop's path table and its verdicts. Its buffers keep
// their capacity from pop to pop, so a warm memo allocates nothing.

#ifndef TGKS_SEARCH_CANDIDATE_MEMO_H_
#define TGKS_SEARCH_CANDIDATE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/epoch_table.h"
#include "graph/temporal_graph.h"

namespace tgks::search {

/// What a memoized combination adds to the search: exactly the counter its
/// own assembly would have moved.
enum class MemoVerdict : uint8_t {
  kAssemble,           ///< The redundant paths may not peel away: assemble.
  kDuplicate,          ///< The core's tree is known (or was just accepted).
  kRootReducible,      ///< The core's tree fails the root rule.
  kEmptyTime,          ///< The core's tree is never valid.
  kPredicateRejected,  ///< The core's tree fails the final predicate check.
};

/// The paths meeting at one root, and the verdicts of their cores.
class CandidateMemo {
 public:
  /// Most keywords the memo serves: one mask bit per keyword.
  static constexpr size_t kMaxKeywords = 64;

  /// Starts the table of a pop at `root`. A node covers keyword i when it
  /// is in `(*match_lists)[i]` (sorted, unique), as in the assembler.
  void Reset(graph::NodeId root,
             const std::vector<std::vector<graph::NodeId>>* match_lists);

  /// Opens the next path. Paths are added keyword by keyword from keyword
  /// 0, each keyword with at least one path, a keyword's paths in the
  /// order its choice index counts them.
  void BeginPath(size_t keyword);
  /// Appends the path's next node below the root and its incoming edge.
  void AddStep(graph::NodeId node, graph::EdgeId in_edge);
  /// Ends the table. False when no combination has a redundant keyword,
  /// or when combination keys would not fit 64 bits; the memo must not be
  /// used for this pop then.
  bool Seal();

  /// In the calls below `choice[i]` is the index of keyword i's chosen
  /// path among that keyword's paths.

  /// The redundant keywords R of a combination, one bit per keyword.
  uint64_t Redundant(const int32_t* choice) const;
  /// Whether the union of the chosen paths is a tree under the root: no
  /// node has two different incoming edges and no edge enters the root.
  bool FormsTree(const int32_t* choice);
  /// Appends the edges of the core paths (keywords outside `redundant`).
  void CoreEdgesInto(uint64_t redundant, const int32_t* choice,
                     std::vector<graph::EdgeId>* out) const;

  /// The memo key of (`redundant`, the core's choices): a mixed-radix code
  /// with one digit per keyword, 0 for a redundant keyword and 1 + the
  /// choice index for a core keyword.
  uint64_t Key(uint64_t redundant, const int32_t* choice) const;
  /// The verdict stored under `key`, or null.
  const MemoVerdict* Find(uint64_t key) const;
  /// Stores `verdict` under a key not yet present.
  void Insert(uint64_t key, MemoVerdict verdict);

 private:
  struct Path {
    size_t first_step;  ///< Into steps_.
    size_t num_steps;
    uint64_t keywords;  ///< Keywords matched by its nodes below the root.
    bool enters_root;   ///< Some step's node is the root: not a tree.
  };
  struct Step {
    int32_t slot;  ///< Node slot (see SlotOf).
    graph::EdgeId in_edge;
  };
  struct VerdictEntry {
    uint64_t key;
    uint32_t stamp;
    MemoVerdict verdict;
  };

  /// The slot of `node` this pop, assigned on first sight.
  int32_t SlotOf(graph::NodeId node);
  uint64_t KeywordsOf(graph::NodeId node) const;
  void GrowVerdicts();

  const std::vector<std::vector<graph::NodeId>>* match_lists_ = nullptr;
  graph::NodeId root_ = graph::kInvalidNode;
  uint64_t root_keywords_ = 0;
  uint32_t epoch_ = 0;  ///< Stamps the verdict entries of this pop.

  std::vector<Path> paths_;
  std::vector<Step> steps_;
  std::vector<size_t> first_path_;  ///< Per keyword: its first path.
  std::vector<uint64_t> stride_;    ///< Per keyword: its key digit's weight.

  // Per node slot: its keyword mask and, per FormsTree call, its incoming
  // edge (valid where edge_stamp_ equals tree_epoch_).
  std::vector<uint64_t> slot_keywords_;
  std::vector<graph::EdgeId> slot_edge_;
  std::vector<uint32_t> edge_stamp_;
  uint32_t tree_epoch_ = 0;

  common::FlatEpochMap<int32_t> slot_of_;  ///< NodeId -> slot, this pop.
  /// Open addressing over 64-bit keys, power of two.
  std::vector<VerdictEntry> verdicts_;
  size_t num_verdicts_ = 0;
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_CANDIDATE_MEMO_H_
