#include "search/candidate_memo.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tgks::search {

using graph::EdgeId;
using graph::NodeId;

namespace {

constexpr size_t kInitialVerdicts = 64;

// splitmix64's finalizer: spreads the keys over the verdict table.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

void CandidateMemo::Reset(
    NodeId root, const std::vector<std::vector<NodeId>>* match_lists) {
  match_lists_ = match_lists;
  assert(match_lists_->size() <= kMaxKeywords);
  root_ = root;
  root_keywords_ = KeywordsOf(root);
  if (++epoch_ == 0) {
    for (VerdictEntry& e : verdicts_) e.stamp = 0;
    epoch_ = 1;
  }
  if (verdicts_.empty()) verdicts_.resize(kInitialVerdicts);
  num_verdicts_ = 0;
  slot_of_.Clear();
  paths_.clear();
  steps_.clear();
  first_path_.clear();
  stride_.clear();
  slot_keywords_.clear();
  slot_edge_.clear();
  edge_stamp_.clear();
}

void CandidateMemo::BeginPath(size_t keyword) {
  assert(keyword + 1 == first_path_.size() || keyword == first_path_.size());
  if (keyword == first_path_.size()) first_path_.push_back(paths_.size());
  paths_.push_back(Path{steps_.size(), 0, 0, false});
}

void CandidateMemo::AddStep(NodeId node, EdgeId in_edge) {
  Path& path = paths_.back();
  const int32_t slot = SlotOf(node);
  steps_.push_back(Step{slot, in_edge});
  ++path.num_steps;
  path.keywords |= slot_keywords_[static_cast<size_t>(slot)];
  path.enters_root |= node == root_;
}

bool CandidateMemo::Seal() {
  // Keyword i's digit runs over 0 (redundant) and 1..paths(i) (core).
  const size_t m = first_path_.size();
  uint64_t stride = 1;
  uint64_t redundant = root_keywords_;
  for (size_t kw = 0; kw < m; ++kw) {
    stride_.push_back(stride);
    const size_t end = kw + 1 < m ? first_path_[kw + 1] : paths_.size();
    const uint64_t radix = static_cast<uint64_t>(end - first_path_[kw]) + 1;
    if (stride > std::numeric_limits<uint64_t>::max() / radix) return false;
    stride *= radix;
    for (size_t p = first_path_[kw]; p < end; ++p) {
      redundant |= paths_[p].keywords & ~(uint64_t{1} << kw);
    }
  }
  return redundant != 0;
}

uint64_t CandidateMemo::Redundant(const int32_t* choice) const {
  uint64_t redundant = root_keywords_;
  for (size_t kw = 0; kw < first_path_.size(); ++kw) {
    const Path& path =
        paths_[first_path_[kw] + static_cast<size_t>(choice[kw])];
    redundant |= path.keywords & ~(uint64_t{1} << kw);
  }
  return redundant;
}

// Every chosen path is a chain of edges leaving the root. With one incoming
// edge per node, a node's parent is its predecessor on every path through
// it, so each parent chain walks one path back to the root; with no edge
// entering the root, the root has no parent. Those are the two conditions
// CandidateAssembler's tree check can fail on for such a union. A path that
// revisits a node either reaches it by two edges or, by the same edge,
// revisits that edge's tail too and so on back to the root.
bool CandidateMemo::FormsTree(const int32_t* choice) {
  if (++tree_epoch_ == 0) {
    std::fill(edge_stamp_.begin(), edge_stamp_.end(), 0u);
    tree_epoch_ = 1;
  }
  for (size_t kw = 0; kw < first_path_.size(); ++kw) {
    const Path& path =
        paths_[first_path_[kw] + static_cast<size_t>(choice[kw])];
    if (path.enters_root) return false;
    for (size_t i = 0; i < path.num_steps; ++i) {
      const Step& step = steps_[path.first_step + i];
      const size_t slot = static_cast<size_t>(step.slot);
      if (edge_stamp_[slot] != tree_epoch_) {
        edge_stamp_[slot] = tree_epoch_;
        slot_edge_[slot] = step.in_edge;
      } else if (slot_edge_[slot] != step.in_edge) {
        return false;
      }
    }
  }
  return true;
}

void CandidateMemo::CoreEdgesInto(uint64_t redundant, const int32_t* choice,
                                  std::vector<EdgeId>* out) const {
  for (size_t kw = 0; kw < first_path_.size(); ++kw) {
    if ((redundant >> kw) & 1) continue;
    const Path& path =
        paths_[first_path_[kw] + static_cast<size_t>(choice[kw])];
    for (size_t i = 0; i < path.num_steps; ++i) {
      out->push_back(steps_[path.first_step + i].in_edge);
    }
  }
}

uint64_t CandidateMemo::Key(uint64_t redundant, const int32_t* choice) const {
  uint64_t key = 0;
  for (size_t kw = 0; kw < first_path_.size(); ++kw) {
    if ((redundant >> kw) & 1) continue;
    key += stride_[kw] * (static_cast<uint64_t>(choice[kw]) + 1);
  }
  return key;
}

const MemoVerdict* CandidateMemo::Find(uint64_t key) const {
  const size_t mask = verdicts_.size() - 1;
  for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
    const VerdictEntry& e = verdicts_[i];
    if (e.stamp != epoch_) return nullptr;
    if (e.key == key) return &e.verdict;
  }
}

void CandidateMemo::Insert(uint64_t key, MemoVerdict verdict) {
  if (2 * (num_verdicts_ + 1) > verdicts_.size()) GrowVerdicts();
  const size_t mask = verdicts_.size() - 1;
  size_t i = Mix(key) & mask;
  while (verdicts_[i].stamp == epoch_) i = (i + 1) & mask;
  verdicts_[i] = VerdictEntry{key, epoch_, verdict};
  ++num_verdicts_;
}

int32_t CandidateMemo::SlotOf(NodeId node) {
  const int32_t next = static_cast<int32_t>(slot_keywords_.size());
  const int32_t slot = slot_of_.Activate(static_cast<uint32_t>(node),
                                         [next](int32_t& s) { s = next; });
  if (slot == next) {
    slot_keywords_.push_back(KeywordsOf(node));
    slot_edge_.push_back(graph::kInvalidEdge);
    edge_stamp_.push_back(0);
  }
  return slot;
}

uint64_t CandidateMemo::KeywordsOf(NodeId node) const {
  uint64_t keywords = 0;
  for (size_t kw = 0; kw < match_lists_->size(); ++kw) {
    const std::vector<NodeId>& list = (*match_lists_)[kw];
    if (std::binary_search(list.begin(), list.end(), node)) {
      keywords |= uint64_t{1} << kw;
    }
  }
  return keywords;
}

void CandidateMemo::GrowVerdicts() {
  std::vector<VerdictEntry> old(verdicts_.size() * 2);
  old.swap(verdicts_);
  const size_t mask = verdicts_.size() - 1;
  for (const VerdictEntry& e : old) {
    if (e.stamp != epoch_) continue;
    size_t i = Mix(e.key) & mask;
    while (verdicts_[i].stamp == epoch_) i = (i + 1) & mask;
    verdicts_[i] = e;
  }
}

}  // namespace tgks::search
