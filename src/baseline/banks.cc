#include "baseline/banks.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "baseline/dijkstra_iterator.h"
#include "common/timer.h"

namespace tgks::baseline {

using graph::EdgeId;
using graph::NodeId;
using search::CandidateRejection;
using search::ResultTree;

namespace {

/// BANKS's ranking: relevance alone.
const search::RankingSpec kRelevance{};

class BanksRunner {
 public:
  BanksRunner(const graph::TemporalGraph& graph,
              const std::vector<std::vector<NodeId>>& matches,
              const BanksOptions& options, const TreeFilter* accept)
      : graph_(graph),
        options_(options),
        accept_(accept),
        m_(matches.size()),
        match_lists_(matches),
        assembler_(graph, &match_lists_),
        candidate_matches_(m_) {
    for (auto& list : match_lists_) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }

  BanksResponse Run() {
    CreateIterators();
    bool any_dead = false;
    for (size_t kw = 0; kw < m_; ++kw) any_dead |= heap_[kw].empty();
    if (!any_dead) MainLoop();
    Finalize();
    return std::move(response_);
  }

 private:
  struct Entry {
    double dist;
    int32_t iter;
  };
  struct EntryWorse {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.dist != b.dist) return a.dist > b.dist;
      return a.iter > b.iter;
    }
  };

  void CreateIterators() {
    heap_.resize(m_);
    for (size_t kw = 0; kw < m_; ++kw) {
      for (const NodeId source : match_lists_[kw]) {
        iterators_.push_back(std::make_unique<DijkstraIterator>(
            graph_, source, options_.snapshot));
        const int32_t idx = static_cast<int32_t>(iterators_.size()) - 1;
        iterator_keyword_.push_back(static_cast<int32_t>(kw));
        const auto d = iterators_.back()->PeekDistance();
        if (d.has_value()) heap_[kw].push_back(Entry{*d, idx});
      }
      std::make_heap(heap_[kw].begin(), heap_[kw].end(), EntryWorse());
    }
    response_.counters.iterators = static_cast<int64_t>(iterators_.size());
  }

  /// Global best-first over every iterator (BANKS expands the iterator with
  /// the smallest frontier distance). Returns the keyword, or -1.
  int SelectKeyword() const {
    int best = -1;
    for (size_t kw = 0; kw < m_; ++kw) {
      if (heap_[kw].empty()) continue;
      if (best < 0 ||
          heap_[kw].front().dist <
              heap_[static_cast<size_t>(best)].front().dist) {
        best = static_cast<int>(kw);
      }
    }
    return best;
  }

  void MainLoop() {
    expand_timer_.Start();
    while (true) {
      if (options_.max_pops > 0 &&
          response_.counters.pops >= options_.max_pops) {
        response_.truncated = true;
        expand_timer_.Stop();
        return;
      }
      const int kw = SelectKeyword();
      if (kw < 0) {
        response_.exhausted = true;
        expand_timer_.Stop();
        return;
      }
      auto& heap = heap_[static_cast<size_t>(kw)];
      std::pop_heap(heap.begin(), heap.end(), EntryWorse());
      const int32_t iter_idx = heap.back().iter;
      heap.pop_back();
      DijkstraIterator& iter = *iterators_[static_cast<size_t>(iter_idx)];
      const NodeId settled = iter.Next();
      ++response_.counters.pops;
      const auto d = iter.PeekDistance();
      if (d.has_value()) {
        heap.push_back(Entry{*d, iter_idx});
        std::push_heap(heap.begin(), heap.end(), EntryWorse());
      }
      auto& lists = reached_[settled];
      if (lists.empty()) lists.resize(m_);
      lists[static_cast<size_t>(kw)].push_back(iter_idx);
      const bool met_all = std::all_of(
          lists.begin(), lists.end(),
          [](const auto& l) { return !l.empty(); });
      if (met_all) {
        expand_timer_.Stop();
        generate_timer_.Start();
        GenerateCandidates(settled, static_cast<size_t>(kw), iter_idx, lists);
        generate_timer_.Stop();
        expand_timer_.Start();
      }
      if (results_.full() && KthBeatsBound()) {
        expand_timer_.Stop();
        return;
      }
    }
  }

  void GenerateCandidates(NodeId root, size_t fresh_kw, int32_t fresh_iter,
                          const std::vector<std::vector<int32_t>>& lists) {
    std::vector<int32_t> chosen(m_, -1);
    chosen[fresh_kw] = fresh_iter;
    int64_t combos = 0;
    Recurse(root, fresh_kw, 0, lists, &chosen, &combos);
  }

  void Recurse(NodeId root, size_t fresh_kw, size_t kw,
               const std::vector<std::vector<int32_t>>& lists,
               std::vector<int32_t>* chosen, int64_t* combos) {
    if (*combos >= options_.max_combos_per_pop) return;
    if (kw == m_) {
      ++(*combos);
      Emit(root, *chosen);
      return;
    }
    if (kw == fresh_kw) {
      Recurse(root, fresh_kw, kw + 1, lists, chosen, combos);
      return;
    }
    for (const int32_t iter_idx : lists[kw]) {
      (*chosen)[kw] = iter_idx;
      Recurse(root, fresh_kw, kw + 1, lists, chosen, combos);
      if (*combos >= options_.max_combos_per_pop) return;
    }
  }

  void Emit(NodeId root, const std::vector<int32_t>& chosen) {
    ++response_.counters.candidates;
    path_edges_.clear();
    for (size_t i = 0; i < m_; ++i) {
      const DijkstraIterator& iter =
          *iterators_[static_cast<size_t>(chosen[i])];
      iter.PathEdgesInto(root, &path_edges_);
      candidate_matches_[i] = iter.source();
    }
    switch (assembler_.Assemble(root, &path_edges_, candidate_matches_,
                                &seen_)) {
      case CandidateRejection::kNotATree:
      case CandidateRejection::kRootReducible:
        return;
      case CandidateRejection::kEmptyTime:
        // Classic BANKS would report this tree; the temporal layer counts
        // and discards it (the BANKS(W) post-filter).
        ++response_.counters.generated;
        ++response_.counters.invalid_time;
        return;
      case CandidateRejection::kDuplicate:
        // The tree was generated and accepted before.
        ++response_.counters.generated;
        ++response_.counters.duplicates;
        return;
      case CandidateRejection::kAccepted:
        break;
    }
    ++response_.counters.generated;
    assembler_.Build(&tree_);
    if (options_.snapshot.has_value() &&
        !tree_.time.Contains(*options_.snapshot)) {
      // Defensive: cannot happen (all elements are alive at the snapshot).
      ++response_.counters.invalid_time;
      return;
    }
    if (accept_ != nullptr && !(*accept_)(tree_)) {
      ++response_.counters.predicate_rejected;
      return;
    }
    const std::string* signature = &*seen_.insert(assembler_.signature()).first;
    // BANKS ranks by relevance alone, whose score is -weight: the lighter
    // tree first, ties to the smaller signature.
    if (ResultTree* slot = results_.Offer(
            search::MakeScoreKey(kRelevance, tree_.total_weight, tree_.time),
            signature)) {
      std::swap(*slot, tree_);
    }
    ++response_.counters.results;
  }

  bool KthBeatsBound() const {
    double dmin = std::numeric_limits<double>::infinity();
    bool any = false;
    for (const auto& heap : heap_) {
      if (heap.empty()) continue;
      any = true;
      dmin = std::min(dmin, heap.front().dist);
    }
    if (!any) return true;
    double bound_weight = dmin;  // Accurate: unseen weight >= dmin.
    switch (options_.bound) {
      case search::UpperBoundKind::kAccurate:
        break;
      case search::UpperBoundKind::kEmpirical:
        bound_weight = dmin * static_cast<double>(m_);
        break;
      case search::UpperBoundKind::kAverage:
        bound_weight = (dmin + dmin * static_cast<double>(m_)) / 2.0;
        break;
    }
    // The k-th lightest weight, negated back from its relevance score.
    return -results_.worst()[0] <= bound_weight;
  }

  void Finalize() {
    response_.results = results_.TakeRanked(kRelevance);
    response_.counters.nodes_visited = static_cast<int64_t>(reached_.size());
    response_.counters.seconds_expand = expand_timer_.seconds();
    response_.counters.seconds_generate = generate_timer_.seconds();
  }

  const graph::TemporalGraph& graph_;
  const BanksOptions& options_;
  const TreeFilter* accept_;
  const size_t m_;

  std::vector<std::vector<NodeId>> match_lists_;  // Sorted, unique.
  search::CandidateAssembler assembler_;
  std::vector<EdgeId> path_edges_;         // Candidate path-union buffer.
  std::vector<NodeId> candidate_matches_;  // Candidate designated matches.

  std::vector<std::unique_ptr<DijkstraIterator>> iterators_;
  std::vector<int32_t> iterator_keyword_;
  std::vector<std::vector<Entry>> heap_;

  std::unordered_map<NodeId, std::vector<std::vector<int32_t>>> reached_;
  search::SignatureSet seen_;
  ResultTree tree_;  // The candidate being accepted; swapped into results_.
  search::TopKResults results_{options_.k};

  Stopwatch expand_timer_, generate_timer_;
  BanksResponse response_;
};

}  // namespace

BanksResponse RunBanks(const graph::TemporalGraph& graph,
                       const std::vector<std::vector<NodeId>>& matches,
                       const BanksOptions& options, const TreeFilter* accept) {
  return BanksRunner(graph, matches, options, accept).Run();
}

}  // namespace tgks::baseline
