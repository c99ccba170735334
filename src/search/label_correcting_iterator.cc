#include "search/label_correcting_iterator.h"

#include <algorithm>
#include <cassert>

#include "graph/expansion_view.h"
#include "search/result_tree.h"

namespace tgks::search {

using graph::EdgeId;
using graph::NodeId;
using temporal::IntervalSet;
using temporal::TimePoint;

std::string_view InverseRankFactorName(InverseRankFactor factor) {
  switch (factor) {
    case InverseRankFactor::kEndTimeAsc:
      return "end-time-asc";
    case InverseRankFactor::kStartTimeDesc:
      return "start-time-desc";
    case InverseRankFactor::kDurationAsc:
      return "duration-asc";
  }
  return "unknown";
}

int32_t InverseValue(InverseRankFactor factor, const IntervalSet& time) {
  assert(!time.IsEmpty());
  switch (factor) {
    case InverseRankFactor::kEndTimeAsc:
      return time.End();
    case InverseRankFactor::kStartTimeDesc:
      return -time.Start();
    case InverseRankFactor::kDurationAsc:
      return static_cast<int32_t>(time.Duration());
  }
  return 0;
}

LabelCorrectingIterator::LabelCorrectingIterator(
    const graph::TemporalGraph& graph, NodeId source, Options options)
    : graph_(&graph),
      source_(source),
      options_(options),
      scratch_(LabelCorrectingScratchPool::Acquire()) {
  assert(source >= 0 && source < graph.num_nodes());
  scratch_->Reset();
  const IntervalSet& validity = graph.node(source).validity;
  if (validity.IsEmpty()) return;
  const NtdId id =
      TryKeep(source, validity, kInvalidNtd, graph::kInvalidEdge);
  if (id != kInvalidNtd) worklist_.push_back(id);
}

NtdId LabelCorrectingIterator::TryKeep(NodeId node, const IntervalSet& time,
                                       NtdId parent, EdgeId via_edge) {
  NodeSubsumption& state = scratch_->states.Activate(
      static_cast<uint32_t>(node), [this](NodeSubsumption& stale) {
        stale.Fresh(temporal::NtdIndexKind::kRowMajor,
                    graph_->timeline_length());
      });
  // Drop iff the kept subsets of `time` jointly cover it: each such subset
  // dominates the arrival at its own instants under every future
  // intersection (see header). The running remainder ping-pongs between the
  // tmp2/tmp3 scratch buffers.
  IntervalSet& uncovered = scratch_->tmp2;
  uncovered = time;
  for (const temporal::NtdRowHandle row :
       state.index->CollectSubsumed(time)) {
    scratch_->tmp3.AssignDifferenceOf(
        uncovered,
        arena_[static_cast<size_t>(state.row_to_ntd[static_cast<size_t>(row)])]
            .time);
    uncovered.Swap(scratch_->tmp3);
    ++stats_.interval_ops;
    if (uncovered.IsEmpty()) {
      ++stats_.fragments_dropped;
      if (options_.trace != nullptr) {
        options_.trace->Record(obs::TraceEventKind::kDedupHit, node,
                               options_.trace_iter, 0.0);
      }
      return kInvalidNtd;
    }
  }
  const NtdId id = static_cast<NtdId>(arena_.size());
  const temporal::NtdRowHandle row = state.index->AddRow(time);
  state.BindRow(row, id);
  if (options_.trace != nullptr) {
    options_.trace->Record(obs::TraceEventKind::kExpand, node,
                           options_.trace_iter, 0.0);
  }
  Fragment fragment;
  fragment.node = node;
  fragment.time = time;
  fragment.parent = parent;
  fragment.via_edge = via_edge;
  arena_.push_back(std::move(fragment));
  return id;
}

bool LabelCorrectingIterator::Run() {
  if (ran_) return complete_;
  ran_ = true;
  while (!worklist_.empty()) {
    if (options_.max_relaxations > 0 &&
        relaxations_ >= options_.max_relaxations) {
      complete_ = false;
      worklist_.clear();
      break;
    }
    const NtdId id = worklist_.front();
    worklist_.pop_front();
    ++relaxations_;
    // Copy: TryKeep below may reallocate the arena.
    const NodeId node = arena_[static_cast<size_t>(id)].node;
    const IntervalSet time = arena_[static_cast<size_t>(id)].time;
    if (options_.trace != nullptr) {
      options_.trace->Record(obs::TraceEventKind::kPop, node,
                             options_.trace_iter,
                             static_cast<double>(time.Duration()));
    }
    const graph::ExpansionView& view = graph_->expansion_view();
    const graph::ExpansionView::SlotRange slots = view.InSlots(node);
    for (int64_t s = slots.begin; s < slots.end; ++s) {
      view.IntersectEdgeValidity(s, time, &scratch_->tmp);
      ++stats_.interval_ops;
      if (scratch_->tmp.IsEmpty()) continue;
      const NtdId kept =
          TryKeep(view.src(s), scratch_->tmp, id, view.edge_id(s));
      if (kept != kInvalidNtd) worklist_.push_back(kept);
    }
    stats_.worklist_high_water =
        std::max(stats_.worklist_high_water,
                 static_cast<int64_t>(worklist_.size()));
  }
  return complete_;
}

std::optional<int32_t> LabelCorrectingIterator::BestAt(NodeId node,
                                                       TimePoint t) const {
  const NodeSubsumption* state =
      scratch_->states.Find(static_cast<uint32_t>(node));
  if (state == nullptr) return std::nullopt;
  std::optional<int32_t> best;
  for (const NtdId fragment_id : state->row_to_ntd) {
    if (fragment_id == kInvalidNtd) continue;
    const Fragment& fragment = arena_[static_cast<size_t>(fragment_id)];
    if (!fragment.time.Contains(t)) continue;
    const int32_t value = InverseValue(options_.factor, fragment.time);
    if (!best.has_value() || value < *best) best = value;
  }
  return best;
}

std::vector<NtdId> LabelCorrectingIterator::FragmentsAt(NodeId node) const {
  std::vector<NtdId> out;
  const NodeSubsumption* state =
      scratch_->states.Find(static_cast<uint32_t>(node));
  if (state == nullptr) return out;
  for (const NtdId fragment_id : state->row_to_ntd) {
    if (fragment_id != kInvalidNtd) out.push_back(fragment_id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const IntervalSet& LabelCorrectingIterator::FragmentTime(NtdId id) const {
  return arena_[static_cast<size_t>(id)].time;
}

std::vector<EdgeId> LabelCorrectingIterator::PathEdges(NtdId id) const {
  std::vector<EdgeId> edges;
  PathEdgesInto(id, &edges);
  return edges;
}

void LabelCorrectingIterator::PathEdgesInto(NtdId id,
                                            std::vector<EdgeId>* out) const {
  for (NtdId cur = id; cur != kInvalidNtd;
       cur = arena_[static_cast<size_t>(cur)].parent) {
    const Fragment& fragment = arena_[static_cast<size_t>(cur)];
    if (fragment.via_edge != graph::kInvalidEdge) {
      out->push_back(fragment.via_edge);
    }
  }
}

std::vector<InverseSearchResult> SearchInverse(
    const graph::TemporalGraph& graph,
    const std::vector<std::vector<NodeId>>& matches,
    InverseRankFactor factor, int32_t k,
    int64_t max_relaxations_per_iterator) {
  const size_t m = matches.size();
  LabelCorrectingIterator::Options options;
  options.factor = factor;
  options.max_relaxations = max_relaxations_per_iterator;

  // One iterator per match node, grouped by keyword.
  std::vector<std::vector<std::unique_ptr<LabelCorrectingIterator>>> per_kw(m);
  std::vector<std::vector<NodeId>> match_lists(matches);
  for (size_t kw = 0; kw < m; ++kw) {
    std::vector<NodeId>& list = match_lists[kw];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    for (const NodeId source : list) {
      per_kw[kw].push_back(std::make_unique<LabelCorrectingIterator>(
          graph, source, options));
      per_kw[kw].back()->Run();
    }
  }

  // Join: for every node with fragments from all keywords, combine one
  // fragment per keyword, intersect, assemble.
  std::vector<InverseSearchResult> results;
  CandidateAssembler assembler(graph, &match_lists);
  SignatureSet seen;
  std::vector<EdgeId> path_edges;
  std::vector<NodeId> leaf_matches(m);
  ResultTree tree;
  for (NodeId root = 0; root < graph.num_nodes(); ++root) {
    // Gather (iterator, fragment) pairs per keyword at this node.
    std::vector<std::vector<std::pair<const LabelCorrectingIterator*, NtdId>>>
        lists(m);
    bool all = true;
    for (size_t kw = 0; kw < m && all; ++kw) {
      for (const auto& iter : per_kw[kw]) {
        for (const NtdId id : iter->FragmentsAt(root)) {
          lists[kw].push_back({iter.get(), id});
        }
      }
      all = !lists[kw].empty();
    }
    if (!all) continue;

    // Depth-first cross product with intersection pruning.
    std::vector<std::pair<const LabelCorrectingIterator*, NtdId>> chosen(m);
    int64_t combos = 0;
    constexpr int64_t kMaxCombos = 4096;
    auto recurse = [&](auto&& self, size_t kw,
                       const IntervalSet& common) -> void {
      if (combos >= kMaxCombos) return;
      if (kw == m) {
        ++combos;
        path_edges.clear();
        for (size_t i = 0; i < m; ++i) {
          chosen[i].first->PathEdgesInto(chosen[i].second, &path_edges);
          leaf_matches[i] = chosen[i].first->source();
        }
        if (assembler.Assemble(root, &path_edges, leaf_matches, &seen) !=
            CandidateRejection::kAccepted) {
          return;
        }
        seen.insert(assembler.signature());
        assembler.Build(&tree);
        InverseSearchResult result;
        result.root = tree.root;
        result.nodes = std::move(tree.nodes);
        result.edges = std::move(tree.edges);
        result.value = InverseValue(factor, tree.time);
        result.time = std::move(tree.time);
        results.push_back(std::move(result));
        return;
      }
      for (const auto& entry : lists[kw]) {
        const IntervalSet narrowed =
            common.Intersect(entry.first->FragmentTime(entry.second));
        if (narrowed.IsEmpty()) continue;
        chosen[kw] = entry;
        self(self, kw + 1, narrowed);
        if (combos >= kMaxCombos) return;
      }
    };
    recurse(recurse, 0, IntervalSet::All(graph.timeline_length()));
  }

  std::sort(results.begin(), results.end(),
            [](const InverseSearchResult& a, const InverseSearchResult& b) {
              if (a.value != b.value) return a.value < b.value;
              if (a.root != b.root) return a.root < b.root;
              return a.edges < b.edges;
            });
  if (k > 0 && static_cast<int32_t>(results.size()) > k) {
    results.resize(static_cast<size_t>(k));
  }
  return results;
}

}  // namespace tgks::search
