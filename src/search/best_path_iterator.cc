#include "search/best_path_iterator.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/expansion_view.h"

namespace tgks::search {

using graph::EdgeId;
using graph::NodeId;
using temporal::IntervalSet;
using temporal::TimeMask;

BestPathIterator::BestPathIterator(graph::GraphView graph,
                                   std::span<const NodeId> sources,
                                   Options options)
    : graph_(graph),
      options_(std::move(options)),
      num_sources_(static_cast<int32_t>(sources.size())),
      masks_(TimeMask::Fits(graph.timeline_length())),
      lazy_(options_.ranking.factors ==
            FactorList{RankFactor::kRelevance}),
      scratch_(BestPathScratchPool::Acquire()) {
  scratch_->Reset(sources.size());
  graph_.WithReader([&](const auto& reader) {
    for (int32_t origin = 0; origin < num_sources_; ++origin) {
      const NodeId source = sources[static_cast<size_t>(origin)];
      assert(source >= 0 && source < graph_.num_nodes());
      BestPathOrigin& slot = scratch_->origins[static_cast<size_t>(origin)];
      slot.Reset(source);
      const auto start = [&](const auto& validity, double weight) {
        if (options_.prune != nullptr &&
            !options_.prune->ElementMayQualify(validity)) {
          return;  // QUALIFY(s, P) failed; the source starts exhausted.
        }
        if (validity.IsEmpty()) return;
        PushNtd(slot, origin, source, validity, weight, kInvalidNtd,
                graph::kInvalidEdge);
        // A lone source NTD is actionable: nothing to settle.
        scratch_->sources.push(BestPathSourceEntry{TopScore(slot), origin});
      };
      if (masks_) {
        // The view's precomputed mask: no IntervalSet conversion per source.
        start(reader.node_mask(source), reader.node_weight(source));
      } else {
        const graph::Node& src = graph_.node(source);
        start(src.validity, src.weight);
      }
    }
  });
}

template <typename Time>
NtdId BestPathIterator::PushNtd(BestPathOrigin& slot, int32_t origin,
                                NodeId node, const Time& time, double dist,
                                NtdId parent, EdgeId via_edge) {
  const ScoreKey score = MakeScoreKey(options_.ranking, dist, time);
  const NtdId id = static_cast<NtdId>(scratch_->arena.size());
  if (options_.trace != nullptr && parent != kInvalidNtd) {
    options_.trace->Record(obs::TraceEventKind::kExpand, node,
                           options_.trace_iter + origin, dist);
  }
  Ntd& ntd = scratch_->arena.EmplaceBack();
  ntd.node = node;
  ntd.origin = origin;
  if constexpr (std::is_same_v<Time, TimeMask>) {
    ntd.time = time;
  } else {
    ntd.time = TimeMask();
    // Copy-assign reuses the recycled slot's capacity.
    scratch_->wide_times.EmplaceBack() = time;
  }
  ntd.dist = dist;
  ntd.parent = parent;
  ntd.via_edge = via_edge;
  ntd.state = NtdState::kQueued;
  ntd.index_row = -1;
  [[maybe_unused]] int64_t held;
  if (lazy_) {
    // Created only when it is strictly the best entry (see CreateHead), so
    // it is the source's next pop and needs no heap.
    slot.head = id;
    slot.head_score = score;
    held = static_cast<int64_t>(slot.lazy_queue.size()) + 1;
  } else {
    slot.queue.push(BestPathQueueEntry{score, id});
    held = static_cast<int64_t>(slot.queue.size());
  }
  ++slot.ntds;
  ++stats_.ntds_pushed;
  stats_.heap_high_water = std::max(stats_.heap_high_water, held);
  return id;
}

bool BestPathIterator::FullyClaimed(const BestPathOrigin& slot, NodeId node,
                                    const TimeMask& time) {
  const TimeMask* claimed =
      slot.visited_masks.Find(static_cast<uint32_t>(node));
  return claimed != nullptr && time.IsCoveredBy(*claimed);
}

bool BestPathIterator::FullyClaimed(const BestPathOrigin& slot, NodeId node,
                                    const IntervalSet& time) {
  const IntervalSet* claimed = slot.visited.Find(static_cast<uint32_t>(node));
  return claimed != nullptr && time.IsCoveredBy(*claimed);
}

bool BestPathIterator::NtdFullyClaimed(const BestPathOrigin& slot,
                                       NtdId id) const {
  const NodeId node = ntd(id).node;
  if (masks_) return FullyClaimed(slot, node, ntd(id).time);
  return FullyClaimed(slot, node, TimeAs<IntervalSet>(id));
}

bool BestPathIterator::SettleTop(BestPathOrigin& slot,
                                 [[maybe_unused]] int32_t trace_iter) {
  while (!slot.queue.empty()) {
    const NtdId id = slot.queue.top().id;
    const Ntd& ntd = scratch_->arena[static_cast<size_t>(id)];
    if (ntd.state == NtdState::kDead) {
      slot.queue.pop();  // Evicted by Alg.-2 subsumption while queued.
      ++stats_.useless_pops;
      if (options_.trace != nullptr) {
        options_.trace->Record(obs::TraceEventKind::kDedupHit, ntd.node,
                               trace_iter, ntd.dist);
      }
      continue;
    }
    if (!UsesSubsumptionSemantics() && NtdFullyClaimed(slot, id)) {
      // Every instant of T is already claimed by a better NTD: the paper's
      // "visited(n, t) = true for all t in T -> continue" (Alg. 1 line 5).
      slot.queue.pop();
      ++stats_.useless_pops;
      ++stats_.interval_ops;
      if (options_.trace != nullptr) {
        options_.trace->Record(obs::TraceEventKind::kDedupHit, ntd.node,
                               trace_iter, ntd.dist);
      }
      continue;
    }
    return true;
  }
  return false;
}

NtdId BestPathIterator::Next() {
  if (scratch_->sources.empty()) return kInvalidNtd;
  const int32_t origin = scratch_->sources.top().origin;
  BestPathOrigin& slot = scratch_->origins[static_cast<size_t>(origin)];
  [[maybe_unused]] const int32_t trace_iter = options_.trace_iter + origin;
  // Every queued source is settled, so its head / queue top is actionable.
  NtdId id;
  if (lazy_) {
    id = slot.head;
    slot.head = kInvalidNtd;
  } else {
    id = slot.queue.top().id;
    slot.queue.pop();
  }
  Ntd& ntd = scratch_->arena[static_cast<size_t>(id)];
  ntd.state = NtdState::kPopped;
  if (options_.trace != nullptr) {
    options_.trace->Record(obs::TraceEventKind::kPop, ntd.node, trace_iter,
                           ntd.dist);
  }
  if (!UsesSubsumptionSemantics()) {
    // Claim the instants of T (Alg. 1 lines 7-9). We mark the full T; pops
    // whose T is entirely claimed are skipped in SettleTop. Only pops claim,
    // so a node's first claim is the source's first pop there.
    if (masks_) {
      slot.visited_masks.Activate(static_cast<uint32_t>(ntd.node),
                                  [&](TimeMask& stale) {
                                    stale = TimeMask();
                                    ++slot.nodes_reached;
                                    ++stats_.nodes_reached;
                                  }) |= ntd.time;
    } else {
      // The union lands in the tmp2 double-buffer, then copy-assigns into
      // the slot: unlike a swap, this keeps every spill buffer pinned to its
      // owner, so slot and scratch capacities each grow monotonically to
      // their own high-water mark and the steady state allocates nothing.
      IntervalSet& visited = slot.visited.Activate(
          static_cast<uint32_t>(ntd.node), [&](IntervalSet& stale) {
            stale.Clear();
            ++slot.nodes_reached;
            ++stats_.nodes_reached;
          });
      scratch_->tmp2.AssignUnionOf(visited, TimeAs<IntervalSet>(id));
      visited = scratch_->tmp2;
    }
    ++stats_.interval_ops;
  }
  ++stats_.ntds_popped;
  ExpandNeighbors(slot, id);
  // Settle the source right away, so its heap-of-sources entry carries its
  // next actionable score and the other sources' entries stay exact.
  if (Settle(slot, origin)) {
    scratch_->sources.replace_top(BestPathSourceEntry{TopScore(slot), origin});
  } else {
    scratch_->sources.pop();
  }
  return id;
}

bool BestPathIterator::Settle(BestPathOrigin& slot, int32_t origin) {
  if (!lazy_) return SettleTop(slot, options_.trace_iter + origin);
  return graph_.WithReader([&](const auto& reader) {
    return masks_ ? CreateHead<TimeMask>(slot, reader)
                  : CreateHead<IntervalSet>(slot, reader);
  });
}

void BestPathIterator::ExpandNeighbors(BestPathOrigin& slot, NtdId id) {
  if (masks_) {
    ExpandNeighborsAs<TimeMask>(slot, id);
  } else {
    ExpandNeighborsAs<IntervalSet>(slot, id);
  }
}

template <typename Time>
void BestPathIterator::ExpandNeighborsAs(BestPathOrigin& slot, NtdId id) {
  graph_.WithReader([&](const auto& reader) {
    if (lazy_) {
      PushContinuations(slot, id, reader);
    } else if (UsesSubsumptionSemantics()) {
      ExpandNeighborsSubsumption<Time>(slot, id, reader);
    } else {
      ExpandNeighborsPartition<Time>(slot, id, reader);
    }
  });
}

template <typename Time, typename Reader>
bool BestPathIterator::ElementsMayQualify(const Reader& view, int64_t s,
                                          NodeId neighbor) const {
  const PredicateExpr& prune = *options_.prune;
  if constexpr (std::is_same_v<Time, TimeMask>) {
    return prune.ElementMayQualify(view.edge_mask(s)) &&
           prune.ElementMayQualify(view.node_mask(neighbor));
  } else {
    const auto may_qualify = [&](const IntervalSet& validity) {
      return prune.ElementMayQualify(validity);
    };
    return view.WithEdgeValidity(s, may_qualify) &&
           view.WithNodeValidity(neighbor, may_qualify);
  }
}

namespace {

/// The per-edge product buffer T∩ of an expansion: a register-sized local
/// for masks, the scratch's reused IntervalSet (returned by reference) for
/// wide times.
template <typename Time>
decltype(auto) ExpansionBuffer(BestPathScratch& scratch) {
  if constexpr (std::is_same_v<Time, TimeMask>) {
    return TimeMask();
  } else {
    return (scratch.tmp);
  }
}

}  // namespace

template <typename Time, typename Reader>
bool BestPathIterator::ChildSurvives(const BestPathOrigin& slot,
                                     const Time& parent_time,
                                     [[maybe_unused]] double parent_dist,
                                     int64_t s, NodeId neighbor,
                                     [[maybe_unused]] int32_t trace_iter,
                                     const Reader& view, Time* tmp) {
  ++stats_.edges_scanned;
  if (options_.prune != nullptr &&
      !ElementsMayQualify<Time>(view, s, neighbor)) {
    ++stats_.prunes;
    if (options_.trace != nullptr) {
      options_.trace->Record(obs::TraceEventKind::kPrune, neighbor,
                             trace_iter, parent_dist);
    }
    return false;
  }
  // T∩ = T ∩ val(n' -> n); by the model invariant T∩ ⊆ val(n').
  // The NTD must carry the FULL path validity: its queue key is the path's
  // true score, and dropping already-claimed instants here would shrink
  // temporal keys and let a worse path claim an instant first. A child
  // claimed later is skipped at pop under eager expansion (the paper's
  // in-place update); lazy expansion only checks the claims once the
  // child is next to pop.
  view.IntersectEdgeValidity(s, parent_time, tmp);
  ++stats_.interval_ops;
  if (tmp->IsEmpty()) return false;
  ++stats_.interval_ops;
  if (FullyClaimed(slot, neighbor, *tmp)) {
    // Every instant is already claimed at the neighbor by strictly earlier
    // (hence no-worse) pops — safe to drop.
    if (options_.trace != nullptr) {
      options_.trace->Record(obs::TraceEventKind::kDedupHit, neighbor,
                             trace_iter, parent_dist);
    }
    return false;
  }
  return true;
}

template <typename Time, typename Reader>
void BestPathIterator::ExpandNeighborsPartition(BestPathOrigin& slot,
                                                NtdId id,
                                                const Reader& view) {
  // Arena blocks never move, so the parent NTD and its time can be read by
  // reference across pushes.
  const Ntd& parent = scratch_->arena[static_cast<size_t>(id)];
  const Time& parent_time = TimeAs<Time>(id);
  const NodeId node = parent.node;
  const double parent_dist = parent.dist;
  const int32_t origin = parent.origin;
  const int32_t trace_iter = options_.trace_iter + origin;
  decltype(auto) tmp = ExpansionBuffer<Time>(*scratch_);

  // Expansion runs over the SoA view (plus the delta run when an overlay is
  // live): slot order mirrors InEdges(node), and weights are verbatim
  // copies, so the explored state space — and with it every work counter —
  // is identical to expanding through the graph.
  view.ForEachInSlot(node, [&](int64_t s) {
    const NodeId neighbor = view.src(s);
    if (!ChildSurvives(slot, parent_time, parent_dist, s, neighbor,
                       trace_iter, view, &tmp)) {
      return;
    }
    PushNtd(slot, origin, neighbor, tmp,
            parent_dist + view.edge_weight(s) + view.node_weight(neighbor),
            id, view.edge_id(s));
  });
}

template <typename Reader>
void BestPathIterator::PushContinuations(BestPathOrigin& slot, NtdId id,
                                         const Reader& view) {
  const Ntd& parent = scratch_->arena[static_cast<size_t>(id)];
  const NodeId node = parent.node;
  const double parent_dist = parent.dist;
  // Eager expansion numbered this pop's children after every child of the
  // source's earlier pops, in slot order.
  const uint64_t order = static_cast<uint64_t>(slot.pops++) << 32;
  const auto child_dist = [&](int64_t s) {
    return parent_dist + view.edge_weight(s) + view.node_weight(view.src(s));
  };
  if (view.UniformIn(node)) {
    const graph::ExpansionView::SlotRange run = view.BaseInSlots(node);
    if (run.begin == run.end) return;
    slot.lazy_queue.push(LazyQueueEntry{
        child_dist(run.begin), order, run.begin, id,
        static_cast<int32_t>(run.end - run.begin)});
  } else {
    uint32_t ordinal = 0;
    view.ForEachInSlot(node, [&](int64_t s) {
      slot.lazy_queue.push(
          LazyQueueEntry{child_dist(s), order | ordinal++, s, id, 1});
    });
  }
  stats_.heap_high_water =
      std::max(stats_.heap_high_water,
               static_cast<int64_t>(slot.lazy_queue.size()));
}

template <typename Time, typename Reader>
bool BestPathIterator::CreateHead(BestPathOrigin& slot, const Reader& view) {
  decltype(auto) tmp = ExpansionBuffer<Time>(*scratch_);
  while (!slot.lazy_queue.empty()) {
    // The top continuation's child is what eager expansion would pop next,
    // if it is actionable. Only this source's own pops change its claims,
    // so the claims checked now are the ones the eager entry would meet at
    // the top: a child fully claimed now would have been a useless pop.
    LazyQueueEntry next = slot.lazy_queue.top();
    const int64_t s = next.slot;
    if (next.remaining > 1) {
      // The run's next slot: same distance, next in creation order.
      ++next.slot;
      ++next.order;
      --next.remaining;
      slot.lazy_queue.replace_top(next);
    } else {
      slot.lazy_queue.pop();
    }
    const Ntd& parent = scratch_->arena[static_cast<size_t>(next.parent)];
    const NodeId neighbor = view.src(s);
    if (!ChildSurvives(slot, TimeAs<Time>(next.parent), parent.dist, s,
                       neighbor, options_.trace_iter + parent.origin, view,
                       &tmp)) {
      continue;
    }
    PushNtd(slot, parent.origin, neighbor, tmp, next.dist, next.parent,
            view.edge_id(s));
    return true;
  }
  return false;
}

template <typename Time, typename Reader>
void BestPathIterator::ExpandNeighborsSubsumption(BestPathOrigin& slot,
                                                  NtdId id,
                                                  const Reader& view) {
  const Ntd& parent = scratch_->arena[static_cast<size_t>(id)];
  const Time& parent_time = TimeAs<Time>(id);
  const NodeId node = parent.node;
  const double parent_dist = parent.dist;
  const int32_t origin = parent.origin;
  [[maybe_unused]] const int32_t trace_iter = options_.trace_iter + origin;
  decltype(auto) tmp = ExpansionBuffer<Time>(*scratch_);
  const auto fresh_index = [this](NodeSubsumption& stale) {
    stale.Fresh(options_.duration_index, graph_.timeline_length());
  };

  // Register the popped NTD itself in its node's index (it prunes future
  // inferior arrivals). The source NTD registers on first expansion.
  {
    NodeSubsumption& here =
        slot.subsumption.Activate(static_cast<uint32_t>(node), fresh_index);
    if (!here.popped) {
      here.popped = true;
      ++slot.nodes_reached;
      ++stats_.nodes_reached;
    }
    Ntd& self = scratch_->arena[static_cast<size_t>(id)];
    if (self.index_row < 0) {
      self.index_row = here.index->AddRow(parent_time);
      here.BindRow(self.index_row, id);
    }
  }

  view.ForEachInSlot(node, [&](int64_t s) {
    ++stats_.edges_scanned;
    const NodeId neighbor = view.src(s);
    if (options_.prune != nullptr &&
        !ElementsMayQualify<Time>(view, s, neighbor)) {
      ++stats_.prunes;
      if (options_.trace != nullptr) {
        options_.trace->Record(obs::TraceEventKind::kPrune, neighbor,
                               trace_iter, parent_dist);
      }
      return;
    }
    view.IntersectEdgeValidity(s, parent_time, &tmp);
    ++stats_.interval_ops;
    if (tmp.IsEmpty()) return;

    NodeSubsumption& entry =
        slot.subsumption.Activate(static_cast<uint32_t>(neighbor),
                                  fresh_index);
    // Case 1 (Alg. 2 lines 11-12): T∩ subsumed by an existing NTD of the
    // neighbor -> the existing path already beats this one at every instant
    // and has no shorter duration; skip.
    if (entry.index->SubsumedByExisting(tmp)) {
      ++stats_.subsumption_skips;
      if (options_.trace != nullptr) {
        options_.trace->Record(obs::TraceEventKind::kDedupHit, neighbor,
                               trace_iter, parent_dist);
      }
      return;
    }
    // Case 3 (lines 13-15): evict NTDs strictly subsumed by T∩. Only queued
    // NTDs can be evicted: pops are in non-increasing duration order, so a
    // popped NTD's duration >= |T∩|, and a strict superset would have to be
    // longer — impossible; an equal set would have hit case 1.
    for (const temporal::NtdRowHandle row :
         entry.index->CollectSubsumed(tmp)) {
      const NtdId victim = entry.row_to_ntd[static_cast<size_t>(row)];
      assert(victim != kInvalidNtd);
      assert(scratch_->arena[static_cast<size_t>(victim)].state ==
             NtdState::kQueued);
      scratch_->arena[static_cast<size_t>(victim)].state = NtdState::kDead;
      entry.index->RemoveRow(row);
      entry.row_to_ntd[static_cast<size_t>(row)] = kInvalidNtd;
      ++stats_.subsumption_evictions;
    }
    // Case 2 (line 16): record the new NTD.
    const temporal::NtdRowHandle row = entry.index->AddRow(tmp);
    const NtdId next_id = PushNtd(
        slot, origin, neighbor, tmp,
        parent_dist + view.edge_weight(s) + view.node_weight(neighbor), id,
        view.edge_id(s));
    scratch_->arena[static_cast<size_t>(next_id)].index_row = row;
    entry.BindRow(row, next_id);
  });
}

std::vector<EdgeId> BestPathIterator::PathEdges(NtdId id) const {
  std::vector<EdgeId> edges;
  PathEdgesInto(id, &edges);
  return edges;
}

void BestPathIterator::PathEdgesInto(NtdId id,
                                     std::vector<EdgeId>* out) const {
  for (NtdId cur = id; cur != kInvalidNtd;
       cur = scratch_->arena[static_cast<size_t>(cur)].parent) {
    const Ntd& n = scratch_->arena[static_cast<size_t>(cur)];
    if (n.via_edge != graph::kInvalidEdge) out->push_back(n.via_edge);
  }
}

}  // namespace tgks::search
