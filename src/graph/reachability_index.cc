#include "graph/reachability_index.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "common/timer.h"

namespace tgks::graph {

using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

namespace {

/// Merges raw (chain, pos) entries into one sorted, per-chain-deduped
/// label. `keep_min` selects the positional representative per chain (min
/// pos for out-labels, max pos for in-labels). Truncates to
/// kMaxLabelEntries lowest chain ids and reports whether anything was
/// dropped.
bool DedupeAndTruncate(std::vector<ReachabilityIndex::LabelEntry>* entries,
                       bool keep_min) {
  std::sort(entries->begin(), entries->end(),
            [keep_min](const ReachabilityIndex::LabelEntry& a,
                       const ReachabilityIndex::LabelEntry& b) {
              if (a.chain != b.chain) return a.chain < b.chain;
              return keep_min ? a.pos < b.pos : a.pos > b.pos;
            });
  // The sort puts each chain's representative first.
  entries->erase(std::unique(entries->begin(), entries->end(),
                             [](const ReachabilityIndex::LabelEntry& a,
                                const ReachabilityIndex::LabelEntry& b) {
                               return a.chain == b.chain;
                             }),
                 entries->end());
  const bool truncated =
      entries->size() >
      static_cast<size_t>(ReachabilityIndex::kMaxLabelEntries);
  if (truncated) {
    entries->resize(
        static_cast<size_t>(ReachabilityIndex::kMaxLabelEntries));
  }
  return truncated;
}

/// Binary search for `chain` within a label slice; nullptr if absent.
const ReachabilityIndex::LabelEntry* FindChain(
    const ReachabilityIndex::LabelEntry* begin,
    const ReachabilityIndex::LabelEntry* end, int32_t chain) {
  const auto* it = std::lower_bound(
      begin, end, chain,
      [](const ReachabilityIndex::LabelEntry& e, int32_t c) {
        return e.chain < c;
      });
  return (it != end && it->chain == chain) ? it : nullptr;
}

}  // namespace

ReachabilityIndex ReachabilityIndex::Build(const TemporalGraph& g) {
  Stopwatch watch;
  watch.Start();

  ReachabilityIndex index;
  index.timeline_length_ = g.timeline_length();
  index.num_nodes_ = g.num_nodes();

  // Epoch boundaries: the alive sets only change where some validity
  // interval starts (t) or ends (end + 1), so splitting the timeline at
  // every such instant yields maximal constant-snapshot ranges.
  std::vector<TimePoint> bounds;
  bounds.push_back(0);
  bounds.push_back(g.timeline_length());
  const auto collect = [&bounds](const IntervalSet& validity) {
    for (const Interval& iv : validity.intervals()) {
      bounds.push_back(iv.start);
      bounds.push_back(iv.end + 1);
    }
  };
  for (NodeId n = 0; n < g.num_nodes(); ++n) collect(g.node(n).validity);
  for (EdgeId e = 0; e < g.num_edges(); ++e) collect(g.edge(e).validity);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  index.epoch_of_.assign(static_cast<size_t>(g.timeline_length()), 0);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const TimePoint begin = bounds[i];
    const TimePoint end = bounds[i + 1] - 1;
    Epoch epoch;
    BuildEpoch(g, begin, end, &epoch);
    const auto id = static_cast<int32_t>(index.epochs_.size());
    for (TimePoint t = begin; t <= end; ++t) {
      index.epoch_of_[static_cast<size_t>(t)] = id;
    }
    index.epochs_.push_back(std::move(epoch));
  }

  BuildStats& stats = index.stats_;
  stats.epochs = static_cast<int64_t>(index.epochs_.size());
  for (const Epoch& epoch : index.epochs_) {
    stats.sccs += epoch.num_sccs;
    stats.dag_edges += static_cast<int64_t>(epoch.dag_edges.size());
    stats.chains += epoch.num_chains;
    stats.label_entries += static_cast<int64_t>(epoch.out_labels.size()) +
                           static_cast<int64_t>(epoch.in_labels.size());
  }
  stats.label_bytes =
      stats.label_entries * static_cast<int64_t>(sizeof(LabelEntry));
  watch.Stop();
  stats.build_seconds = watch.seconds();
  return index;
}

void ReachabilityIndex::BuildEpoch(const TemporalGraph& g, TimePoint begin,
                                   TimePoint end, Epoch* epoch) {
  epoch->begin = begin;
  epoch->end = end;
  const NodeId n = g.num_nodes();
  epoch->scc_of.assign(static_cast<size_t>(n), -1);

  // Within an epoch, membership at `begin` is membership at every instant.
  const auto node_alive = [&](NodeId v) {
    return g.node(v).validity.Contains(begin);
  };
  const auto edge_alive = [&](EdgeId e) {
    return g.edge(e).validity.Contains(begin);
  };

  // Iterative Tarjan over the alive subgraph. SCCs are emitted in reverse
  // topological order of the condensation, so topo id =
  // (num_sccs - 1 - emit order) makes every condensed edge ascend.
  std::vector<int32_t> disc(static_cast<size_t>(n), -1);
  std::vector<int32_t> low(static_cast<size_t>(n), 0);
  std::vector<uint8_t> on_stack(static_cast<size_t>(n), 0);
  std::vector<NodeId> scc_stack;
  struct Frame {
    NodeId node;
    size_t next_edge;
  };
  std::vector<Frame> frames;
  int32_t counter = 0;
  int32_t emitted = 0;

  for (NodeId root = 0; root < n; ++root) {
    if (!node_alive(root) || disc[static_cast<size_t>(root)] >= 0) continue;
    frames.push_back(Frame{root, 0});
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const NodeId v = frame.node;
      if (disc[static_cast<size_t>(v)] < 0) {
        disc[static_cast<size_t>(v)] = low[static_cast<size_t>(v)] = counter++;
        scc_stack.push_back(v);
        on_stack[static_cast<size_t>(v)] = 1;
      }
      const std::span<const EdgeId> out = g.OutEdges(v);
      bool descended = false;
      while (frame.next_edge < out.size()) {
        const EdgeId e = out[frame.next_edge++];
        if (!edge_alive(e)) continue;
        const NodeId w = g.edge(e).dst;
        if (disc[static_cast<size_t>(w)] < 0) {
          frames.push_back(Frame{w, 0});
          descended = true;
          break;
        }
        if (on_stack[static_cast<size_t>(w)] != 0) {
          low[static_cast<size_t>(v)] = std::min(
              low[static_cast<size_t>(v)], disc[static_cast<size_t>(w)]);
        }
      }
      if (descended) continue;
      if (low[static_cast<size_t>(v)] == disc[static_cast<size_t>(v)]) {
        // Emit order index; converted to a topological id below.
        while (true) {
          const NodeId w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[static_cast<size_t>(w)] = 0;
          epoch->scc_of[static_cast<size_t>(w)] = emitted;
          if (w == v) break;
        }
        ++emitted;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const NodeId parent = frames.back().node;
        low[static_cast<size_t>(parent)] = std::min(
            low[static_cast<size_t>(parent)], low[static_cast<size_t>(v)]);
      }
    }
  }

  epoch->num_sccs = emitted;
  for (NodeId v = 0; v < n; ++v) {
    int32_t& c = epoch->scc_of[static_cast<size_t>(v)];
    if (c >= 0) c = emitted - 1 - c;
  }
  const auto num_sccs = static_cast<size_t>(epoch->num_sccs);

  // Condensed DAG edges, deduped, CSR over ascending source ids.
  std::vector<std::pair<int32_t, int32_t>> pairs;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!edge_alive(e)) continue;
    const Edge& edge = g.edge(e);
    const int32_t cs = epoch->scc_of[static_cast<size_t>(edge.src)];
    const int32_t cd = epoch->scc_of[static_cast<size_t>(edge.dst)];
    if (cs != cd) pairs.emplace_back(cs, cd);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  epoch->dag_offsets.assign(num_sccs + 1, 0);
  epoch->dag_edges.reserve(pairs.size());
  for (const auto& [cs, cd] : pairs) {
    ++epoch->dag_offsets[static_cast<size_t>(cs) + 1];
    epoch->dag_edges.push_back(cd);
  }
  for (size_t i = 1; i < epoch->dag_offsets.size(); ++i) {
    epoch->dag_offsets[i] += epoch->dag_offsets[i - 1];
  }

  const auto successors = [&](int32_t c) {
    return std::span<const int32_t>(
        epoch->dag_edges.data() + epoch->dag_offsets[static_cast<size_t>(c)],
        static_cast<size_t>(epoch->dag_offsets[static_cast<size_t>(c) + 1] -
                            epoch->dag_offsets[static_cast<size_t>(c)]));
  };

  // Greedy chain cover: walk the topological order, extending each chain
  // through the first still-unassigned successor. Chains are DAG paths, so
  // position p reaches every position >= p on the same chain.
  epoch->chain_of.assign(num_sccs, -1);
  epoch->chain_pos.assign(num_sccs, 0);
  int32_t chains = 0;
  for (int32_t c = 0; c < epoch->num_sccs; ++c) {
    if (epoch->chain_of[static_cast<size_t>(c)] >= 0) continue;
    int32_t cur = c;
    int32_t pos = 0;
    epoch->chain_of[static_cast<size_t>(cur)] = chains;
    epoch->chain_pos[static_cast<size_t>(cur)] = pos;
    while (true) {
      int32_t next = -1;
      for (const int32_t d : successors(cur)) {
        if (epoch->chain_of[static_cast<size_t>(d)] < 0) {
          next = d;
          break;
        }
      }
      if (next < 0) break;
      cur = next;
      epoch->chain_of[static_cast<size_t>(cur)] = chains;
      epoch->chain_pos[static_cast<size_t>(cur)] = ++pos;
    }
    ++chains;
  }
  epoch->num_chains = chains;

  // Out-labels, reverse topological order: own chain position plus the
  // merged successor labels (min position per chain). A label is complete
  // iff nothing was truncated in its entire downstream cone.
  std::vector<std::vector<LabelEntry>> out_tmp(num_sccs);
  epoch->out_complete.assign(num_sccs, 1);
  for (int32_t c = epoch->num_sccs - 1; c >= 0; --c) {
    std::vector<LabelEntry>& label = out_tmp[static_cast<size_t>(c)];
    label.push_back(LabelEntry{epoch->chain_of[static_cast<size_t>(c)],
                               epoch->chain_pos[static_cast<size_t>(c)]});
    uint8_t complete = 1;
    for (int32_t i = epoch->dag_offsets[static_cast<size_t>(c)];
         i < epoch->dag_offsets[static_cast<size_t>(c) + 1]; ++i) {
      const int32_t d = epoch->dag_edges[static_cast<size_t>(i)];
      const std::vector<LabelEntry>& succ = out_tmp[static_cast<size_t>(d)];
      label.insert(label.end(), succ.begin(), succ.end());
      complete &= epoch->out_complete[static_cast<size_t>(d)];
    }
    if (DedupeAndTruncate(&label, /*keep_min=*/true)) complete = 0;
    epoch->out_complete[static_cast<size_t>(c)] = complete;
  }

  // In-labels need predecessors; build the transposed adjacency once.
  std::vector<std::pair<int32_t, int32_t>> rpairs;
  rpairs.reserve(pairs.size());
  for (const auto& [cs, cd] : pairs) rpairs.emplace_back(cd, cs);
  std::sort(rpairs.begin(), rpairs.end());
  std::vector<int32_t> in_offsets(num_sccs + 1, 0);
  std::vector<int32_t> in_edges;
  in_edges.reserve(rpairs.size());
  for (const auto& [cd, cs] : rpairs) {
    ++in_offsets[static_cast<size_t>(cd) + 1];
    in_edges.push_back(cs);
  }
  for (size_t i = 1; i < in_offsets.size(); ++i) {
    in_offsets[i] += in_offsets[i - 1];
  }

  std::vector<std::vector<LabelEntry>> in_tmp(num_sccs);
  epoch->in_complete.assign(num_sccs, 1);
  for (int32_t c = 0; c < epoch->num_sccs; ++c) {
    std::vector<LabelEntry>& label = in_tmp[static_cast<size_t>(c)];
    label.push_back(LabelEntry{epoch->chain_of[static_cast<size_t>(c)],
                               epoch->chain_pos[static_cast<size_t>(c)]});
    uint8_t complete = 1;
    for (int32_t i = in_offsets[static_cast<size_t>(c)];
         i < in_offsets[static_cast<size_t>(c) + 1]; ++i) {
      const int32_t p = in_edges[static_cast<size_t>(i)];
      const std::vector<LabelEntry>& pred = in_tmp[static_cast<size_t>(p)];
      label.insert(label.end(), pred.begin(), pred.end());
      complete &= epoch->in_complete[static_cast<size_t>(p)];
    }
    if (DedupeAndTruncate(&label, /*keep_min=*/false)) complete = 0;
    epoch->in_complete[static_cast<size_t>(c)] = complete;
  }

  // Flatten the per-SCC labels into CSR form.
  const auto flatten = [num_sccs](const std::vector<std::vector<LabelEntry>>&
                                      per_scc,
                                  std::vector<int32_t>* offsets,
                                  std::vector<LabelEntry>* labels) {
    offsets->assign(num_sccs + 1, 0);
    for (size_t c = 0; c < num_sccs; ++c) {
      (*offsets)[c + 1] =
          (*offsets)[c] + static_cast<int32_t>(per_scc[c].size());
    }
    labels->clear();
    labels->reserve(static_cast<size_t>((*offsets)[num_sccs]));
    for (size_t c = 0; c < num_sccs; ++c) {
      labels->insert(labels->end(), per_scc[c].begin(), per_scc[c].end());
    }
  };
  flatten(out_tmp, &epoch->out_offsets, &epoch->out_labels);
  flatten(in_tmp, &epoch->in_offsets, &epoch->in_labels);
}

bool ReachabilityIndex::SccReaches(const Epoch& epoch, int32_t cu,
                                   int32_t cv) {
  if (cu == cv) return true;
  if (cu > cv) return false;  // Condensed edges only ascend topo ids.
  const int32_t chain_u = epoch.chain_of[static_cast<size_t>(cu)];
  const int32_t chain_v = epoch.chain_of[static_cast<size_t>(cv)];
  if (chain_u == chain_v) {
    return epoch.chain_pos[static_cast<size_t>(cu)] <=
           epoch.chain_pos[static_cast<size_t>(cv)];
  }
  // A complete side makes the single relevant chain lookup exact.
  if (epoch.out_complete[static_cast<size_t>(cu)] != 0) {
    const LabelEntry* hit = FindChain(
        epoch.out_labels.data() + epoch.out_offsets[static_cast<size_t>(cu)],
        epoch.out_labels.data() +
            epoch.out_offsets[static_cast<size_t>(cu) + 1],
        chain_v);
    return hit != nullptr &&
           hit->pos <= epoch.chain_pos[static_cast<size_t>(cv)];
  }
  if (epoch.in_complete[static_cast<size_t>(cv)] != 0) {
    const LabelEntry* hit = FindChain(
        epoch.in_labels.data() + epoch.in_offsets[static_cast<size_t>(cv)],
        epoch.in_labels.data() + epoch.in_offsets[static_cast<size_t>(cv) + 1],
        chain_u);
    return hit != nullptr &&
           hit->pos >= epoch.chain_pos[static_cast<size_t>(cu)];
  }
  // Both sides truncated: try the sound common-chain probe, then fall back
  // to an exact DFS over the condensed DAG pruned by topo id.
  {
    const LabelEntry* ob =
        epoch.out_labels.data() + epoch.out_offsets[static_cast<size_t>(cu)];
    const LabelEntry* oe =
        epoch.out_labels.data() +
        epoch.out_offsets[static_cast<size_t>(cu) + 1];
    const LabelEntry* ib =
        epoch.in_labels.data() + epoch.in_offsets[static_cast<size_t>(cv)];
    const LabelEntry* ie =
        epoch.in_labels.data() + epoch.in_offsets[static_cast<size_t>(cv) + 1];
    while (ob != oe && ib != ie) {
      if (ob->chain < ib->chain) {
        ++ob;
      } else if (ib->chain < ob->chain) {
        ++ib;
      } else {
        if (ob->pos <= ib->pos) return true;
        ++ob;
        ++ib;
      }
    }
  }
  thread_local std::vector<int32_t> stack;
  thread_local std::vector<uint8_t> visited;
  stack.clear();
  visited.assign(static_cast<size_t>(epoch.num_sccs), 0);
  stack.push_back(cu);
  visited[static_cast<size_t>(cu)] = 1;
  while (!stack.empty()) {
    const int32_t c = stack.back();
    stack.pop_back();
    for (int32_t i = epoch.dag_offsets[static_cast<size_t>(c)];
         i < epoch.dag_offsets[static_cast<size_t>(c) + 1]; ++i) {
      const int32_t d = epoch.dag_edges[static_cast<size_t>(i)];
      if (d == cv) return true;
      if (d > cv || visited[static_cast<size_t>(d)] != 0) continue;
      visited[static_cast<size_t>(d)] = 1;
      stack.push_back(d);
    }
  }
  return false;
}

bool ReachabilityIndex::CanReach(NodeId u, TimePoint t, NodeId v) const {
  if (t < 0 || t >= timeline_length_) return false;
  const Epoch& epoch = EpochAt(t);
  const int32_t cu = epoch.scc_of[static_cast<size_t>(u)];
  const int32_t cv = epoch.scc_of[static_cast<size_t>(v)];
  if (cu < 0 || cv < 0) return false;
  return SccReaches(epoch, cu, cv);
}

TimePoint ReachabilityIndex::EarliestArrival(NodeId u, TimePoint t,
                                             NodeId v) const {
  if (t >= timeline_length_) return temporal::kNoTimePoint;
  const TimePoint from = t < 0 ? 0 : t;
  for (size_t ei = static_cast<size_t>(epoch_of_[static_cast<size_t>(from)]);
       ei < epochs_.size(); ++ei) {
    const Epoch& epoch = epochs_[ei];
    const int32_t cu = epoch.scc_of[static_cast<size_t>(u)];
    const int32_t cv = epoch.scc_of[static_cast<size_t>(v)];
    if (cu < 0 || cv < 0) continue;
    if (SccReaches(epoch, cu, cv)) {
      return from > epoch.begin ? from : epoch.begin;
    }
  }
  return temporal::kNoTimePoint;
}

bool ReachabilityIndex::IdenticalTo(const ReachabilityIndex& other) const {
  if (timeline_length_ != other.timeline_length_ ||
      num_nodes_ != other.num_nodes_ ||
      epochs_.size() != other.epochs_.size() ||
      epoch_of_ != other.epoch_of_) {
    return false;
  }
  for (size_t i = 0; i < epochs_.size(); ++i) {
    const Epoch& a = epochs_[i];
    const Epoch& b = other.epochs_[i];
    const auto labels_equal = [](const std::vector<LabelEntry>& x,
                                 const std::vector<LabelEntry>& y) {
      if (x.size() != y.size()) return false;
      for (size_t j = 0; j < x.size(); ++j) {
        if (x[j].chain != y[j].chain || x[j].pos != y[j].pos) {
          return false;
        }
      }
      return true;
    };
    if (a.begin != b.begin || a.end != b.end || a.num_sccs != b.num_sccs ||
        a.scc_of != b.scc_of || a.dag_offsets != b.dag_offsets ||
        a.dag_edges != b.dag_edges || a.chain_of != b.chain_of ||
        a.chain_pos != b.chain_pos || a.num_chains != b.num_chains ||
        a.out_offsets != b.out_offsets ||
        !labels_equal(a.out_labels, b.out_labels) ||
        a.out_complete != b.out_complete || a.in_offsets != b.in_offsets ||
        !labels_equal(a.in_labels, b.in_labels) ||
        a.in_complete != b.in_complete) {
      return false;
    }
  }
  return true;
}

const ReachabilityIndex& TemporalGraph::reachability() const {
  ReachabilityCell& cell = *reach_;
  std::call_once(cell.once, [&] {
    cell.index = std::make_shared<const ReachabilityIndex>(
        ReachabilityIndex::Build(*this));
  });
  return *cell.index;
}

}  // namespace tgks::graph
