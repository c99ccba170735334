#include "baseline/banks_i.h"

#include <unordered_map>

namespace tgks::baseline {

using search::ResultTree;
using temporal::IntervalSet;
using temporal::TimePoint;

BanksIResponse RunBanksI(const graph::TemporalGraph& graph,
                         const search::Query& query,
                         const std::vector<std::vector<graph::NodeId>>& matches,
                         const BanksIOptions& options) {
  BanksIResponse response;
  const TimePoint horizon = graph.timeline_length();
  const IntervalSet to_traverse =
      query.predicate == nullptr
          ? IntervalSet::All(horizon)
          : query.predicate->SnapshotTraversalFilter(horizon);

  std::unordered_map<std::string, ResultTree> merged;
  for (const temporal::Interval& window : to_traverse.intervals()) {
    for (TimePoint t = window.start; t <= window.end; ++t) {
      BanksOptions snapshot_options;
      snapshot_options.k = options.per_snapshot_k;
      snapshot_options.bound = options.bound;
      snapshot_options.snapshot = t;
      snapshot_options.max_pops = options.max_pops_per_snapshot;
      snapshot_options.max_combos_per_pop = options.max_combos_per_pop;
      BanksResponse snap = RunBanks(graph, matches, snapshot_options);
      ++response.snapshots_traversed;
      response.truncated |= snap.truncated;
      BanksCounters& total = response.counters;
      total.iterators += snap.counters.iterators;
      total.pops += snap.counters.pops;
      total.nodes_visited += snap.counters.nodes_visited;
      total.candidates += snap.counters.candidates;
      total.generated += snap.counters.generated;
      total.invalid_time += snap.counters.invalid_time;
      total.duplicates += snap.counters.duplicates;
      total.seconds_expand += snap.counters.seconds_expand;
      total.seconds_generate += snap.counters.seconds_generate;
      for (ResultTree& tree : snap.results) {
        merged.emplace(tree.Signature(), std::move(tree));
      }
    }
  }

  search::TopKResults top(options.k);
  for (auto& [signature, tree] : merged) {
    // Result time is exact (computed from elements at assembly); apply the
    // full predicate on the merged result, then rank by the query spec.
    if (query.predicate != nullptr &&
        !query.predicate->EvalResultTime(tree.time)) {
      ++response.counters.predicate_rejected;
      continue;
    }
    ++response.counters.results;
    if (ResultTree* slot = top.Offer(
            search::MakeScoreKey(query.ranking, tree.total_weight, tree.time),
            &signature)) {
      *slot = std::move(tree);
    }
  }
  response.results = top.TakeRanked(query.ranking);
  return response;
}

}  // namespace tgks::baseline
