#include "baseline/banks_w.h"

#include <string>
#include <vector>

namespace tgks::baseline {

using search::ResultTree;

BanksResponse RunBanksW(const graph::TemporalGraph& graph,
                        const search::Query& query,
                        const std::vector<std::vector<graph::NodeId>>& matches,
                        BanksOptions options) {
  const TreeFilter accept = [&query](const ResultTree& tree) {
    return query.predicate == nullptr ||
           query.predicate->EvalResultTime(tree.time);
  };
  const bool temporal_primary = query.ranking.PrimaryIsTemporal();
  BanksOptions run_options = options;
  if (temporal_primary) {
    // BANKS generates roughly by relevance; for temporal ranking it cannot
    // stop early, so enumerate everything the budget allows and sort later.
    run_options.k = 0;
  }
  BanksResponse response = RunBanks(graph, matches, run_options, &accept);
  // Re-rank under the query's ranking spec. Under a relevance primary
  // BANKS already kept at most k trees.
  std::vector<std::string> signatures;
  signatures.reserve(response.results.size());  // Offer keeps pointers.
  search::TopKResults top(options.k);
  for (ResultTree& tree : response.results) {
    signatures.push_back(tree.Signature());
    if (ResultTree* slot = top.Offer(
            search::MakeScoreKey(query.ranking, tree.total_weight, tree.time),
            &signatures.back())) {
      *slot = std::move(tree);
    }
  }
  response.results = top.TakeRanked(query.ranking);
  return response;
}

}  // namespace tgks::baseline
