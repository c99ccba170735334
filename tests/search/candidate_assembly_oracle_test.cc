// Brute-force oracle for candidate assembly.
//
// On 60 seeded random temporal graphs, every tree that the engine, BANKS
// and the inverse search accept is checked against definitions computed
// from scratch: it is a tree rooted at `root`, it covers every keyword, no
// leaf can be removed, its time is exactly the set of instants at which
// all its elements are valid, and (for ResultTree) its keyword nodes and
// weight follow their documented rules. A second sweep feeds random
// candidate bundles to two assemblers, one deduplicating before it builds
// and one building first, and requires identical outcomes and counters. A
// third checks the redundant-path lemma behind the engine's candidate
// memo: whenever the memo's test accepts a bundle, the bundle assembles
// exactly like its core paths alone.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/banks.h"
#include "common/random.h"
#include "graph/graph_builder.h"
#include "search/candidate_memo.h"
#include "search/label_correcting_iterator.h"
#include "search/result_tree.h"
#include "search/search_engine.h"

namespace tgks::search {
namespace {

using graph::EdgeId;
using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;
using temporal::TimePoint;

constexpr int kGraphs = 60;
constexpr TimePoint kHorizon = 8;

// Small dense graphs with random weights of 0.1-0.3 and random validities.
TemporalGraph RandomGraph(Rng* rng) {
  while (true) {
    GraphBuilder b(kHorizon, graph::ValidityPolicy::kClamp);
    const int num_nodes = 8 + static_cast<int>(rng->Uniform(6));
    for (int i = 0; i < num_nodes; ++i) {
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(kHorizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(kHorizon));
      b.AddNode("n" + std::to_string(i),
                IntervalSet{{std::min(a, c), std::max(a, c)}},
                0.1 * static_cast<double>(rng->Uniform(3)));
    }
    const int num_edges = 2 * num_nodes + static_cast<int>(rng->Uniform(8));
    for (int i = 0; i < num_edges; ++i) {
      const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
      const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
      if (u == v) continue;
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(kHorizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(kHorizon));
      b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}},
                0.1 * static_cast<double>(1 + rng->Uniform(3)));
    }
    auto g = b.Build();
    if (g.ok()) return std::move(g).value();
  }
}

// Sorted, unique match lists; overlapping sizes make redundant coverers
// (the case leaf peeling exists for) common.
std::vector<std::vector<NodeId>> RandomMatchLists(Rng* rng,
                                                  const TemporalGraph& g,
                                                  size_t keywords) {
  std::vector<std::vector<NodeId>> lists(keywords);
  for (auto& list : lists) {
    const uint64_t size = 2 + rng->Uniform(3);
    for (const uint64_t v : rng->SampleWithoutReplacement(
             static_cast<uint64_t>(g.num_nodes()), size)) {
      list.push_back(static_cast<NodeId>(v));
    }
    std::sort(list.begin(), list.end());
  }
  return lists;
}

bool Contains(const std::vector<NodeId>& sorted, NodeId n) {
  return std::binary_search(sorted.begin(), sorted.end(), n);
}

// Checks one accepted tree from scratch. `nodes` and `edges` are the
// caller's sorted element lists.
void ExpectMinimalTree(const TemporalGraph& g,
                       const std::vector<std::vector<NodeId>>& lists,
                       NodeId root, const std::vector<NodeId>& nodes,
                       const std::vector<EdgeId>& edges,
                       const IntervalSet& time, const std::string& context) {
  SCOPED_TRACE(context);
  // A tree rooted at `root`: every non-root node has exactly one tree
  // parent, the root none, and every parent chain ends at the root.
  ASSERT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
  ASSERT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  ASSERT_TRUE(Contains(nodes, root));
  ASSERT_EQ(edges.size() + 1, nodes.size());
  std::map<NodeId, NodeId> parent;
  std::map<NodeId, int> out_degree;
  for (const EdgeId e : edges) {
    const graph::Edge& edge = g.edge(e);
    ASSERT_TRUE(Contains(nodes, edge.src));
    ASSERT_TRUE(Contains(nodes, edge.dst));
    ASSERT_NE(edge.dst, root);
    ASSERT_TRUE(parent.emplace(edge.dst, edge.src).second);
    ++out_degree[edge.src];
  }
  for (const NodeId n : nodes) {
    NodeId cur = n;
    for (size_t steps = 0; cur != root; ++steps) {
      ASSERT_LE(steps, nodes.size()) << "node " << n << " never reaches root";
      cur = parent.at(cur);
    }
  }

  // Covers every keyword.
  const auto covered = [&](const std::vector<NodeId>& tree_nodes) {
    for (const auto& list : lists) {
      if (std::none_of(tree_nodes.begin(), tree_nodes.end(),
                       [&](NodeId n) { return Contains(list, n); })) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(covered(nodes));

  // Minimal: dropping any leaf uncovers a keyword, and the root either
  // covers a keyword or joins two subtrees.
  for (const NodeId n : nodes) {
    if (n == root || out_degree[n] > 0) continue;
    std::vector<NodeId> without;
    std::copy_if(nodes.begin(), nodes.end(), std::back_inserter(without),
                 [n](NodeId x) { return x != n; });
    EXPECT_FALSE(covered(without)) << "leaf " << n << " is removable";
  }
  const bool root_covers = std::any_of(
      lists.begin(), lists.end(),
      [&](const std::vector<NodeId>& list) { return Contains(list, root); });
  EXPECT_TRUE(root_covers || out_degree[root] >= 2);

  // Exact time, instant by instant.
  for (TimePoint t = 0; t < g.timeline_length(); ++t) {
    bool alive = true;
    for (const NodeId n : nodes) alive &= g.node(n).validity.Contains(t);
    for (const EdgeId e : edges) alive &= g.edge(e).validity.Contains(t);
    EXPECT_EQ(time.Contains(t), alive) << "instant " << t;
  }
}

// The ResultTree-only rules: smallest coverer per keyword, and the weight
// summed root first, then each node by ascending id with its tree edge.
void ExpectResultFields(const TemporalGraph& g,
                        const std::vector<std::vector<NodeId>>& lists,
                        const ResultTree& tree) {
  ASSERT_EQ(tree.keyword_nodes.size(), lists.size());
  for (size_t kw = 0; kw < lists.size(); ++kw) {
    const auto it = std::find_if(
        tree.nodes.begin(), tree.nodes.end(),
        [&](NodeId n) { return Contains(lists[kw], n); });
    ASSERT_NE(it, tree.nodes.end());
    EXPECT_EQ(tree.keyword_nodes[kw], *it);
  }
  std::map<NodeId, EdgeId> edge_to;
  for (const EdgeId e : tree.edges) edge_to[g.edge(e).dst] = e;
  double weight = g.node(tree.root).weight;
  for (const NodeId n : tree.nodes) {
    if (n == tree.root) continue;
    weight += g.node(n).weight;
    weight += g.edge(edge_to.at(n)).weight;
  }
  EXPECT_EQ(tree.total_weight, weight);
}

TEST(CandidateAssemblyOracleTest, AcceptedTreesAreMinimalAndExactlyTimed) {
  int64_t engine_trees = 0;
  int64_t banks_trees = 0;
  int64_t inverse_trees = 0;
  for (int seed = 0; seed < kGraphs; ++seed) {
    Rng rng(static_cast<uint64_t>(9000 + seed));
    const TemporalGraph g = RandomGraph(&rng);
    const size_t keywords = 2 + static_cast<size_t>(seed % 2);
    const auto lists = RandomMatchLists(&rng, g, keywords);
    const std::string context = "seed " + std::to_string(seed);

    Query q;
    for (size_t i = 0; i < keywords; ++i) {
      q.keywords.push_back("k" + std::to_string(i));
    }
    const SearchEngine engine(g);
    for (const RankFactor factor :
         {RankFactor::kRelevance, RankFactor::kDurationDesc}) {
      q.ranking.factors = {factor};
      SearchOptions options;
      options.k = 0;
      auto r = engine.SearchWithMatches(q, lists, options);
      ASSERT_TRUE(r.ok()) << context;
      for (const ResultTree& tree : r->results) {
        ExpectMinimalTree(g, lists, tree.root, tree.nodes, tree.edges,
                          tree.time, context + " engine");
        ExpectResultFields(g, lists, tree);
        ++engine_trees;
      }
    }

    baseline::BanksOptions banks_options;
    banks_options.k = 0;
    const auto banks = baseline::RunBanks(g, lists, banks_options, nullptr);
    for (const ResultTree& tree : banks.results) {
      ExpectMinimalTree(g, lists, tree.root, tree.nodes, tree.edges,
                        tree.time, context + " banks");
      ExpectResultFields(g, lists, tree);
      ++banks_trees;
    }

    for (const InverseSearchResult& result :
         SearchInverse(g, lists, InverseRankFactor::kDurationAsc, /*k=*/0)) {
      ExpectMinimalTree(g, lists, result.root, result.nodes, result.edges,
                        result.time, context + " inverse");
      ++inverse_trees;
    }
  }
  // The sweep must actually exercise every caller.
  EXPECT_GT(engine_trees, 100);
  EXPECT_GT(banks_trees, 20);
  EXPECT_GT(inverse_trees, 20);
}

// A random candidate: per keyword, a random forward walk from `root` whose
// end is the designated match; the concatenated walks are the path union.
struct Bundle {
  NodeId root;
  std::vector<EdgeId> edges;
  std::vector<NodeId> matches;
  std::vector<size_t> path_ends;  ///< Per keyword: its walk's end in edges.
};

Bundle RandomBundle(Rng* rng, const TemporalGraph& g,
                    const std::vector<std::vector<EdgeId>>& out_edges,
                    size_t keywords) {
  Bundle b;
  b.root = static_cast<NodeId>(rng->Uniform(g.num_nodes()));
  for (size_t kw = 0; kw < keywords; ++kw) {
    NodeId cur = b.root;
    const uint64_t length = rng->Uniform(4);
    for (uint64_t step = 0; step < length; ++step) {
      const auto& outs = out_edges[static_cast<size_t>(cur)];
      if (outs.empty()) break;
      const EdgeId e = outs[rng->Uniform(outs.size())];
      b.edges.push_back(e);
      cur = g.edge(e).dst;
    }
    b.matches.push_back(cur);
    b.path_ends.push_back(b.edges.size());
  }
  return b;
}

TEST(CandidateAssemblyOracleTest, DuplicateBeforeBuildKeepsEveryCounter) {
  int64_t duplicates = 0;
  for (int seed = 0; seed < kGraphs; ++seed) {
    Rng rng(static_cast<uint64_t>(7000 + seed));
    const TemporalGraph g = RandomGraph(&rng);
    std::vector<std::vector<EdgeId>> out_edges(
        static_cast<size_t>(g.num_nodes()));
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      out_edges[static_cast<size_t>(g.edge(e).src)].push_back(e);
    }
    const size_t keywords = 2 + static_cast<size_t>(seed % 2);
    // Designated matches must cover their keyword, as in a real search.
    std::vector<Bundle> bundles;
    auto lists = RandomMatchLists(&rng, g, keywords);
    for (int i = 0; i < 400; ++i) {
      bundles.push_back(RandomBundle(&rng, g, out_edges, keywords));
      for (size_t kw = 0; kw < keywords; ++kw) {
        lists[kw].push_back(bundles.back().matches[kw]);
      }
    }
    for (auto& list : lists) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    // Early: the lookup inside Assemble. Late: build every tree, then look
    // its signature up, as a search did before the early lookup existed.
    CandidateAssembler early(g, &lists);
    CandidateAssembler late(g, &lists);
    SignatureSet early_seen;
    SignatureSet late_seen;
    std::map<std::string, int64_t> early_counts;
    std::map<std::string, int64_t> late_counts;
    const auto name = [](CandidateRejection why) -> std::string {
      switch (why) {
        case CandidateRejection::kAccepted:
          return "accepted";
        case CandidateRejection::kNotATree:
          return "not_a_tree";
        case CandidateRejection::kEmptyTime:
          return "empty_time";
        case CandidateRejection::kRootReducible:
          return "root_reducible";
        case CandidateRejection::kDuplicate:
          return "duplicate";
      }
      return "unknown";
    };
    for (const Bundle& bundle : bundles) {
      std::vector<EdgeId> edges = bundle.edges;
      ResultTree early_tree;
      const CandidateRejection e =
          early.Assemble(bundle.root, &edges, bundle.matches, &early_seen);
      if (e == CandidateRejection::kAccepted) {
        early_seen.insert(early.signature());
        early.Build(&early_tree);
      }
      ++early_counts[name(e)];

      edges = bundle.edges;
      ResultTree late_tree;
      CandidateRejection l = late.Assemble(bundle.root, &edges, bundle.matches,
                                           /*seen=*/nullptr);
      if (l == CandidateRejection::kAccepted) {
        late.Build(&late_tree);
        ASSERT_EQ(late.signature(), late_tree.Signature());
        if (!late_seen.insert(late_tree.Signature()).second) {
          l = CandidateRejection::kDuplicate;
        }
      }
      ++late_counts[name(l)];
      ASSERT_EQ(e, l) << "seed " << seed;
      if (e == CandidateRejection::kAccepted) {
        EXPECT_EQ(early_tree.Signature(), late_tree.Signature());
        EXPECT_EQ(early_tree.time, late_tree.time);
        EXPECT_EQ(early_tree.total_weight, late_tree.total_weight);
        EXPECT_EQ(early_tree.keyword_nodes, late_tree.keyword_nodes);
      }
    }
    EXPECT_EQ(early_counts, late_counts) << "seed " << seed;
    duplicates += early_counts["duplicate"];
  }
  EXPECT_GT(duplicates, 1000);  // The sweep must produce many duplicates.
}

// A bundle shaped like a real candidate: per keyword, a random forward
// walk from `root` cut at one of its nodes (the root included) that matches
// the keyword. False when some keyword found no match in a few walks.
bool RandomMatchedBundle(Rng* rng, const TemporalGraph& g,
                         const std::vector<std::vector<EdgeId>>& out_edges,
                         const std::vector<std::vector<NodeId>>& lists,
                         Bundle* b) {
  b->root = static_cast<NodeId>(rng->Uniform(g.num_nodes()));
  b->edges.clear();
  b->matches.clear();
  b->path_ends.clear();
  std::vector<EdgeId> walk;
  std::vector<size_t> cuts;  // Walk lengths whose end matches.
  for (const std::vector<NodeId>& list : lists) {
    cuts.clear();
    for (int attempt = 0; attempt < 8 && cuts.empty(); ++attempt) {
      walk.clear();
      NodeId cur = b->root;
      if (Contains(list, cur)) cuts.push_back(0);
      const uint64_t length = 1 + rng->Uniform(4);
      for (uint64_t step = 0; step < length; ++step) {
        const auto& outs = out_edges[static_cast<size_t>(cur)];
        if (outs.empty()) break;
        const EdgeId e = outs[rng->Uniform(outs.size())];
        walk.push_back(e);
        cur = g.edge(e).dst;
        if (Contains(list, cur)) cuts.push_back(walk.size());
      }
    }
    if (cuts.empty()) return false;
    const size_t cut = cuts[rng->Uniform(cuts.size())];
    b->edges.insert(b->edges.end(), walk.begin(),
                    walk.begin() + static_cast<std::ptrdiff_t>(cut));
    b->matches.push_back(cut == 0 ? b->root : g.edge(walk[cut - 1]).dst);
    b->path_ends.push_back(b->edges.size());
  }
  return true;
}

// The redundant-path lemma (docs/algorithms.md, "Redundant keyword
// paths"): when a bundle's path union is a tree and the peel of its core
// paths keeps a coverer of every redundant keyword for a reason outside
// them, the bundle reduces to the core's tree. Random bundles of three and
// four keywords over small match lists make redundant keywords common.
TEST(CandidateAssemblyOracleTest, RedundantPathsPeelAwayWhenTheMemoSaysSo) {
  int64_t trials = 0;
  int64_t redundant_trials = 0;
  int64_t accepted = 0;
  int64_t accepted_trees = 0;
  int64_t differ = 0;  // Rejected by (c) and not reducing to the core's tree.
  for (int seed = 0; seed < kGraphs; ++seed) {
    Rng rng(static_cast<uint64_t>(5000 + seed));
    const TemporalGraph g = RandomGraph(&rng);
    std::vector<std::vector<EdgeId>> out_edges(
        static_cast<size_t>(g.num_nodes()));
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      out_edges[static_cast<size_t>(g.edge(e).src)].push_back(e);
    }
    const size_t keywords = 3 + static_cast<size_t>(seed % 2);
    const auto lists = RandomMatchLists(&rng, g, keywords);
    std::vector<Bundle> bundles;
    for (int i = 0; i < 400; ++i) {
      Bundle bundle;
      if (RandomMatchedBundle(&rng, g, out_edges, lists, &bundle)) {
        bundles.push_back(std::move(bundle));
      }
    }

    CandidateAssembler core_assembler(g, &lists);
    CandidateAssembler full_assembler(g, &lists);
    CandidateMemo memo;
    SignatureSet seen;
    const std::vector<int32_t> choice(keywords, 0);
    const std::string context = "seed " + std::to_string(seed);
    for (const Bundle& bundle : bundles) {
      ++trials;
      memo.Reset(bundle.root, &lists);
      size_t next_edge = 0;
      for (size_t kw = 0; kw < keywords; ++kw) {
        memo.BeginPath(kw);
        for (; next_edge < bundle.path_ends[kw]; ++next_edge) {
          const EdgeId e = bundle.edges[next_edge];
          memo.AddStep(g.edge(e).dst, e);
        }
      }
      // With one path per keyword, Seal's "some combination has a redundant
      // keyword" is this combination's.
      const uint64_t redundant = memo.Redundant(choice.data());
      ASSERT_EQ(memo.Seal(), redundant != 0) << context;

      std::vector<EdgeId> full_edges = bundle.edges;
      ResultTree full_tree;
      const CandidateRejection full = full_assembler.Assemble(
          bundle.root, &full_edges, bundle.matches, &seen);
      if (full == CandidateRejection::kAccepted) {
        full_assembler.Build(&full_tree);
      }
      // The memo's tree test is exactly the assembler's.
      ASSERT_EQ(memo.FormsTree(choice.data()),
                full != CandidateRejection::kNotATree)
          << context;
      if (redundant == 0 || full == CandidateRejection::kNotATree) {
        if (full == CandidateRejection::kAccepted) {
          seen.insert(full_assembler.signature());
        }
        continue;
      }
      ++redundant_trials;

      std::vector<EdgeId> core_edges;
      memo.CoreEdgesInto(redundant, choice.data(), &core_edges);
      ResultTree core_tree;
      const CandidateRejection core = core_assembler.Assemble(
          bundle.root, &core_edges, bundle.matches, &seen);
      if (core == CandidateRejection::kAccepted) {
        core_assembler.Build(&core_tree);
      }
      ASSERT_NE(core, CandidateRejection::kNotATree) << context;
      const bool same_tree =
          core == full && (core == CandidateRejection::kRootReducible ||
                           core_assembler.signature() ==
                               full_assembler.signature());
      if (!core_assembler.RedundantCoverHolds(redundant)) {
        differ += !same_tree;
      } else {
        ++accepted;
        ASSERT_EQ(core, full) << context << " redundant " << redundant;
        EXPECT_TRUE(same_tree) << context << " redundant " << redundant;
        if (core == CandidateRejection::kAccepted) {
          ++accepted_trees;
          EXPECT_EQ(core_tree.Signature(), full_tree.Signature()) << context;
          EXPECT_EQ(core_tree.nodes, full_tree.nodes) << context;
          EXPECT_EQ(core_tree.time, full_tree.time) << context;
          EXPECT_EQ(core_tree.total_weight, full_tree.total_weight)
              << context;
          EXPECT_EQ(core_tree.keyword_nodes, full_tree.keyword_nodes)
              << context;
        }
      }
      if (full == CandidateRejection::kAccepted) {
        seen.insert(full_assembler.signature());
      }
    }
  }
  // Not vacuous: redundant keywords are common, the test accepts a large
  // share of those bundles and some of them are new trees, and condition
  // (c) matters: many bundles it rejects reduce to another tree than their
  // core's.
  EXPECT_GT(redundant_trials, trials / 4);
  EXPECT_GT(accepted, redundant_trials / 4);
  EXPECT_GT(accepted_trees, 200);
  EXPECT_GT(differ, 1000);
}

}  // namespace
}  // namespace tgks::search
