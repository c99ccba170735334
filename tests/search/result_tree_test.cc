#include "search/result_tree.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "testutil/paper_graphs.h"

namespace tgks::search {
namespace {

using graph::EdgeId;
using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;

using MatchLists = std::vector<std::vector<NodeId>>;

// One-shot assembly of a candidate given as per-keyword paths, with no
// earlier results to deduplicate against.
std::optional<ResultTree> Assemble(const TemporalGraph& g, NodeId root,
                                   const std::vector<std::vector<EdgeId>>& paths,
                                   const std::vector<NodeId>& matches,
                                   const MatchLists* match_lists = nullptr,
                                   CandidateRejection* why = nullptr) {
  CandidateAssembler assembler(g, match_lists);
  std::vector<EdgeId> edges;
  for (const auto& path : paths) edges.insert(edges.end(), path.begin(), path.end());
  const CandidateRejection outcome =
      assembler.Assemble(root, &edges, matches, /*seen=*/nullptr);
  if (why != nullptr) *why = outcome;
  if (outcome != CandidateRejection::kAccepted) return std::nullopt;
  ResultTree tree;
  assembler.Build(&tree);
  return tree;
}

// A small forward tree: 0 -> 1 -> 2, 0 -> 3 with controllable validities.
TemporalGraph MakeChainGraph() {
  GraphBuilder b(10);
  b.AddNode("root", IntervalSet{{0, 9}});   // 0
  b.AddNode("mid", IntervalSet{{0, 6}});    // 1
  b.AddNode("k1", IntervalSet{{2, 9}});     // 2
  b.AddNode("k2", IntervalSet{{0, 4}});     // 3
  b.AddEdge(0, 1);                          // e0 [0,6]
  b.AddEdge(1, 2);                          // e1 [2,6]
  b.AddEdge(0, 3);                          // e2 [0,4]
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(ResultTreeTest, AssemblesTwoPathTree) {
  const TemporalGraph g = MakeChainGraph();
  CandidateRejection why;
  auto tree = Assemble(g, /*root=*/0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{2}}},
                                {NodeId{2}, NodeId{3}}, nullptr, &why);
  ASSERT_TRUE(tree.has_value()) << static_cast<int>(why);
  EXPECT_EQ(tree->root, 0);
  EXPECT_EQ(tree->nodes, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(tree->edges, (std::vector<EdgeId>{0, 1, 2}));
  // Exact time: [0,9]∩[0,6]∩[2,9]∩[0,4]∩edges = [2,4].
  EXPECT_EQ(tree->time, (IntervalSet{{2, 4}}));
  EXPECT_DOUBLE_EQ(tree->total_weight, 3.0);  // Three unit edges.
  EXPECT_EQ(tree->keyword_nodes, (std::vector<NodeId>{2, 3}));
}

TEST(ResultTreeTest, SingleNodeResult) {
  const TemporalGraph g = MakeChainGraph();
  auto tree = Assemble(g, 2, {{}}, {NodeId{2}});
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->nodes, (std::vector<NodeId>{2}));
  EXPECT_TRUE(tree->edges.empty());
  EXPECT_EQ(tree->time, g.node(2).validity);
  EXPECT_DOUBLE_EQ(tree->total_weight, 0.0);
}

TEST(ResultTreeTest, SharedPrefixDeduplicated) {
  const TemporalGraph g = MakeChainGraph();
  // Keywords 0 and 1 share the prefix edge e0; keyword 2 gives the root a
  // second child so the root rule does not fire.
  auto tree = Assemble(
      g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{0}}, {EdgeId{2}}},
      {NodeId{2}, NodeId{1}, NodeId{3}});
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->edges, (std::vector<EdgeId>{0, 1, 2}));  // e0 once.
  EXPECT_DOUBLE_EQ(tree->total_weight, 3.0);
}

TEST(ResultTreeTest, SharedSingleChildRootIsReducible) {
  const TemporalGraph g = MakeChainGraph();
  // Both keywords reached through the same first edge: the root has one
  // child and matches nothing, so the lower-rooted duplicate wins.
  CandidateRejection why;
  auto tree = Assemble(g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{0}}},
                                {NodeId{2}, NodeId{1}}, nullptr, &why);
  EXPECT_FALSE(tree.has_value());
  EXPECT_EQ(why, CandidateRejection::kRootReducible);
}

TEST(ResultTreeTest, RejectsEmptyTime) {
  GraphBuilder b(10);
  b.AddNode("root", IntervalSet{{0, 9}});
  b.AddNode("early", IntervalSet{{0, 2}});
  b.AddNode("late", IntervalSet{{7, 9}});
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  CandidateRejection why;
  auto tree = Assemble(*g, 0, {{EdgeId{0}}, {EdgeId{1}}},
                                {NodeId{1}, NodeId{2}}, nullptr, &why);
  EXPECT_FALSE(tree.has_value());
  EXPECT_EQ(why, CandidateRejection::kEmptyTime);
}

TEST(ResultTreeTest, RejectsNonTreeUnion) {
  // Diamond: 0->1->3 and 0->2->3; node 3 would have two parents.
  GraphBuilder b(5);
  for (int i = 0; i < 4; ++i) b.AddNode("n" + std::to_string(i));
  b.AddEdge(0, 1);  // e0
  b.AddEdge(1, 3);  // e1
  b.AddEdge(0, 2);  // e2
  b.AddEdge(2, 3);  // e3
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  CandidateRejection why;
  auto tree =
      Assemble(*g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{2}, EdgeId{3}}},
                        {NodeId{3}, NodeId{3}}, nullptr, &why);
  EXPECT_FALSE(tree.has_value());
  EXPECT_EQ(why, CandidateRejection::kNotATree);
}

TEST(ResultTreeTest, RejectsRootWithSingleChildNotMatching) {
  const TemporalGraph g = MakeChainGraph();
  // Root 0 with both keywords down the same chain: root is reducible.
  CandidateRejection why;
  auto tree = Assemble(g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{0}}},
                                {NodeId{2}, NodeId{1}}, nullptr, &why);
  // Keyword 2 matches node 1, keyword 1 matches node 2: root 0 covers
  // nothing and has a single child -> reducible.
  EXPECT_FALSE(tree.has_value());
  EXPECT_EQ(why, CandidateRejection::kRootReducible);
}

TEST(ResultTreeTest, RootMatchingAKeywordSurvivesSingleChild) {
  const TemporalGraph g = MakeChainGraph();
  // Keyword 0 matches the root itself, keyword 1 down the chain.
  auto tree = Assemble(g, 0, {{}, {EdgeId{0}}}, {NodeId{0}, NodeId{1}});
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->root, 0);
  EXPECT_EQ(tree->nodes, (std::vector<NodeId>{0, 1}));
}

TEST(ResultTreeTest, LeafReductionWithMatchSets) {
  const TemporalGraph g = MakeChainGraph();
  // Keyword 0's designated match is leaf 3, but node 1 (interior, on
  // keyword 1's path) also matches it per the match sets: the leaf peels
  // and the tree becomes the chain 0->1->2... whose root then reduces.
  const MatchLists lists{{NodeId{1}, NodeId{3}}, {NodeId{2}}};
  CandidateRejection why;
  auto tree = Assemble(g, 0, {{EdgeId{2}}, {EdgeId{0}, EdgeId{1}}},
                       {NodeId{3}, NodeId{2}}, &lists, &why);
  // After peeling leaf 3, the root has one child and covers nothing.
  EXPECT_FALSE(tree.has_value());
  EXPECT_EQ(why, CandidateRejection::kRootReducible);
}

TEST(ResultTreeTest, LeafReductionKeepsNeededLeaves) {
  const TemporalGraph g = MakeChainGraph();
  const MatchLists lists{{NodeId{3}}, {NodeId{2}}};
  auto tree = Assemble(g, 0, {{EdgeId{2}}, {EdgeId{0}, EdgeId{1}}},
                       {NodeId{3}, NodeId{2}}, &lists);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->nodes, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(ResultTreeTest, SignatureDistinguishesTrees) {
  const TemporalGraph g = MakeChainGraph();
  auto t1 = Assemble(g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{2}}},
                              {NodeId{2}, NodeId{3}});
  auto t2 = Assemble(g, 2, {{}}, {NodeId{2}});
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_NE(t1->Signature(), t2->Signature());
  auto t1_again = Assemble(g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{2}}},
                                    {NodeId{2}, NodeId{3}});
  EXPECT_EQ(t1->Signature(), t1_again->Signature());
}

TEST(ResultTreeTest, WeightSumsRootThenAscendingNodeIds) {
  // Weights of 0.1/0.2/0.3 round differently in different addition orders,
  // so the sum pins the documented order bit for bit.
  GraphBuilder b(10);
  b.AddNode("root", 0.1);  // 0
  b.AddNode("mid", 0.2);   // 1
  b.AddNode("k1", 0.3);    // 2
  b.AddNode("k2", 0.1);    // 3
  b.AddEdge(0, 2, 0.3);    // e0
  b.AddEdge(0, 1, 0.2);    // e1
  b.AddEdge(1, 3, 0.1);    // e2
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto tree = Assemble(*g, 0, {{EdgeId{0}}, {EdgeId{1}, EdgeId{2}}},
                       {NodeId{2}, NodeId{3}});
  ASSERT_TRUE(tree.has_value());
  // Root, then nodes 1, 2, 3, each followed by its incoming edge.
  double expected = 0.1;
  expected += 0.2;
  expected += 0.2;
  expected += 0.3;
  expected += 0.3;
  expected += 0.1;
  expected += 0.1;
  EXPECT_EQ(tree->total_weight, expected);
}

// Root 0 -> 1 -> 2 and 0 -> 3, 0 -> 4. Keyword A matches the deep node 2
// and the shallow node 3; keyword B matches 4.
TemporalGraph MakeRedundantCoverGraph() {
  GraphBuilder b(10);
  for (int i = 0; i < 5; ++i) b.AddNode("n" + std::to_string(i));
  b.AddEdge(0, 1);  // e0
  b.AddEdge(1, 2);  // e1
  b.AddEdge(0, 3);  // e2
  b.AddEdge(0, 4);  // e3
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(ResultTreeTest, PeelsTheFartherRedundantCoverer) {
  const TemporalGraph g = MakeRedundantCoverGraph();
  const MatchLists lists{{NodeId{2}, NodeId{3}}, {NodeId{4}}};
  // The path to 2 and a third path through 3 put both A coverers in the
  // union. Node 2 is deeper, so it peels (and its parent 1 with it), even
  // though it has the smaller NodeId.
  auto tree = Assemble(g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{3}}, {EdgeId{2}}},
                       {NodeId{2}, NodeId{4}, NodeId{3}}, nullptr);
  ASSERT_TRUE(tree.has_value());  // Designated matches: nothing peels.
  EXPECT_EQ(tree->nodes, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  CandidateRejection why;
  tree = Assemble(g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{3}, EdgeId{2}}},
                  {NodeId{2}, NodeId{4}}, &lists, &why);
  ASSERT_TRUE(tree.has_value()) << static_cast<int>(why);
  EXPECT_EQ(tree->nodes, (std::vector<NodeId>{0, 3, 4}));
  EXPECT_EQ(tree->edges, (std::vector<EdgeId>{2, 3}));
  EXPECT_EQ(tree->keyword_nodes, (std::vector<NodeId>{3, 4}));
}

TEST(ResultTreeTest, PeelTieGoesToTheSmallerNodeId) {
  // Nodes 1 and 2 both cover keyword A at depth 1: node 1 peels first.
  GraphBuilder b(10);
  for (int i = 0; i < 4; ++i) b.AddNode("n" + std::to_string(i));
  b.AddEdge(0, 1);  // e0
  b.AddEdge(0, 2);  // e1
  b.AddEdge(0, 3);  // e2
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const MatchLists lists{{NodeId{1}, NodeId{2}}, {NodeId{3}}};
  auto tree = Assemble(*g, 0, {{EdgeId{0}, EdgeId{1}}, {EdgeId{2}}},
                       {NodeId{1}, NodeId{3}}, &lists);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->nodes, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(tree->keyword_nodes, (std::vector<NodeId>{2, 3}));
}

TEST(ResultTreeTest, DuplicateFoundBeforeBuildMatchesBuildFirst) {
  const TemporalGraph g = MakeRedundantCoverGraph();
  // Keywords A {2, 3}, B {4}, C {3}. Bundle X takes A at 3; bundle Y takes
  // A at 2, which peels, so both reduce to the tree {0, 3, 4}.
  const MatchLists lists{{NodeId{2}, NodeId{3}}, {NodeId{4}}, {NodeId{3}}};
  CandidateAssembler assembler(g, &lists);
  SignatureSet seen;
  std::vector<EdgeId> x{EdgeId{2}, EdgeId{3}, EdgeId{2}};
  ASSERT_EQ(assembler.Assemble(0, &x, {NodeId{3}, NodeId{4}, NodeId{3}},
                               &seen),
            CandidateRejection::kAccepted);
  ResultTree first;
  assembler.Build(&first);
  EXPECT_EQ(assembler.signature(), first.Signature());
  seen.insert(assembler.signature());

  const std::vector<NodeId> y_matches{NodeId{2}, NodeId{4}, NodeId{3}};
  std::vector<EdgeId> y{EdgeId{0}, EdgeId{1}, EdgeId{3}, EdgeId{2}};
  EXPECT_EQ(assembler.Assemble(0, &y, y_matches, &seen),
            CandidateRejection::kDuplicate);
  EXPECT_EQ(assembler.signature(), first.Signature());

  // Building first, as a search without the early lookup would, yields the
  // same tree: the signature check after the build calls it a duplicate too.
  std::vector<EdgeId> y_again{EdgeId{0}, EdgeId{1}, EdgeId{3}, EdgeId{2}};
  ASSERT_EQ(assembler.Assemble(0, &y_again, y_matches, /*seen=*/nullptr),
            CandidateRejection::kAccepted);
  ResultTree built;
  assembler.Build(&built);
  EXPECT_EQ(built.Signature(), first.Signature());
  EXPECT_EQ(built.time, first.time);
  EXPECT_EQ(built.total_weight, first.total_weight);
  EXPECT_EQ(built.keyword_nodes, first.keyword_nodes);
}

// Assemble names, times and weighs the tree; Build fills a ResultTree from
// that state, overwriting every field of a recycled tree.
TEST(ResultTreeTest, BuildFillsARecycledTreeFromTheLastAcceptedCandidate) {
  const TemporalGraph g = MakeChainGraph();
  CandidateAssembler assembler(g, nullptr);
  std::vector<EdgeId> big{EdgeId{0}, EdgeId{1}, EdgeId{2}};
  ASSERT_EQ(assembler.Assemble(0, &big, {NodeId{2}, NodeId{3}}, nullptr),
            CandidateRejection::kAccepted);
  EXPECT_EQ(assembler.time(), (IntervalSet{{2, 4}}));
  EXPECT_DOUBLE_EQ(assembler.weight(), 3.0);
  ResultTree recycled;
  assembler.Build(&recycled);
  EXPECT_EQ(recycled.Signature(), assembler.signature());
  recycled.score = {-3.0};

  // The single-node tree at node 2, built over the three-edge tree.
  std::vector<EdgeId> none;
  ASSERT_EQ(assembler.Assemble(2, &none, {NodeId{2}}, nullptr),
            CandidateRejection::kAccepted);
  assembler.Build(&recycled);
  const auto fresh = Assemble(g, 2, {{}}, {NodeId{2}});
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(recycled.root, fresh->root);
  EXPECT_EQ(recycled.nodes, fresh->nodes);
  EXPECT_EQ(recycled.edges, fresh->edges);
  EXPECT_EQ(recycled.time, fresh->time);
  EXPECT_EQ(recycled.total_weight, fresh->total_weight);
  EXPECT_EQ(recycled.keyword_nodes, fresh->keyword_nodes);
  EXPECT_EQ(recycled.score, (ScoreVec{-3.0}));  // Left to the caller.
  EXPECT_EQ(assembler.time(), recycled.time);
  EXPECT_EQ(assembler.weight(), recycled.total_weight);
}

// One-edge trees under root 0, as (weight, edge).
using WeightedEdges = std::vector<std::pair<double, EdgeId>>;

// Offers `trees` to a set of size k in the given order; returns the kept
// signatures, best first.
std::vector<std::string> KeepTopK(int64_t k, const WeightedEdges& trees) {
  const RankingSpec relevance;
  const IntervalSet time{{0, 1}};
  std::vector<std::string> signatures;
  signatures.reserve(trees.size());  // The set points into it.
  TopKResults top(k);
  for (const auto& [weight, edge] : trees) {
    ResultTree tree;
    tree.root = 0;
    tree.edges = {edge};
    tree.time = time;
    tree.total_weight = weight;
    signatures.push_back(tree.Signature());
    ResultTree* slot =
        top.Offer(MakeScoreKey(relevance, weight, time), &signatures.back());
    if (slot != nullptr) *slot = std::move(tree);
  }
  std::vector<std::string> kept;
  for (const ResultTree& tree : top.TakeRanked(relevance)) {
    EXPECT_EQ(tree.score, (ScoreVec{-tree.total_weight}));
    kept.push_back(tree.Signature());
  }
  return kept;
}

TEST(ResultTreeTest, TopKKeepsTheBestTreesWhateverTheOfferOrder) {
  // Ties on weight 2 go to the smaller signature as a string: "0:10," sorts
  // before "0:2,".
  WeightedEdges trees = {{2.0, 2}, {3.0, 1}, {2.0, 10}, {1.0, 7},
                         {2.0, 11}, {4.0, 3}, {2.0, 4}};
  const std::vector<std::string> all = {"0:7,", "0:10,", "0:11,", "0:2,",
                                        "0:4,", "0:1,",  "0:3,"};
  std::sort(trees.begin(), trees.end());
  do {
    for (const int64_t k : {1, 3, 6}) {
      EXPECT_EQ(KeepTopK(k, trees),
                std::vector<std::string>(all.begin(), all.begin() + k));
    }
    EXPECT_EQ(KeepTopK(0, trees), all);
    EXPECT_EQ(KeepTopK(std::numeric_limits<int32_t>::max(), trees), all);
  } while (std::next_permutation(trees.begin(), trees.end()));
}

TEST(ResultTreeTest, TopKTurnsAwayTreesThatDoNotBeatTheWorst) {
  const RankingSpec relevance;
  const IntervalSet time{{0, 1}};
  const std::string a = "0:1,", b = "0:2,", c = "0:3,";
  TopKResults top(2);
  EXPECT_FALSE(top.full());
  ASSERT_NE(top.Offer(MakeScoreKey(relevance, 1.0, time), &b), nullptr);
  ASSERT_NE(top.Offer(MakeScoreKey(relevance, 2.0, time), &c), nullptr);
  ASSERT_TRUE(top.full());
  EXPECT_EQ(top.worst()[0], -2.0);
  // Worse than the worst, and tied with it but a larger signature.
  EXPECT_EQ(top.Offer(MakeScoreKey(relevance, 3.0, time), &a), nullptr);
  const std::string d = "0:4,";
  EXPECT_EQ(top.Offer(MakeScoreKey(relevance, 2.0, time), &d), nullptr);
  // Tied with the worst and a smaller signature: evicts it, recycling its
  // tree.
  ResultTree* slot = top.Offer(MakeScoreKey(relevance, 2.0, time), &a);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(top.worst()[0], -2.0);
}

}  // namespace
}  // namespace tgks::search
