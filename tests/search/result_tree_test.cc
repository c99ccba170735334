#include "search/result_tree.h"

#include <optional>
#include <string>

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
  ResultTree tree;
  const CandidateRejection outcome =
      assembler.Assemble(root, &edges, matches, /*seen=*/nullptr, &tree);
  if (why != nullptr) *why = outcome;
  if (outcome != CandidateRejection::kAccepted) return std::nullopt;
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
  ResultTree first;
  ASSERT_EQ(assembler.Assemble(0, &x, {NodeId{3}, NodeId{4}, NodeId{3}},
                               &seen, &first),
            CandidateRejection::kAccepted);
  EXPECT_EQ(assembler.signature(), first.Signature());
  seen.insert(assembler.signature());

  const std::vector<NodeId> y_matches{NodeId{2}, NodeId{4}, NodeId{3}};
  std::vector<EdgeId> y{EdgeId{0}, EdgeId{1}, EdgeId{3}, EdgeId{2}};
  ResultTree untouched;
  EXPECT_EQ(assembler.Assemble(0, &y, y_matches, &seen, &untouched),
            CandidateRejection::kDuplicate);
  EXPECT_EQ(assembler.signature(), first.Signature());
  EXPECT_EQ(untouched.root, graph::kInvalidNode);  // Nothing was built.

  // Building first, as a search without the early lookup would, yields the
  // same tree: the signature check after the build calls it a duplicate too.
  std::vector<EdgeId> y_again{EdgeId{0}, EdgeId{1}, EdgeId{3}, EdgeId{2}};
  ResultTree built;
  ASSERT_EQ(assembler.Assemble(0, &y_again, y_matches, /*seen=*/nullptr,
                               &built),
            CandidateRejection::kAccepted);
  EXPECT_EQ(built.Signature(), first.Signature());
  EXPECT_EQ(built.time, first.time);
  EXPECT_EQ(built.total_weight, first.total_weight);
  EXPECT_EQ(built.keyword_nodes, first.keyword_nodes);
}

}  // namespace
}  // namespace tgks::search
