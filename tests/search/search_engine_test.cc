#include "search/search_engine.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "search/query_parser.h"
#include "testutil/paper_graphs.h"

namespace tgks::search {
namespace {

using graph::InvertedIndex;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;

Query MustParse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status();
  return std::move(q).value();
}

SearchOptions Exhaustive() {
  SearchOptions options;
  options.k = 0;  // ALL.
  return options;
}

// Every returned tree must satisfy Definition 2.2 on its face.
void CheckWellFormed(const TemporalGraph& g, const Query& q,
                     const SearchResponse& r) {
  for (const ResultTree& tree : r.results) {
    EXPECT_FALSE(tree.time.IsEmpty());
    // Exact validity: recompute.
    IntervalSet time = g.node(tree.root).validity;
    for (const NodeId n : tree.nodes) time = time.Intersect(g.node(n).validity);
    for (const auto e : tree.edges) time = time.Intersect(g.edge(e).validity);
    EXPECT_EQ(time, tree.time);
    // Tree shape: |E| = |V| - 1 and every edge endpoint is a tree node.
    EXPECT_EQ(tree.edges.size() + 1, tree.nodes.size());
    for (const auto e : tree.edges) {
      EXPECT_TRUE(std::binary_search(tree.nodes.begin(), tree.nodes.end(),
                                     g.edge(e).src));
      EXPECT_TRUE(std::binary_search(tree.nodes.begin(), tree.nodes.end(),
                                     g.edge(e).dst));
    }
    // Keyword coverage.
    ASSERT_EQ(tree.keyword_nodes.size(), q.keywords.size());
    for (const NodeId kn : tree.keyword_nodes) {
      EXPECT_NE(kn, graph::kInvalidNode);
      EXPECT_TRUE(
          std::binary_search(tree.nodes.begin(), tree.nodes.end(), kn));
    }
    // Predicate.
    if (q.predicate != nullptr) {
      EXPECT_TRUE(q.predicate->EvalResultTime(tree.time));
    }
  }
  // Scores sorted best-first.
  for (size_t i = 1; i < r.results.size(); ++i) {
    EXPECT_FALSE(ScoreBetter(r.results[i].score, r.results[i - 1].score));
  }
}

TEST(SearchEngineTest, IntroMaryJohnFindsValidTreesOnly) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q = MustParse("mary, john");
  auto r = engine.Search(q, Exhaustive());
  ASSERT_TRUE(r.ok()) << r.status();
  CheckWellFormed(g, q, *r);
  ASSERT_FALSE(r->results.empty());
  // No result may use the Microsoft shortcut (its time would be empty).
  for (const ResultTree& tree : r->results) {
    const bool uses_microsoft = std::binary_search(
        tree.nodes.begin(), tree.nodes.end(), ids.microsoft);
    EXPECT_FALSE(uses_microsoft);
  }
  // The best result connects Mary and John via Bob-Ross (weight 3, valid
  // t6-t7).
  const ResultTree& best = r->results.front();
  EXPECT_DOUBLE_EQ(best.total_weight, 3.0);
  EXPECT_EQ(best.time, (IntervalSet{{6, 7}}));
  // The via-Mike tree (weight 4, valid t4) must also be found.
  const bool found_mike_path = std::any_of(
      r->results.begin(), r->results.end(), [&](const ResultTree& t) {
        return std::binary_search(t.nodes.begin(), t.nodes.end(), ids.mike) &&
               t.time == IntervalSet{{4, 4}};
      });
  EXPECT_TRUE(found_mike_path);
}

TEST(SearchEngineTest, SingleKeywordReturnsMatchesThemselves) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  auto r = engine.Search(MustParse("mary"), Exhaustive());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->results.size(), 1u);
  EXPECT_EQ(r->results[0].root, ids.mary);
  EXPECT_TRUE(r->results[0].edges.empty());
}

TEST(SearchEngineTest, UnknownKeywordYieldsNoResults) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  auto r = engine.Search(MustParse("mary, nonexistent"), Exhaustive());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->results.empty());
  EXPECT_TRUE(r->exhausted());
}

TEST(SearchEngineTest, PredicateFiltersResults) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  // Results valid only before t5: the t6-t7 Ross tree is excluded, the t4
  // Mike tree qualifies ("precedes 5" = some instant < 5).
  const Query q = MustParse("mary, john result time precedes 5");
  auto r = engine.Search(q, Exhaustive());
  ASSERT_TRUE(r.ok());
  CheckWellFormed(g, q, *r);
  ASSERT_FALSE(r->results.empty());
  for (const ResultTree& tree : r->results) {
    EXPECT_LT(tree.time.Start(), 5);
  }
  const bool has_ross_tree = std::any_of(
      r->results.begin(), r->results.end(), [&](const ResultTree& t) {
        return std::binary_search(t.nodes.begin(), t.nodes.end(), ids.ross);
      });
  EXPECT_FALSE(has_ross_tree);
}

TEST(SearchEngineTest, ContainsPredicateExactPruningSkipsFinalCheck) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q = MustParse("mary, john result time contains [6,7]");
  auto r = engine.Search(q, Exhaustive());
  ASSERT_TRUE(r.ok());
  CheckWellFormed(g, q, *r);
  ASSERT_FALSE(r->results.empty());
  EXPECT_EQ(r->counters.predicate_rejected, 0);
  for (const ResultTree& tree : r->results) {
    EXPECT_TRUE(tree.time.Subsumes(IntervalSet{{6, 7}}));
  }
}

TEST(SearchEngineTest, RankByStartTimePutsEarliestFirst) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  // Q1: earliest relationships between Mary and John.
  const Query q =
      MustParse("mary, john rank by ascending order of result start time");
  auto r = engine.Search(q, Exhaustive());
  ASSERT_TRUE(r.ok());
  CheckWellFormed(g, q, *r);
  ASSERT_GE(r->results.size(), 2u);
  // The t4 Mike tree starts earlier than the t6 Ross tree.
  EXPECT_EQ(r->results.front().time.Start(), 4);
}

TEST(SearchEngineTest, RankByDurationPutsLongestFirst) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q = MustParse("mary, bob rank by descending order of duration");
  auto r = engine.Search(q, Exhaustive());
  ASSERT_TRUE(r.ok());
  CheckWellFormed(g, q, *r);
  ASSERT_FALSE(r->results.empty());
  // Mary-Bob edge alone: valid t2-t7, duration 6 — the longest possible.
  EXPECT_EQ(r->results.front().time.Duration(), 6);
}

TEST(SearchEngineTest, Fig6EndTimeRankingFindsRootOneResult) {
  // Example 4.1: "k1, k2" rank by end time. The result rooted at node 1 is
  // valid at t1 only; round-robin must find it despite the t2 cloud.
  testutil::Fig6Ids ids;
  const TemporalGraph g = testutil::MakeFig6Graph(&ids);
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q =
      MustParse("k1, k2 rank by descending order of result end time");
  SearchOptions options;
  options.k = 1;
  options.bound = UpperBoundKind::kAccurate;
  auto r = engine.Search(q, options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->results.size(), 1u);
  // With bidirectional edges the tree may be rooted at node 1 or at the k1
  // match itself; either way it is the t1-only connection through node 3.
  EXPECT_EQ(r->results[0].time, (IntervalSet{{0, 0}}));
  EXPECT_TRUE(std::binary_search(r->results[0].nodes.begin(),
                                 r->results[0].nodes.end(), ids.n3));
}

TEST(SearchEngineTest, Fig6Example42ResultAtT2) {
  // Example 4.2: "k3, k4" — the result 6-7-9 is valid at t2.
  testutil::Fig6Ids ids;
  const TemporalGraph g = testutil::MakeFig6Graph(&ids);
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q =
      MustParse("k3, k4 rank by descending order of result end time");
  auto r = engine.Search(q, Exhaustive());
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->results.empty());
  const ResultTree& best = r->results.front();
  EXPECT_EQ(best.time, (IntervalSet{{1, 1}}));
  EXPECT_TRUE(std::binary_search(best.nodes.begin(), best.nodes.end(),
                                 ids.n7));
}

TEST(SearchEngineTest, RoundRobinOnOffSameResultSet) {
  // §6.2.1 reports identical quality with and without round-robin; on an
  // exhaustive run the result sets must match exactly.
  const TemporalGraph g = testutil::MakeFig6Graph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q =
      MustParse("k1, k2 rank by descending order of result end time");
  SearchOptions with_rr = Exhaustive();
  SearchOptions without_rr = Exhaustive();
  without_rr.round_robin_keywords = false;
  auto a = engine.Search(q, with_rr);
  auto b = engine.Search(q, without_rr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::set<std::string> sig_a, sig_b;
  for (const auto& t : a->results) sig_a.insert(t.Signature());
  for (const auto& t : b->results) sig_b.insert(t.Signature());
  EXPECT_EQ(sig_a, sig_b);
}

// Three "a" matches and one "b" match below one root, the "a" edges of
// weight 1, 2 and 3 and the "b" edge of weight 1. The two frontier tops tie
// at weight 0 (the matches) and again at weight 1 (the root): each tie goes
// to "b", the frontier with fewer sources, where the lower keyword index
// would pick "a". The exact top-k does not depend on the tie order.
TEST(SearchEngineTest, RelevanceTiesGoToTheFrontierWithFewerSources) {
  graph::GraphBuilder b(4);
  const NodeId root = b.AddNode("root");
  std::vector<std::vector<NodeId>> matches(2);
  for (const double weight : {1.0, 2.0, 3.0}) {
    matches[0].push_back(b.AddNode("a"));
    b.AddEdge(root, matches[0].back(), weight);
  }
  matches[1].push_back(b.AddNode("b"));
  b.AddEdge(root, matches[1].back(), 1.0);
  const TemporalGraph g = std::move(b.Build()).value();
  const SearchEngine engine(g);
  const Query q = MustParse("a, b");

  SearchOptions options = Exhaustive();
  std::string keywords;
  options.pop_ctx = &keywords;
  options.pop_fn = [](void* ctx, size_t keyword, const BestPathIterator&,
                      NtdId) {
    *static_cast<std::string*>(ctx) += std::to_string(keyword);
  };
  auto all = engine.SearchWithMatches(q, matches, options);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(keywords, "10001000");
  ASSERT_EQ(all->results.size(), 3u);

  SearchOptions topk;
  topk.k = 2;
  topk.bound = UpperBoundKind::kAccurate;
  auto top = engine.SearchWithMatches(q, matches, topk);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->results.size(), 2u);
  for (size_t i = 0; i < top->results.size(); ++i) {
    EXPECT_EQ(top->results[i].Signature(), all->results[i].Signature()) << i;
    EXPECT_EQ(top->results[i].total_weight, 2.0 + static_cast<double>(i));
  }
}

// A root with one "b" leaf (edge 0) and twelve "a" leaves (edges 1-12),
// every edge of weight 1: twelve answers of equal weight, "0:0,i,".
struct TiedStar {
  TemporalGraph graph;
  std::vector<std::vector<NodeId>> matches{2};
};

TiedStar MakeTiedStar() {
  graph::GraphBuilder b(4);
  TiedStar star;
  const NodeId root = b.AddNode("root");
  star.matches[1].push_back(b.AddNode("b"));
  b.AddEdge(root, star.matches[1].back(), 1.0);
  for (int i = 0; i < 12; ++i) {
    star.matches[0].push_back(b.AddNode("a"));
    b.AddEdge(root, star.matches[0].back(), 1.0);
  }
  star.graph = std::move(b.Build()).value();
  return star;
}

// The pops of one search, as "keyword:node;" per pop.
SearchResponse SearchRecordingPops(const SearchEngine& engine, const Query& q,
                                   const std::vector<std::vector<NodeId>>& m,
                                   SearchOptions options, std::string* pops) {
  options.pop_ctx = pops;
  options.pop_fn = [](void* ctx, size_t keyword,
                      const BestPathIterator& frontier, NtdId id) {
    *static_cast<std::string*>(ctx) += std::to_string(keyword) + ":" +
                                       std::to_string(frontier.ntd(id).node) +
                                       ";";
  };
  auto r = engine.SearchWithMatches(q, m, options);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

// The engine keeps only the k best trees. With ties on weight the k kept
// are the signature-smallest (as strings, so edge 10 before edge 2), and a
// bounded run answers exactly the first k of an unbounded run that pops
// the same NTDs.
TEST(SearchEngineTest, TopKKeepsTheSignatureSmallestTiedTrees) {
  const TiedStar star = MakeTiedStar();
  const SearchEngine engine(star.graph);
  const Query q = MustParse("a, b");

  SearchOptions bounded;
  bounded.k = 3;
  bounded.bound = UpperBoundKind::kAccurate;
  std::string bounded_pops;
  const SearchResponse top =
      SearchRecordingPops(engine, q, star.matches, bounded, &bounded_pops);
  EXPECT_EQ(top.counters.results, 12);  // Accepted; nine turned away.

  SearchOptions all = Exhaustive();
  all.max_pops = top.counters.pops;
  std::string all_pops;
  const SearchResponse every =
      SearchRecordingPops(engine, q, star.matches, all, &all_pops);
  EXPECT_EQ(all_pops, bounded_pops);
  ASSERT_EQ(every.results.size(), 12u);

  ASSERT_EQ(top.results.size(), 3u);
  const std::vector<std::string> want = {"0:0,1,", "0:0,10,", "0:0,11,"};
  for (size_t i = 0; i < top.results.size(); ++i) {
    EXPECT_EQ(top.results[i].Signature(), want[i]) << i;
    EXPECT_EQ(top.results[i].Signature(), every.results[i].Signature()) << i;
    EXPECT_EQ(top.results[i].score, every.results[i].score) << i;
    EXPECT_EQ(top.results[i].keyword_nodes, every.results[i].keyword_nodes);
  }
}

// A caller may pass any k: nothing is reserved for it, and a k larger than
// the answer count answers like k <= 0 (all trees, no stop test).
TEST(SearchEngineTest, HugeKBehavesLikeUnboundedK) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q = MustParse("Mary, John");
  SearchOptions huge;
  huge.k = std::numeric_limits<int32_t>::max();
  auto big = engine.Search(q, huge);
  auto all = engine.Search(q, Exhaustive());
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(big->stop_reason, StopReason::kExhausted);
  EXPECT_EQ(big->counters.pops, all->counters.pops);
  ASSERT_GT(all->results.size(), 1u);
  ASSERT_EQ(big->results.size(), all->results.size());
  for (size_t i = 0; i < all->results.size(); ++i) {
    EXPECT_EQ(big->results[i].Signature(), all->results[i].Signature()) << i;
    EXPECT_EQ(big->results[i].score, all->results[i].score) << i;
  }
}

// report_expanded_nodes lists exactly the nodes the frontiers popped,
// sorted and without the nodes the search never reaches, and changes
// nothing else about the search.
TEST(SearchEngineTest, ReportsTheExpandedNodesSorted) {
  // A path a <- m1 <- ... <- m5 -> b meeting at m5, then 400 isolated
  // nodes the search never reaches.
  graph::GraphBuilder builder(4);
  std::vector<NodeId> path;
  path.push_back(builder.AddNode("a"));
  for (int i = 0; i < 5; ++i) {
    path.push_back(builder.AddNode("m"));
    builder.AddEdge(path.back(), path[path.size() - 2], 1.0);
  }
  const NodeId b = builder.AddNode("b");
  builder.AddEdge(path.back(), b, 1.0);
  for (int i = 0; i < 400; ++i) builder.AddNode("x");
  const TemporalGraph g = std::move(builder.Build()).value();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q = MustParse("a, b");

  SearchOptions options = Exhaustive();
  std::set<NodeId> popped;
  options.pop_ctx = &popped;
  options.pop_fn = [](void* ctx, size_t, const BestPathIterator& frontier,
                      NtdId id) {
    static_cast<std::set<NodeId>*>(ctx)->insert(frontier.ntd(id).node);
  };
  auto plain = engine.Search(q, options);
  options.report_expanded_nodes = true;
  auto reported = engine.Search(q, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(reported.ok());
  EXPECT_TRUE(plain->expanded_nodes.empty());
  EXPECT_EQ(reported->expanded_nodes,
            std::vector<NodeId>(popped.begin(), popped.end()));
  EXPECT_EQ(reported->expanded_nodes.size(), 7u);
  ASSERT_EQ(reported->results.size(), plain->results.size());
  for (size_t i = 0; i < plain->results.size(); ++i) {
    EXPECT_EQ(reported->results[i].Signature(),
              plain->results[i].Signature());
  }
  EXPECT_EQ(reported->counters.pops, plain->counters.pops);
}

TEST(SearchEngineTest, TopKAccurateBoundFindsTrueTopK) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q = MustParse("mary, john");
  auto all = engine.Search(q, Exhaustive());
  ASSERT_TRUE(all.ok());
  SearchOptions topk;
  topk.k = 2;
  topk.bound = UpperBoundKind::kAccurate;
  auto top = engine.Search(q, topk);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->results.size(),
            std::min<size_t>(2, all->results.size()));
  for (size_t i = 0; i < top->results.size(); ++i) {
    EXPECT_EQ(top->results[i].score, all->results[i].score) << i;
  }
}

TEST(SearchEngineTest, EmpiricalBoundStopsEarlier) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q = MustParse("mary, john");
  SearchOptions accurate;
  accurate.k = 1;
  accurate.bound = UpperBoundKind::kAccurate;
  SearchOptions empirical = accurate;
  empirical.bound = UpperBoundKind::kEmpirical;
  auto ra = engine.Search(q, accurate);
  auto re = engine.Search(q, empirical);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(re.ok());
  EXPECT_LE(re->counters.pops, ra->counters.pops);
  ASSERT_EQ(re->results.size(), 1u);
}

TEST(SearchEngineTest, SearchWithMatchesValidatesInput) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const SearchEngine engine(g);
  const Query q = MustParse("a, b");
  EXPECT_FALSE(engine.SearchWithMatches(q, {{0}}).ok());      // Arity.
  EXPECT_FALSE(engine.SearchWithMatches(q, {{0}, {999}}).ok());  // Range.
  EXPECT_FALSE(engine.Search(q).ok());  // No index.
}

TEST(SearchEngineTest, SearchWithExplicitMatches) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  const SearchEngine engine(g);
  const Query q = MustParse("a, b");  // Keywords are placeholders.
  auto r = engine.SearchWithMatches(q, {{ids.mary}, {ids.john}}, Exhaustive());
  ASSERT_TRUE(r.ok());
  CheckWellFormed(g, q, *r);
  EXPECT_FALSE(r->results.empty());
}

TEST(SearchEngineTest, DuplicateTreesReportedOnce) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  auto r = engine.Search(MustParse("mary, john"), Exhaustive());
  ASSERT_TRUE(r.ok());
  std::set<std::string> sigs;
  for (const auto& t : r->results) {
    EXPECT_TRUE(sigs.insert(t.Signature()).second);
  }
}

TEST(SearchEngineTest, MaxPopsTruncates) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options = Exhaustive();
  options.max_pops = 2;
  auto r = engine.Search(MustParse("mary, john"), options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  EXPECT_LE(r->counters.pops, 2);
}

TEST(SearchEngineTest, CountersPopulated) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  auto r = engine.Search(MustParse("mary, john"), Exhaustive());
  ASSERT_TRUE(r.ok());
  const SearchCounters& c = r->counters;
  EXPECT_EQ(c.iterators, 2);
  EXPECT_GT(c.pops, 0);
  EXPECT_GT(c.ntds_created, 0);
  EXPECT_GT(c.nodes_visited, 0);
  EXPECT_GT(c.candidates, 0);
  EXPECT_EQ(c.results, static_cast<int64_t>(r->results.size()));
  EXPECT_GT(c.avg_ntds_per_node, 0.0);
}

// Three keywords with two matches each, all one edge below a common root:
// the last pops at the root enumerate a product of 2 x 2 = 4 combinations
// (the fresh NTD pinned), and no other node meets all three keywords.
SearchResponse RunStarWithComboCap(int64_t cap) {
  graph::GraphBuilder b(4);
  const NodeId root = b.AddNode("root");
  std::vector<std::vector<NodeId>> matches(3);
  for (size_t kw = 0; kw < matches.size(); ++kw) {
    for (int i = 0; i < 2; ++i) {
      const NodeId leaf = b.AddNode("leaf");
      b.AddEdge(root, leaf);
      matches[kw].push_back(leaf);
    }
  }
  const TemporalGraph g = std::move(b.Build()).value();
  const SearchEngine engine(g);
  SearchOptions options = Exhaustive();
  options.max_combos_per_pop = cap;
  auto r = engine.SearchWithMatches(MustParse("a, b, c"), matches, options);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(SearchEngineTest, ComboOverflowCountsPopsTheCapCuts) {
  const SearchResponse full = RunStarWithComboCap(4);
  EXPECT_EQ(full.counters.combo_overflows, 0);
  EXPECT_EQ(full.counters.results, 8);
  // Cap 3 stops inside the innermost list, cap 2 at the end of it with the
  // outer list unfinished: both leave a combination of a 4-product unseen.
  for (const int64_t cap : {3, 2}) {
    const SearchResponse cut = RunStarWithComboCap(cap);
    EXPECT_GE(cut.counters.combo_overflows, 1) << "cap " << cap;
    EXPECT_LT(cut.counters.candidates, full.counters.candidates)
        << "cap " << cap;
  }
  // A cap of zero cuts every met-all pop before its first combination.
  const SearchResponse none = RunStarWithComboCap(0);
  EXPECT_EQ(none.counters.candidates, 0);
  EXPECT_GE(none.counters.combo_overflows, 1);
}

// One "a" match, which also matches "b", two edges below a root; 16 more
// "b" matches one edge below it. Relevance ranking pops the 16 short "b"
// paths at the root before the "a" path, so the "a" pop there enumerates
// a product of at least 16. Every combination pairing the "a" path with a
// short "b" path has "b" redundant (the "a" match covers it), so its
// reduced tree is the "a" path alone: the first such combination is
// assembled and the other 15 replay its root-reducible verdict. The only
// answer is the shared match on its own.
TEST(SearchEngineTest, MemoReplaysCombinationsWhosePathsPeelAway) {
  graph::GraphBuilder b(4);
  const NodeId root = b.AddNode("root");
  const NodeId mid = b.AddNode("mid");
  const NodeId both = b.AddNode("both");
  b.AddEdge(root, mid);
  b.AddEdge(mid, both);
  std::vector<std::vector<NodeId>> matches = {{both}, {both}};
  for (int i = 0; i < 16; ++i) {
    const NodeId leaf = b.AddNode("leaf");
    b.AddEdge(root, leaf);
    matches[1].push_back(leaf);
  }
  const TemporalGraph g = std::move(b.Build()).value();
  const SearchEngine engine(g);
  auto r = engine.SearchWithMatches(MustParse("a, b"), matches, Exhaustive());
  ASSERT_TRUE(r.ok());
  const SearchCounters& c = r->counters;
  EXPECT_EQ(c.memo_hits, 15);
  EXPECT_EQ(c.candidates, c.root_reducible + c.results);
  ASSERT_EQ(r->results.size(), 1u);
  EXPECT_EQ(r->results[0].nodes, std::vector<NodeId>{both});
}

TEST(SearchEngineTest, DurationIndexKindsAgree) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  const Query q = MustParse("mary, john rank by descending order of duration");
  std::set<std::string> expected;
  for (const auto kind :
       {temporal::NtdIndexKind::kNaive, temporal::NtdIndexKind::kRowMajor,
        temporal::NtdIndexKind::kColumnMajor}) {
    SearchOptions options = Exhaustive();
    options.duration_index = kind;
    auto r = engine.Search(q, options);
    ASSERT_TRUE(r.ok());
    std::set<std::string> sigs;
    for (const auto& t : r->results) sigs.insert(t.Signature());
    if (expected.empty()) {
      expected = sigs;
      EXPECT_FALSE(expected.empty());
    } else {
      EXPECT_EQ(sigs, expected);
    }
  }
}

}  // namespace
}  // namespace tgks::search
