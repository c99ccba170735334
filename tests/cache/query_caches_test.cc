// In-engine cache bundle tests: match-set materialization and case folding,
// and the bundle's InvalidateAll generation hook.

#include "cache/query_caches.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "temporal/interval_set.h"

namespace tgks::cache {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;

TemporalGraph SmallGraph() {
  GraphBuilder b(100, graph::ValidityPolicy::kClamp);
  b.AddNode("alice likes graphs", IntervalSet{{0, 10}});
  b.AddNode("bob likes chains", IntervalSet{{5, 20}});
  b.AddNode("carol", IntervalSet{{8, 40}});
  b.AddEdge(0, 1, IntervalSet{{5, 10}});
  b.AddEdge(1, 2, IntervalSet{{8, 15}});
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(MatchSetCacheTest, MaterializesPostingAndAliveUnion) {
  const TemporalGraph g = SmallGraph();
  const graph::InvertedIndex index(g);
  MatchSetCache cache(1 << 20);

  bool hit = true;
  const auto likes = cache.GetOrCompute(g, index, "likes", &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(likes, nullptr);
  EXPECT_EQ(likes->nodes, (std::vector<NodeId>{0, 1}));
  // Alive union of nodes 0 and 1: [0,10] | [5,20] = [0,20].
  EXPECT_EQ(likes->alive, (IntervalSet{{0, 20}}));

  const auto again = cache.GetOrCompute(g, index, "likes", &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), likes.get());  // Same shared object.
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(MatchSetCacheTest, CaseFoldsLikeTheInvertedIndex) {
  const TemporalGraph g = SmallGraph();
  const graph::InvertedIndex index(g);
  MatchSetCache cache(1 << 20);
  bool hit = true;
  const auto lower = cache.GetOrCompute(g, index, "alice", &hit);
  EXPECT_FALSE(hit);
  const auto upper = cache.GetOrCompute(g, index, "ALICE", &hit);
  EXPECT_TRUE(hit);  // Folds to the same key — one cached entry.
  EXPECT_EQ(lower.get(), upper.get());
}

TEST(MatchSetCacheTest, UnknownKeywordCachesEmptySet) {
  const TemporalGraph g = SmallGraph();
  const graph::InvertedIndex index(g);
  MatchSetCache cache(1 << 20);
  bool hit = true;
  const auto none = cache.GetOrCompute(g, index, "nosuchword", &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(none->nodes.empty());
  EXPECT_TRUE(none->alive.IsEmpty());
  cache.GetOrCompute(g, index, "nosuchword", &hit);
  EXPECT_TRUE(hit);  // Negative entries are cached too.
}

TEST(QueryCachesTest, InvalidateAllClearsBothLevelsAndBumpsGeneration) {
  const TemporalGraph g = SmallGraph();
  const graph::InvertedIndex index(g);
  QueryCaches caches;
  bool hit = true;
  caches.match_sets().GetOrCompute(g, index, "likes", &hit);
  EXPECT_EQ(caches.generation(), 0u);

  EXPECT_EQ(caches.InvalidateAll(), 1u);
  EXPECT_EQ(caches.generation(), 1u);
  EXPECT_EQ(caches.match_sets().stats().entries, 0);
  caches.match_sets().GetOrCompute(g, index, "likes", &hit);
  EXPECT_FALSE(hit);  // Gone — recomputed after invalidation.
}

}  // namespace
}  // namespace tgks::cache
