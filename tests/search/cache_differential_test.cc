// Cached-vs-uncached differential sweep (docs/caching.md): across 60 random
// temporal graphs, every search must return bit-identical results and
// identical work counters whether the in-engine match-set cache is enabled
// or not — on a cold cache AND on a warm one. The warm pass also asserts the
// cache actually served hits, so a silently disabled cache cannot pass as
// "identical".

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/query_caches.h"
#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "search/search_engine.h"

namespace tgks::search {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;
using temporal::TimePoint;

constexpr int kGraphs = 60;

TemporalGraph RandomGraph(Rng* rng, int num_nodes, int num_edges,
                          TimePoint horizon) {
  while (true) {
    GraphBuilder b(horizon, graph::ValidityPolicy::kClamp);
    for (int i = 0; i < num_nodes; ++i) {
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      // Three nodes share each label word, so keyword postings have real
      // fan-out and the match-set cache caches non-trivial lists.
      b.AddNode("w" + std::to_string(i % (num_nodes / 3)),
                IntervalSet{{std::min(a, c), std::max(a, c)}});
    }
    for (int i = 0; i < num_edges; ++i) {
      const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
      const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
      if (u == v) continue;
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}});
    }
    auto g = b.Build();
    if (g.ok()) return std::move(g).value();
  }
}

/// Asserts byte-for-byte equivalence of everything a caller can observe,
/// except the cache_* counters and wall times (the only documented deltas).
void ExpectSameResponse(const SearchResponse& expected,
                        const SearchResponse& actual) {
  ASSERT_EQ(expected.results.size(), actual.results.size());
  for (size_t i = 0; i < expected.results.size(); ++i) {
    EXPECT_EQ(expected.results[i].Signature(), actual.results[i].Signature());
    EXPECT_EQ(expected.results[i].time, actual.results[i].time);
    EXPECT_EQ(expected.results[i].total_weight,
              actual.results[i].total_weight);
  }
  EXPECT_EQ(expected.stop_reason, actual.stop_reason);
  EXPECT_EQ(expected.truncated, actual.truncated);
  const SearchCounters& e = expected.counters;
  const SearchCounters& a = actual.counters;
  EXPECT_EQ(e.iterators, a.iterators);
  EXPECT_EQ(e.pops, a.pops);
  EXPECT_EQ(e.useless_pops, a.useless_pops);
  EXPECT_EQ(e.ntds_created, a.ntds_created);
  EXPECT_EQ(e.edges_scanned, a.edges_scanned);
  EXPECT_EQ(e.nodes_visited, a.nodes_visited);
  EXPECT_EQ(e.candidates, a.candidates);
  EXPECT_EQ(e.duplicates, a.duplicates);
  EXPECT_EQ(e.results, a.results);
  EXPECT_EQ(e.subsumption_skips, a.subsumption_skips);
  EXPECT_EQ(e.subsumption_evictions, a.subsumption_evictions);
}

TEST(CacheDifferentialTest, SixtyGraphsBitIdenticalColdAndWarm) {
  Rng rng(0xcac4e);
  int64_t total_match_hits = 0;
  for (int gi = 0; gi < kGraphs; ++gi) {
    const TemporalGraph g = RandomGraph(&rng, 12, 26, 8);
    const graph::InvertedIndex index(g);
    const SearchEngine engine(g, &index);
    cache::QueryCaches caches;

    SearchOptions uncached;
    uncached.k = 5;
    SearchOptions cached = uncached;
    cached.query_caches = &caches;

    std::vector<Query> queries;
    for (int qi = 0; qi < 3; ++qi) {
      Query q;
      q.keywords = {
          "w" + std::to_string(rng.Uniform(4)),
          "w" + std::to_string(rng.Uniform(4)),
      };
      if (qi == 2) q.ranking.factors = {RankFactor::kDurationDesc};
      queries.push_back(std::move(q));
    }

    for (int pass = 0; pass < 2; ++pass) {  // Pass 0 cold, pass 1 warm.
      for (const Query& q : queries) {
        auto reference = engine.Search(q, uncached);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        auto with_caches = engine.Search(q, cached);
        ASSERT_TRUE(with_caches.ok()) << with_caches.status().ToString();
        ExpectSameResponse(*reference, *with_caches);
        if (pass == 1) {
          // Warm pass: every keyword lookup must hit.
          EXPECT_EQ(with_caches->counters.cache_match_misses, 0);
          total_match_hits += with_caches->counters.cache_match_hits;
        }
      }
    }
  }
  // The differential is only meaningful if the caches actually served.
  EXPECT_EQ(total_match_hits, kGraphs * 3 * 2);
}

TEST(CacheDifferentialTest, ExplicitMatchProtocolBitIdentical) {
  // SearchWithMatches (the social-workload protocol) skips the match-set
  // cache; same differential contract, and no cache lookups at all.
  Rng rng(0xbeef);
  for (int gi = 0; gi < 20; ++gi) {
    const TemporalGraph g = RandomGraph(&rng, 12, 26, 8);
    const SearchEngine engine(g);
    cache::QueryCaches caches;

    SearchOptions uncached;
    uncached.k = 5;
    SearchOptions cached = uncached;
    cached.query_caches = &caches;

    std::vector<std::vector<NodeId>> matches;
    for (int ki = 0; ki < 2; ++ki) {
      std::vector<NodeId> list;
      for (const uint64_t v : rng.SampleWithoutReplacement(12, 4)) {
        list.push_back(static_cast<NodeId>(v));
      }
      std::sort(list.begin(), list.end());
      matches.push_back(std::move(list));
    }
    Query q;
    q.keywords = {"a", "b"};

    for (int pass = 0; pass < 2; ++pass) {
      auto reference = engine.SearchWithMatches(q, matches, uncached);
      ASSERT_TRUE(reference.ok());
      auto with_caches = engine.SearchWithMatches(q, matches, cached);
      ASSERT_TRUE(with_caches.ok());
      ExpectSameResponse(*reference, *with_caches);
      EXPECT_EQ(with_caches->counters.cache_match_hits, 0);
      EXPECT_EQ(with_caches->counters.cache_match_misses, 0);
    }
  }
}

}  // namespace
}  // namespace tgks::search
