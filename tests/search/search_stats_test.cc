// Regression tests: SearchResponse::stats is populated on EVERY stop path
// (exhausted, bound, max_pops, deadline, cancelled) next to the paper
// counters; the batch executor aggregates per-query stats.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "exec/query_executor.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "obs/query_trace.h"
#include "obs/search_stats.h"
#include "search/query_parser.h"
#include "search/search_engine.h"
#include "testutil/paper_graphs.h"

namespace tgks::search {
namespace {

using graph::GraphBuilder;
using graph::InvertedIndex;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;

Query MustParse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status();
  return std::move(q).value();
}

/// Invariants every populated profile must satisfy, regardless of the stop
/// path: nothing is negative.
void ExpectStatsConsistent(const SearchResponse& r) {
  const obs::SearchStats& s = r.stats;
  EXPECT_GE(s.prunes, 0);
  EXPECT_GE(s.interval_ops, 0);
  EXPECT_GE(s.heap_high_water, 0);
  const SearchCounters& c = r.counters;
  EXPECT_GE(c.seconds_match, 0.0);
  EXPECT_GE(c.seconds_filter, 0.0);
  EXPECT_GE(c.seconds_expand, 0.0);
  EXPECT_GE(c.seconds_generate, 0.0);
}

/// Dense fixture: a clique over `n` nodes, half labeled alpha and half
/// beta, everything valid everywhere. Exhaustive search over it is big
/// enough that a 1 ms deadline reliably fires mid-flight.
TemporalGraph MakeCliqueGraph(int n) {
  GraphBuilder b(4);
  const IntervalSet always{{0, 3}};
  for (int i = 0; i < n; ++i) {
    b.AddNode(i % 2 == 0 ? "alpha" : "beta", always);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j), always,
                1.0 + 0.001 * (i * n + j));
    }
  }
  return std::move(b.Build()).value();
}

TEST(SearchStatsTest, PopulatedOnExhaustedExit) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options;
  options.k = 0;  // Run to exhaustion.
  auto r = engine.Search(MustParse("mary, john"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->stop_reason, StopReason::kExhausted);
  ExpectStatsConsistent(*r);
  EXPECT_GT(r->counters.pops, 0);
  EXPECT_GT(r->counters.ntds_created, 0);
  EXPECT_GT(r->counters.edges_scanned, 0);
  EXPECT_GT(r->stats.interval_ops, 0);
  EXPECT_GE(r->stats.heap_high_water, 1);
}

// seconds_expand is the frontier build plus the main loop, minus the
// candidate generation timed inside it (docs/observability.md).
TEST(SearchStatsTest, ExpandTimeIsLoopTimeMinusGeneration) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options;
  options.k = 0;  // Run to exhaustion.
  const auto start = std::chrono::steady_clock::now();
  auto r = engine.Search(MustParse("mary, john"), options);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->counters.results, 0);
  const SearchCounters& c = r->counters;
  EXPECT_GT(c.seconds_expand, 0.0);
  EXPECT_GT(c.seconds_generate, 0.0);
  EXPECT_LE(c.seconds_match + c.seconds_filter + c.seconds_expand +
                c.seconds_generate,
            wall);
}

TEST(SearchStatsTest, PopulatedOnBoundExit) {
  const TemporalGraph g = MakeCliqueGraph(16);
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options;
  options.k = 1;
  options.bound = UpperBoundKind::kEmpirical;  // Fastest stop.
  auto r = engine.Search(MustParse("alpha, beta"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->stop_reason, StopReason::kBound);
  EXPECT_FALSE(r->truncated);
  ExpectStatsConsistent(*r);
  EXPECT_GT(r->counters.pops, 0);
  EXPECT_GE(r->stats.heap_high_water, 1);
}

TEST(SearchStatsTest, PopulatedOnMaxPopsExit) {
  const TemporalGraph g = MakeCliqueGraph(16);
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options;
  options.k = 0;
  options.max_pops = 5;
  auto r = engine.Search(MustParse("alpha, beta"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->stop_reason, StopReason::kMaxPops);
  EXPECT_TRUE(r->truncated);
  EXPECT_EQ(r->counters.pops, 5);
  ExpectStatsConsistent(*r);
}

TEST(SearchStatsTest, PopulatedOnDeadlineExit) {
  // 48-node clique, k = 0: exhaustive generation takes far longer than
  // 1 ms, so the deadline fires at a pop boundary mid-search.
  const TemporalGraph g = MakeCliqueGraph(48);
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options;
  options.k = 0;
  options.deadline_ms = 1;
  auto r = engine.Search(MustParse("alpha, beta"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->stop_reason, StopReason::kDeadline);
  EXPECT_TRUE(r->deadline_exceeded());
  EXPECT_TRUE(r->truncated);
  ExpectStatsConsistent(*r);
}

TEST(SearchStatsTest, PopulatedOnCancelledExit) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  std::atomic<bool> cancel{true};  // Stops at the first pop check.
  SearchOptions options;
  options.k = 0;
  options.cancel = &cancel;
  auto r = engine.Search(MustParse("mary, john"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->stop_reason, StopReason::kCancelled);
  EXPECT_EQ(r->counters.pops, 0);
  ExpectStatsConsistent(*r);
  // Iterators were created before the cancel check, so their source NTDs
  // are queued: finalization saw real state, not an untouched struct.
  EXPECT_GT(r->counters.ntds_created, 0);
  EXPECT_GE(r->stats.heap_high_water, 1);
}

TEST(SearchStatsTest, TraceRecordsIteratorEvents) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  obs::QueryTrace trace(/*capacity=*/4096);
  SearchOptions options;
  options.k = 0;
  options.trace = &trace;
  auto r = engine.Search(MustParse("mary, john"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(trace.total_recorded(), 0);
  bool saw_pop = false, saw_expand = false, saw_keyword_hit = false;
  for (const obs::TraceEvent& ev : trace.Events()) {
    switch (ev.kind) {
      case obs::TraceEventKind::kPop:
        saw_pop = true;
        EXPECT_GE(ev.iter, 0);
        break;
      case obs::TraceEventKind::kExpand:
        saw_expand = true;
        break;
      case obs::TraceEventKind::kKeywordHit:
        saw_keyword_hit = true;
        EXPECT_EQ(ev.iter, -1);
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_pop);
  EXPECT_TRUE(saw_expand);
  EXPECT_TRUE(saw_keyword_hit);  // The query has results, so keywords met.
  // One pop event per engine pop (the ring was big enough to keep all).
  ASSERT_EQ(trace.dropped(), 0);
}

TEST(SearchStatsTest, PredicatePruneCountsPrunedElements) {
  // Nodes/edges valid only late fail a PRECEDES prune; the prune counter
  // must see them.
  GraphBuilder b(10);
  const NodeId root = b.AddNode("root", IntervalSet{{0, 9}});
  const NodeId early = b.AddNode("alpha", IntervalSet{{0, 4}});
  const NodeId late = b.AddNode("alpha", IntervalSet{{8, 9}});
  b.AddEdge(early, root, IntervalSet{{0, 4}}, 1.0);
  b.AddEdge(late, root, IntervalSet{{8, 9}}, 1.0);
  b.AddEdge(root, early, IntervalSet{{0, 4}}, 1.0);
  b.AddEdge(root, late, IntervalSet{{8, 9}}, 1.0);
  const TemporalGraph g = std::move(b.Build()).value();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options;
  options.k = 0;
  auto r = engine.Search(MustParse("alpha, root result time precedes 3"),
                         options);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectStatsConsistent(*r);
  EXPECT_GT(r->stats.prunes, 0)
      << "expansion toward the late-only node must hit the prune";
}

TEST(SearchStatsTest, ExecutorAggregatesBatchStats) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  exec::ExecutorOptions options;
  options.threads = 2;
  options.search.k = 0;
  exec::QueryExecutor executor(g, &index, options);
  const std::vector<exec::BatchQuery> queries = {
      {MustParse("mary, john"), {}},
      {MustParse("mary, bob"), {}},
      {MustParse("mary, john rank by descending order of duration"), {}}};
  const exec::BatchResponse batch = executor.Run(queries);
  ASSERT_EQ(batch.completed, 3);
  int64_t prunes = 0, interval_ops = 0, high_water = 0;
  for (const auto& r : batch.responses) {
    ASSERT_TRUE(r.ok());
    prunes += r->stats.prunes;
    interval_ops += r->stats.interval_ops;
    high_water = std::max(high_water, r->stats.heap_high_water);
  }
  EXPECT_EQ(batch.stats.prunes, prunes);
  EXPECT_EQ(batch.stats.interval_ops, interval_ops);
  EXPECT_GT(batch.stats.interval_ops, 0);
  EXPECT_EQ(batch.stats.heap_high_water, high_water);
  // The merged totals render without the per-query mean they never merged.
  EXPECT_GT(batch.totals.pops, 0);
  EXPECT_EQ(obs::FieldsToString(batch.totals, /*merged=*/true)
                .find("avg_ntds_per_node"),
            std::string::npos);
}

/// The merge of one field of `into` and `from` under `kind`, computed here
/// rather than by obs::MergeField.
template <typename T>
T ExpectedMerge(obs::FieldKind kind, T into, T from) {
  switch (kind) {
    case obs::FieldKind::kCount:
    case obs::FieldKind::kSeconds:
      return into + from;
    case obs::FieldKind::kMax:
      return std::max(into, from);
    case obs::FieldKind::kMean:
      return into;
  }
  return into;
}

// Both Merges follow each table entry's kind: every field gets its own
// values, and each pair merges both ways, so a max keeps either side.
TEST(CounterTableTest, MergeFollowsEachEntrysKind) {
  SearchCounters a, b;
  obs::SearchStats s, t;
  int i = 0;
#define TGKS_FILL(x, y, type, name)    \
  ++i;                                 \
  x.name = static_cast<type>(i * 1.5); \
  y.name = static_cast<type>(100 + i * 2.25);
#define TGKS_FILL_COUNTERS(type, name, kind, help) TGKS_FILL(a, b, type, name)
#define TGKS_FILL_STATS(type, name, kind, help) TGKS_FILL(s, t, type, name)
  TGKS_SEARCH_COUNTERS(TGKS_FILL_COUNTERS)
  TGKS_SEARCH_STATS(TGKS_FILL_STATS)
#undef TGKS_FILL_STATS
#undef TGKS_FILL_COUNTERS
#undef TGKS_FILL
  SearchCounters ab = a, ba = b;
  ab.Merge(b);
  ba.Merge(a);
  obs::SearchStats st = s, ts = t;
  st.Merge(t);
  ts.Merge(s);
#define TGKS_CHECK(merged, into, from, kind, name)                     \
  EXPECT_EQ(merged.name,                                               \
            ExpectedMerge(obs::FieldKind::kind, into.name, from.name)) \
      << #merged "." #name;
#define TGKS_CHECK_COUNTERS(type, name, kind, help) \
  TGKS_CHECK(ab, a, b, kind, name) TGKS_CHECK(ba, b, a, kind, name)
#define TGKS_CHECK_STATS(type, name, kind, help) \
  TGKS_CHECK(st, s, t, kind, name) TGKS_CHECK(ts, t, s, kind, name)
  TGKS_SEARCH_COUNTERS(TGKS_CHECK_COUNTERS)
  TGKS_SEARCH_STATS(TGKS_CHECK_STATS)
#undef TGKS_CHECK_STATS
#undef TGKS_CHECK_COUNTERS
#undef TGKS_CHECK
}

// A merged total renders every field but the kMean ones, whose Merge keeps
// the left-hand value; a single query's rendering keeps them all.
TEST(CounterTableTest, MergedTotalsLeaveMeansOut) {
  SearchCounters c;
  c.pops = 7;
  c.avg_ntds_per_node = 2.5;
  const std::string query = c.ToString();
  const std::string totals = obs::FieldsToString(c, /*merged=*/true);
  EXPECT_NE(query.find("avg_ntds_per_node=2.5"), std::string::npos) << query;
  c.ForEachField([&]<obs::FieldKind kKind>(std::string_view name, auto) {
    const std::string key =
        kKind == obs::FieldKind::kSeconds
            ? "ms_" + std::string(obs::PhaseName(name))
            : std::string(name);
    const bool shown = (" " + totals).find(" " + key + "=") != std::string::npos;
    EXPECT_EQ(shown, kKind != obs::FieldKind::kMean) << key << ": " << totals;
    EXPECT_NE((" " + query).find(" " + key + "="), std::string::npos) << key;
  });
}

}  // namespace
}  // namespace tgks::search
