// Early-exit finalization (max_pops / deadline / cancellation) and
// scheduling-determinism guarantees:
//  - every exit path returns results sorted best-first and truncated to k;
//  - repeated runs of the same query produce bit-identical orderings
//    (the QueueCompare tie-break pops older NTDs first, and equal-score
//    iterators are scheduled by ascending index);
//  - the deadline clock is polled once per kDeadlineCheckStridePops pops,
//    and a deadline past the clock's range runs as none.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "search/best_path_iterator.h"
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
using temporal::TimePoint;

Query MustParse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status();
  return std::move(q).value();
}

void ExpectSortedBestFirst(const SearchResponse& r) {
  for (size_t i = 1; i < r.results.size(); ++i) {
    EXPECT_FALSE(ScoreBetter(r.results[i].score, r.results[i - 1].score)) << i;
  }
}

// Star fixture: 5 "alpha" and 5 "beta" matches around a hub, all edge
// weights distinct. Every (alpha_i, hub, beta_j) pair is a result, and the
// global best-first pop order is fully determined: 10 source pops, then hub
// pops in ascending spoke weight. After 14 pops exactly four results exist
// (weights 2.05, 2.15, 2.15, 2.25), so max_pops = 14 exits with more
// results found than k = 2 — exercising sort + truncate on the early path.
TemporalGraph MakeStarGraph() {
  GraphBuilder b(4);
  const IntervalSet always{{0, 3}};
  const NodeId hub = b.AddNode("hub", always);
  for (int i = 0; i < 5; ++i) {
    const NodeId a = b.AddNode("alpha", always);
    b.AddEdge(a, hub, always, 1.0 + 0.1 * i);
    b.AddEdge(hub, a, always, 1.0 + 0.1 * i);
  }
  for (int i = 0; i < 5; ++i) {
    const NodeId n = b.AddNode("beta", always);
    b.AddEdge(n, hub, always, 1.05 + 0.1 * i);
    b.AddEdge(hub, n, always, 1.05 + 0.1 * i);
  }
  return std::move(b.Build()).value();
}

TEST(EarlyExitTest, MaxPopsExitSortsAndTruncatesToK) {
  const TemporalGraph g = MakeStarGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options;
  options.k = 2;
  options.bound = UpperBoundKind::kAccurate;  // Never fires this early.
  options.max_pops = 14;
  auto r = engine.Search(MustParse("alpha, beta"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->truncated);
  EXPECT_EQ(r->stop_reason, StopReason::kMaxPops);
  EXPECT_FALSE(r->deadline_exceeded());
  EXPECT_FALSE(r->cancelled());
  EXPECT_LE(r->counters.pops, 14);
  // Four results were generated, but the response carries the best k of
  // them, sorted.
  EXPECT_EQ(r->counters.results, 4);
  ASSERT_EQ(r->results.size(), 2u);
  ExpectSortedBestFirst(*r);
  EXPECT_NEAR(r->results[0].total_weight, 2.05, 1e-9);
  EXPECT_NEAR(r->results[1].total_weight, 2.15, 1e-9);
}

TEST(EarlyExitTest, CancellationTokenStopsImmediately) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  std::atomic<bool> cancel{true};  // Pre-set: cancel at the first pop check.
  SearchOptions options;
  options.k = 0;
  options.cancel = &cancel;
  auto r = engine.Search(MustParse("mary, john"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->cancelled());
  EXPECT_TRUE(r->truncated);
  EXPECT_EQ(r->stop_reason, StopReason::kCancelled);
  EXPECT_FALSE(r->deadline_exceeded());
  EXPECT_EQ(r->counters.pops, 0);
  EXPECT_TRUE(r->results.empty());
}

TEST(EarlyExitTest, UnsetCancelTokenAndNoDeadlineRunToCompletion) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  std::atomic<bool> cancel{false};
  SearchOptions options;
  options.k = 0;
  options.cancel = &cancel;
  options.deadline_ms = 0;  // <= 0 disables the deadline entirely.
  auto r = engine.Search(MustParse("mary, john"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->exhausted());
  EXPECT_EQ(r->stop_reason, StopReason::kExhausted);
  EXPECT_FALSE(r->cancelled());
  EXPECT_FALSE(r->deadline_exceeded());
  EXPECT_FALSE(r->truncated);
  EXPECT_FALSE(r->results.empty());
}

TEST(EarlyExitTest, StopReasonNamesAreStable) {
  EXPECT_EQ(StopReasonName(StopReason::kExhausted), "exhausted");
  EXPECT_EQ(StopReasonName(StopReason::kBound), "bound");
  EXPECT_EQ(StopReasonName(StopReason::kMaxPops), "max_pops");
  EXPECT_EQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_EQ(StopReasonName(StopReason::kCancelled), "cancelled");
}

// Determinism -------------------------------------------------------------

std::vector<std::string> OrderedSignatures(const SearchResponse& r) {
  std::vector<std::string> sigs;
  sigs.reserve(r.results.size());
  for (const auto& t : r.results) sigs.push_back(t.Signature());
  return sigs;
}

TEST(DeterminismTest, RepeatedRunsProduceIdenticalOrderings) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  for (const char* text :
       {"mary, john", "mary, john rank by ascending order of result start "
                      "time",
        "mary, bob rank by descending order of duration"}) {
    const Query q = MustParse(text);
    SearchOptions options;
    options.k = 0;
    auto first = engine.Search(q, options);
    ASSERT_TRUE(first.ok()) << first.status();
    const auto expected = OrderedSignatures(*first);
    for (int run = 0; run < 3; ++run) {
      auto again = engine.Search(q, options);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(OrderedSignatures(*again), expected) << text;
      for (size_t i = 0; i < again->results.size(); ++i) {
        EXPECT_EQ(again->results[i].score, first->results[i].score);
      }
    }
  }
}

TEST(DeterminismTest, QueueCompareBreaksScoreTiesByAge) {
  // Two in-neighbors of the source at identical distance: the NTD created
  // first (edge insertion order) must pop first. This pins the QueueCompare
  // contract `a.id > b.id` — older (smaller) NtdId wins equal scores — that
  // batch determinism rests on.
  GraphBuilder b(4);
  const IntervalSet always{{0, 3}};
  const NodeId src = b.AddNode("src", always);
  const NodeId first = b.AddNode("first", always);
  const NodeId second = b.AddNode("second", always);
  b.AddEdge(first, src, always, 1.0);
  b.AddEdge(second, src, always, 1.0);
  const TemporalGraph g = std::move(b.Build()).value();

  BestPathIterator::Options options;  // Default relevance ranking.
  BestPathIterator iter(g, src, options);
  const NtdId source_ntd = iter.Next();
  ASSERT_NE(source_ntd, kInvalidNtd);
  EXPECT_EQ(iter.ntd(source_ntd).node, src);
  const NtdId a = iter.Next();
  const NtdId b2 = iter.Next();
  ASSERT_NE(a, kInvalidNtd);
  ASSERT_NE(b2, kInvalidNtd);
  // Equal scores (-1.0 each): creation order decides, and `first`'s NTD was
  // created first because its edge was inserted first.
  EXPECT_LT(a, b2);
  EXPECT_EQ(iter.ntd(a).node, first);
  EXPECT_EQ(iter.ntd(b2).node, second);
  EXPECT_EQ(iter.Next(), kInvalidNtd);
}

// ---------------------------------------------------------------------------
// Deadline clock: amortized polling and out-of-range budgets.

TemporalGraph RandomGraph(Rng* rng, int num_nodes, int num_edges,
                          TimePoint horizon) {
  while (true) {
    GraphBuilder b(horizon, graph::ValidityPolicy::kClamp);
    std::vector<std::pair<TimePoint, TimePoint>> node_span;
    for (int i = 0; i < num_nodes; ++i) {
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      node_span.emplace_back(std::min(a, c), std::max(a, c));
      b.AddNode("n" + std::to_string(i),
                IntervalSet{{node_span.back().first, node_span.back().second}},
                static_cast<double>(rng->Uniform(3)));
    }
    for (int i = 0; i < num_edges; ++i) {
      const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
      const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
      if (u == v) continue;
      const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
      const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
      // kClamp rejects the whole build when an edge's validity clamped to
      // its endpoints' comes out empty; skip such edges so dense graphs
      // (many edge draws) stay constructible.
      const TimePoint lo = std::max({std::min(a, c), node_span[u].first,
                                     node_span[v].first});
      const TimePoint hi = std::min({std::max(a, c), node_span[u].second,
                                     node_span[v].second});
      if (lo > hi) continue;
      b.AddEdge(u, v, IntervalSet{{std::min(a, c), std::max(a, c)}},
                static_cast<double>(1 + rng->Uniform(3)));
    }
    auto g = b.Build();
    if (g.ok()) return std::move(g).value();
  }
}

std::vector<NodeId> RandomMatches(Rng* rng, const TemporalGraph& g, int k) {
  std::vector<NodeId> out;
  for (const uint64_t v : rng->SampleWithoutReplacement(
           static_cast<uint64_t>(g.num_nodes()), static_cast<uint64_t>(k))) {
    out.push_back(static_cast<NodeId>(v));
  }
  return out;
}

/// Injectable clock: counts calls; returns base until `expire_after_calls`
/// calls have happened, then a far-future instant.
struct FakeClock {
  std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::time_point(std::chrono::seconds(1000));
  int64_t calls = 0;
  int64_t expire_after_calls = -1;  // -1 = never expire.

  static std::chrono::steady_clock::time_point Read(void* ctx) {
    auto* clock = static_cast<FakeClock*>(ctx);
    const int64_t n = ++clock->calls;
    if (clock->expire_after_calls >= 0 && n > clock->expire_after_calls) {
      return clock->base + std::chrono::hours(24);
    }
    return clock->base;
  }
};

// Regression for the per-pop clock poll: the main loop must read the clock
// once per kDeadlineCheckStridePops pops, not once per pop. Pre-fix this
// fails with calls ~= pops.
TEST(DeadlineStrideTest, ClockPolledOncePerStride) {
  Rng rng(2468);
  const TemporalGraph g = RandomGraph(&rng, 16, 40, 8);
  const std::vector<std::vector<NodeId>> matches = {RandomMatches(&rng, g, 4),
                                                    RandomMatches(&rng, g, 4)};
  Query q;
  q.keywords = {"a", "b"};
  const SearchEngine engine(g);
  FakeClock clock;  // Never expires: the search runs to its natural stop.
  SearchOptions options;
  options.k = 0;
  options.deadline_ms = 60'000;
  options.clock_fn = &FakeClock::Read;
  options.clock_ctx = &clock;
  auto r = engine.SearchWithMatches(q, matches, options);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->deadline_exceeded());
  ASSERT_GT(r->counters.pops, 0);
  // One read arms the deadline; the loop then reads every stride pops
  // (+1 slack for the first-iteration poll).
  const int64_t max_reads =
      r->counters.pops / kDeadlineCheckStridePops + 3;
  EXPECT_LE(clock.calls, max_reads)
      << "deadline clock polled per pop (" << clock.calls
      << " reads for " << r->counters.pops << " pops)";
}

// The documented worst case: once the deadline passes, the loop overshoots
// by at most kDeadlineCheckStridePops - 1 pops before the next poll fires.
TEST(DeadlineStrideTest, OvershootBoundedByStride) {
  Rng rng(1357);
  const TemporalGraph g = RandomGraph(&rng, 20, 60, 8);
  const std::vector<std::vector<NodeId>> matches = {RandomMatches(&rng, g, 5),
                                                    RandomMatches(&rng, g, 5)};
  Query q;
  q.keywords = {"a", "b"};
  const SearchEngine engine(g);
  FakeClock clock;
  // Read 1 arms the deadline; read 2 (first in-loop poll) still passes; the
  // clock is expired from read 3 on, so the loop may consume at most one
  // full stride of pops after the first poll before stopping.
  clock.expire_after_calls = 2;
  SearchOptions options;
  options.k = 0;
  options.deadline_ms = 1000;
  options.clock_fn = &FakeClock::Read;
  options.clock_ctx = &clock;
  auto r = engine.SearchWithMatches(q, matches, options);
  ASSERT_TRUE(r.ok());
  if (r->stop_reason == StopReason::kExhausted) {
    GTEST_SKIP() << "graph exhausted before the deadline could fire";
  }
  EXPECT_EQ(r->stop_reason, StopReason::kDeadline);
  EXPECT_TRUE(r->deadline_exceeded());
  EXPECT_TRUE(r->truncated);
  // First poll fires at pop 1; the expired poll at pop 1 + stride.
  EXPECT_LE(r->counters.pops, 1 + kDeadlineCheckStridePops);
}

// A deadline past the clock's last representable instant can never fire,
// and Now() + deadline_ms would overflow the clock: the search must give
// the no-deadline answer, not stop on a wrapped instant.
TEST(EarlyExitTest, DeadlinePastClockRangeRunsWithoutDeadline) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const SearchEngine engine(g, &index);
  SearchOptions options;
  options.k = 0;
  auto unbounded = engine.Search(MustParse("mary, john"), options);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();
  FakeClock clock;
  options.deadline_ms = std::numeric_limits<int64_t>::max();
  options.clock_fn = &FakeClock::Read;
  options.clock_ctx = &clock;
  auto r = engine.Search(MustParse("mary, john"), options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->stop_reason, StopReason::kExhausted);
  EXPECT_FALSE(r->deadline_exceeded());
  EXPECT_FALSE(r->results.empty());
  EXPECT_EQ(OrderedSignatures(*r), OrderedSignatures(*unbounded));
}

}  // namespace
}  // namespace tgks::search
