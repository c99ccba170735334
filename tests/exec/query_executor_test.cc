// QueryExecutor: concurrent batches must be bit-identical to sequential
// execution, and deadlines / cancellation must stop queries cleanly without
// corrupting results or counters.

#include "exec/query_executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "search/query_parser.h"
#include "search/ranking.h"
#include "testutil/paper_graphs.h"

namespace tgks::exec {
namespace {

using graph::GraphBuilder;
using graph::InvertedIndex;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::IntervalSet;

search::Query MustParse(const std::string& text) {
  auto q = search::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status();
  return std::move(q).value();
}

// A long "left ... right" chain: expensive to search (the two frontiers
// must each cross ~n/2 hops to meet), so deadlines and cancellation
// reliably fire mid-expansion.
TemporalGraph MakeChainGraph(int n) {
  GraphBuilder b(4);
  const IntervalSet always{{0, 3}};
  const NodeId head = b.AddNode("left", always);
  NodeId prev = head;
  for (int i = 0; i < n - 2; ++i) {
    const NodeId mid = b.AddNode("mid", always);
    b.AddEdge(prev, mid, always);
    b.AddEdge(mid, prev, always);
    prev = mid;
  }
  const NodeId tail = b.AddNode("right", always);
  b.AddEdge(prev, tail, always);
  b.AddEdge(tail, prev, always);
  return std::move(b.Build()).value();
}

std::vector<BatchQuery> SocialBatch() {
  std::vector<BatchQuery> batch;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const char* text :
         {"mary, john", "mary, bob", "bob, ross, john",
          "mary, john rank by ascending order of result start time",
          "mary, bob rank by descending order of duration"}) {
      batch.push_back(BatchQuery{MustParse(text), {}});
    }
  }
  return batch;
}

void ExpectResponsesIdentical(const BatchResponse& a, const BatchResponse& b) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (size_t i = 0; i < a.responses.size(); ++i) {
    const auto& ra = a.responses[i];
    const auto& rb = b.responses[i];
    ASSERT_EQ(ra.ok(), rb.ok()) << i;
    if (!ra.ok()) continue;
    ASSERT_EQ(ra->results.size(), rb->results.size()) << i;
    for (size_t j = 0; j < ra->results.size(); ++j) {
      EXPECT_EQ(ra->results[j].Signature(), rb->results[j].Signature());
      EXPECT_EQ(ra->results[j].score, rb->results[j].score);
      EXPECT_EQ(ra->results[j].time, rb->results[j].time);
    }
    // Work counters are deterministic too (wall-clock timings are not).
    EXPECT_EQ(ra->counters.pops, rb->counters.pops) << i;
    EXPECT_EQ(ra->counters.useless_pops, rb->counters.useless_pops) << i;
    EXPECT_EQ(ra->counters.ntds_created, rb->counters.ntds_created) << i;
    EXPECT_EQ(ra->counters.edges_scanned, rb->counters.edges_scanned) << i;
    EXPECT_EQ(ra->counters.subsumption_skips, rb->counters.subsumption_skips)
        << i;
    EXPECT_EQ(ra->counters.subsumption_evictions,
              rb->counters.subsumption_evictions)
        << i;
    EXPECT_EQ(ra->counters.candidates, rb->counters.candidates) << i;
    EXPECT_EQ(ra->counters.results, rb->counters.results) << i;
    EXPECT_EQ(ra->stop_reason, rb->stop_reason) << i;
    EXPECT_EQ(ra->exhausted, rb->exhausted) << i;
  }
}

TEST(QueryExecutorTest, ConcurrentBatchBitIdenticalToSequential) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const std::vector<BatchQuery> batch = SocialBatch();

  ExecutorOptions sequential;
  sequential.threads = 1;
  sequential.search.k = 0;
  QueryExecutor seq(g, &index, sequential);
  const BatchResponse reference = seq.Run(batch);
  EXPECT_EQ(reference.completed, static_cast<int64_t>(batch.size()));
  EXPECT_EQ(reference.failed, 0);

  for (const int threads : {2, 4, 8}) {
    ExecutorOptions options = sequential;
    options.threads = threads;
    QueryExecutor executor(g, &index, options);
    EXPECT_EQ(executor.threads(), threads);
    const BatchResponse concurrent = executor.Run(batch);
    EXPECT_EQ(concurrent.completed, static_cast<int64_t>(batch.size()));
    ExpectResponsesIdentical(reference, concurrent);
    // Aggregates derive from the same per-query responses.
    EXPECT_EQ(concurrent.totals.pops, reference.totals.pops);
    EXPECT_EQ(concurrent.totals.results, reference.totals.results);
  }
}

TEST(QueryExecutorTest, RepeatedRunsOnOneExecutorAreIdentical) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 4;
  options.search.k = 0;
  QueryExecutor executor(g, &index, options);
  const std::vector<BatchQuery> batch = SocialBatch();
  const BatchResponse first = executor.Run(batch);
  const BatchResponse second = executor.Run(batch);
  ExpectResponsesIdentical(first, second);
}

TEST(QueryExecutorTest, ScratchRecyclingKeepsWorkCountersBitIdentical) {
  // The worker threads recycle pooled iterator scratch (epoch tables, NTD
  // arenas, heaps) between runs. The first run starts cold, later runs reuse
  // warm state whose tables/arenas carry stale previous-query contents —
  // every observable result AND every work counter must be unaffected.
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 0;
  QueryExecutor executor(g, &index, options);
  const std::vector<BatchQuery> batch = SocialBatch();
  const BatchResponse cold = executor.Run(batch);
  for (int rerun = 0; rerun < 3; ++rerun) {
    const BatchResponse warm = executor.Run(batch);
    ExpectResponsesIdentical(cold, warm);
  }
}

TEST(QueryExecutorTest, DeadlineFiresWithoutCorruptingCounters) {
  const TemporalGraph g = MakeChainGraph(120000);
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.deadline_ms = 1;
  options.search.k = 5;
  QueryExecutor executor(g, &index, options);
  std::vector<BatchQuery> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(BatchQuery{MustParse("left, right"), {}});
  }
  const BatchResponse out = executor.Run(batch);
  EXPECT_EQ(out.completed, 4);
  EXPECT_EQ(out.failed, 0);
  EXPECT_EQ(out.deadline_exceeded, 4);
  EXPECT_EQ(out.truncated, 4);
  int64_t pops_sum = 0;
  for (const auto& r : out.responses) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->deadline_exceeded);
    EXPECT_TRUE(r->truncated);
    EXPECT_EQ(r->stop_reason, search::StopReason::kDeadline);
    // Sane, uncorrupted state: work happened, results (if any) are sorted
    // and within k.
    EXPECT_GT(r->counters.pops, 0);
    EXPECT_LE(r->counters.results, r->counters.candidates);
    EXPECT_LE(r->results.size(), 5u);
    for (size_t i = 1; i < r->results.size(); ++i) {
      EXPECT_FALSE(
          search::ScoreBetter(r->results[i].score, r->results[i - 1].score));
    }
    pops_sum += r->counters.pops;
  }
  EXPECT_EQ(out.totals.pops, pops_sum);
}

TEST(QueryExecutorTest, CancelStopsInFlightBatch) {
  const TemporalGraph g = MakeChainGraph(200000);
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 0;  // Exhaustive: would take far longer than the cancel.
  QueryExecutor executor(g, &index, options);
  std::vector<BatchQuery> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(BatchQuery{MustParse("left, right"), {}});
  }
  std::thread canceller([&executor] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    executor.Cancel();
  });
  const BatchResponse out = executor.Run(batch);
  canceller.join();
  EXPECT_EQ(out.completed, 4);
  EXPECT_EQ(out.failed, 0);
  EXPECT_GT(out.cancelled, 0);
  for (const auto& r : out.responses) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->cancelled || r->exhausted);
  }
  // The token resets for the next batch: a fresh small run completes.
  const TemporalGraph small = testutil::MakeSocialNetworkGraph();
  const InvertedIndex small_index(small);
  QueryExecutor fresh_check(small, &small_index, options);
  const BatchResponse again =
      fresh_check.Run({BatchQuery{MustParse("mary, john"), {}}});
  EXPECT_EQ(again.cancelled, 0);
  EXPECT_EQ(again.completed, 1);
}

TEST(QueryExecutorTest, CallerSuppliedCancelTokenIsHonored) {
  const TemporalGraph g = MakeChainGraph(100000);
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 0;  // Exhaustive: only the token can stop it quickly.
  // The caller wires their own token; the executor's batch token must ride
  // alongside it, not replace it.
  std::atomic<bool> caller_token{true};  // Already set: stop at first pop.
  options.search.cancel = &caller_token;
  QueryExecutor executor(g, &index, options);
  std::vector<BatchQuery> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(BatchQuery{MustParse("left, right"), {}});
  }
  const BatchResponse out = executor.Run(batch);
  EXPECT_EQ(out.completed, 4);
  EXPECT_EQ(out.cancelled, 4);
  for (const auto& r : out.responses) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->cancelled);
    EXPECT_EQ(r->stop_reason, search::StopReason::kCancelled);
  }
  // The executor-side token still works with a caller token present.
  caller_token.store(false);
  std::thread canceller([&executor] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    executor.Cancel();
  });
  const BatchResponse again = executor.Run(batch);
  canceller.join();
  EXPECT_EQ(again.completed, 4);
  EXPECT_GT(again.cancelled, 0);
}

TEST(QueryExecutorTest, ConcurrentRunCallsSerializeAndStayCorrect) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  const std::vector<BatchQuery> batch = SocialBatch();

  ExecutorOptions sequential;
  sequential.threads = 1;
  sequential.search.k = 0;
  QueryExecutor seq(g, &index, sequential);
  const BatchResponse reference = seq.Run(batch);

  ExecutorOptions options = sequential;
  options.threads = 4;
  QueryExecutor executor(g, &index, options);
  // Run() is documented as one-batch-at-a-time; concurrent calls must
  // serialize (not interleave in the pool) and each produce the same
  // responses as a sequential run.
  std::vector<BatchResponse> outs(4);
  {
    std::vector<std::thread> callers;
    for (auto& out : outs) {
      callers.emplace_back(
          [&executor, &batch, &out] { out = executor.Run(batch); });
    }
    for (auto& t : callers) t.join();
  }
  for (const BatchResponse& out : outs) {
    EXPECT_EQ(out.completed, static_cast<int64_t>(batch.size()));
    EXPECT_EQ(out.failed, 0);
    ExpectResponsesIdentical(reference, out);
  }
}

TEST(QueryExecutorTest, ExplicitMatchesAndInvalidQueriesInOneBatch) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 0;
  QueryExecutor executor(g, &index, options);

  std::vector<BatchQuery> batch;
  batch.push_back(BatchQuery{MustParse("mary, john"), {}});
  // Explicit match lists (keywords are placeholders).
  batch.push_back(
      BatchQuery{MustParse("a, b"), {{ids.mary}, {ids.john}}});
  // Invalid: match arity != keyword arity -> error response in that slot.
  batch.push_back(BatchQuery{MustParse("a, b"), {{ids.mary}}});

  const BatchResponse out = executor.Run(batch);
  EXPECT_EQ(out.completed, 2);
  EXPECT_EQ(out.failed, 1);
  ASSERT_TRUE(out.responses[0].ok());
  ASSERT_TRUE(out.responses[1].ok());
  EXPECT_FALSE(out.responses[2].ok());
  EXPECT_FALSE(out.responses[0]->results.empty());
  EXPECT_FALSE(out.responses[1]->results.empty());
}

TEST(QueryExecutorTest, RunQueriesConvenienceWrapper) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  QueryExecutor executor(g, &index, options);
  const BatchResponse out =
      executor.RunQueries({MustParse("mary, john"), MustParse("mary, bob")});
  EXPECT_EQ(out.completed, 2);
  EXPECT_EQ(out.responses.size(), 2u);
  EXPECT_EQ(out.latencies_seconds.size(), 2u);
  EXPECT_GT(out.wall_seconds, 0.0);
  EXPECT_GT(out.QueriesPerSecond(), 0.0);
}

// BatchResponse::totals sums every summable counter of the ok() responses,
// including the subsumption counters only some queries move.
TEST(QueryExecutorTest, BatchTotalsSumEveryCounter) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 0;
  QueryExecutor executor(g, &index, options);
  std::vector<search::Query> queries;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (const char* text : {"mary, john", "mary, bob", "bob, ross, john"}) {
      queries.push_back(MustParse(std::string(text) +
                                  " rank by descending order of duration"));
    }
  }
  const BatchResponse out = executor.RunQueries(queries);
  ASSERT_EQ(out.completed, static_cast<int64_t>(queries.size()));
  search::SearchCounters sum;
  for (const auto& r : out.responses) {
    ASSERT_TRUE(r.ok()) << r.status();
    const search::SearchCounters& c = r->counters;
    sum.iterators += c.iterators;
    sum.pops += c.pops;
    sum.useless_pops += c.useless_pops;
    sum.ntds_created += c.ntds_created;
    sum.edges_scanned += c.edges_scanned;
    sum.subsumption_skips += c.subsumption_skips;
    sum.subsumption_evictions += c.subsumption_evictions;
    sum.nodes_visited += c.nodes_visited;
    sum.candidates += c.candidates;
    sum.invalid_time += c.invalid_time;
    sum.invalid_structure += c.invalid_structure;
    sum.root_reducible += c.root_reducible;
    sum.predicate_rejected += c.predicate_rejected;
    sum.duplicates += c.duplicates;
    sum.combo_overflows += c.combo_overflows;
    sum.memo_hits += c.memo_hits;
    sum.results += c.results;
    sum.seconds_match += c.seconds_match;
    sum.seconds_filter += c.seconds_filter;
    sum.seconds_expand += c.seconds_expand;
    sum.seconds_generate += c.seconds_generate;
  }
  // The batch moves the counters the check is about.
  EXPECT_GT(sum.subsumption_skips, 0);
  const search::SearchCounters& t = out.totals;
#define TGKS_EXPECT_SUM(field) EXPECT_EQ(t.field, sum.field) << #field
  TGKS_EXPECT_SUM(iterators);
  TGKS_EXPECT_SUM(pops);
  TGKS_EXPECT_SUM(useless_pops);
  TGKS_EXPECT_SUM(ntds_created);
  TGKS_EXPECT_SUM(edges_scanned);
  TGKS_EXPECT_SUM(subsumption_skips);
  TGKS_EXPECT_SUM(subsumption_evictions);
  TGKS_EXPECT_SUM(nodes_visited);
  TGKS_EXPECT_SUM(candidates);
  TGKS_EXPECT_SUM(invalid_time);
  TGKS_EXPECT_SUM(invalid_structure);
  TGKS_EXPECT_SUM(root_reducible);
  TGKS_EXPECT_SUM(predicate_rejected);
  TGKS_EXPECT_SUM(duplicates);
  TGKS_EXPECT_SUM(combo_overflows);
  TGKS_EXPECT_SUM(memo_hits);
  TGKS_EXPECT_SUM(results);
  TGKS_EXPECT_SUM(seconds_match);
  TGKS_EXPECT_SUM(seconds_filter);
  TGKS_EXPECT_SUM(seconds_expand);
  TGKS_EXPECT_SUM(seconds_generate);
#undef TGKS_EXPECT_SUM
}

// --- Single-query Submit() (the serving path) -------------------------------

// Helper: submits one query and blocks for its completion.
Result<search::SearchResponse> SubmitAndWait(QueryExecutor* executor,
                                             SingleQuery single,
                                             double* seconds_out = nullptr) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<search::SearchResponse> out = Status::Internal("not run");
  executor->Submit(std::move(single),
                   [&](Result<search::SearchResponse> r, double seconds) {
                     std::lock_guard<std::mutex> lock(mu);
                     out = std::move(r);
                     if (seconds_out != nullptr) *seconds_out = seconds;
                     done = true;
                     cv.notify_one();
                   });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&done] { return done; });
  return out;
}

TEST(QueryExecutorTest, SubmitRunsOneQueryAsynchronously) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 5;
  QueryExecutor executor(g, &index, options);
  double seconds = -1.0;
  auto r = SubmitAndWait(&executor, SingleQuery{{MustParse("mary, john"), {}}},
                         &seconds);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->results.empty());
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(executor.inflight_singles(), 0);
}

TEST(QueryExecutorTest, SubmitHonorsPerRequestDeadline) {
  const TemporalGraph g = MakeChainGraph(120000);
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 5;
  QueryExecutor executor(g, &index, options);
  SingleQuery single{{MustParse("left, right"), {}}};
  single.deadline_ms = 1;
  auto r = SubmitAndWait(&executor, std::move(single));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->deadline_exceeded);
  EXPECT_EQ(r->stop_reason, search::StopReason::kDeadline);
}

TEST(QueryExecutorTest, SubmitHonorsPerRequestCancelToken) {
  const TemporalGraph g = MakeChainGraph(100000);
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 0;  // Exhaustive: only the token can stop it quickly.
  QueryExecutor executor(g, &index, options);
  std::atomic<bool> token{true};  // Pre-set: stop at the first pop boundary.
  SingleQuery single{{MustParse("left, right"), {}}};
  single.cancel = &token;
  auto r = SubmitAndWait(&executor, std::move(single));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->cancelled);
  EXPECT_EQ(r->stop_reason, search::StopReason::kCancelled);
}

TEST(QueryExecutorTest, SubmitComposesWithPresetExtraCancel) {
  // A server-wide shutdown token preset in the base options stops submitted
  // queries even when they carry no per-request token.
  const TemporalGraph g = MakeChainGraph(100000);
  const InvertedIndex index(g);
  std::atomic<bool> shutdown{true};
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 0;
  options.search.extra_cancel = &shutdown;
  QueryExecutor executor(g, &index, options);
  auto r = SubmitAndWait(&executor, SingleQuery{{MustParse("left, right"), {}}});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->cancelled);
  EXPECT_EQ(r->stop_reason, search::StopReason::kCancelled);
}

TEST(QueryExecutorTest, SubmitsInterleaveWithBatchesSafely) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const InvertedIndex index(g);
  ExecutorOptions options;
  options.threads = 2;
  options.search.k = 5;
  QueryExecutor executor(g, &index, options);
  std::atomic<int> completions{0};
  constexpr int kSingles = 16;
  for (int i = 0; i < kSingles; ++i) {
    executor.Submit(SingleQuery{{MustParse("mary, john"), {}}},
                    [&completions](Result<search::SearchResponse> r, double) {
                      EXPECT_TRUE(r.ok());
                      completions.fetch_add(1);
                    });
  }
  const BatchResponse batch = executor.Run(SocialBatch());
  EXPECT_EQ(batch.failed, 0);
  // Destruction drains the pool, so by then every callback has run; spin
  // briefly for the counter to settle before asserting.
  for (int spin = 0;
       spin < 1000 &&
       (completions.load() < kSingles || executor.inflight_singles() > 0);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(completions.load(), kSingles);
  EXPECT_EQ(executor.inflight_singles(), 0);
}

TEST(LatencySummaryTest, NearestRankPercentiles) {
  std::vector<double> latencies;
  for (int ms = 1; ms <= 100; ++ms) {
    latencies.push_back(static_cast<double>(ms) / 1000.0);
  }
  const LatencySummary s = SummarizeLatencies(latencies);
  EXPECT_DOUBLE_EQ(s.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(s.p90_ms, 90.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 99.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_NEAR(s.mean_ms, 50.5, 1e-9);
  const LatencySummary empty = SummarizeLatencies({});
  EXPECT_EQ(empty.p50_ms, 0.0);
  EXPECT_EQ(empty.max_ms, 0.0);
}

}  // namespace
}  // namespace tgks::exec
