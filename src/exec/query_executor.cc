#include "exec/query_executor.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/timer.h"
#include "obs/metrics.h"

namespace tgks::exec {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

LatencySummary SummarizeLatencies(std::vector<double> latencies_seconds) {
  LatencySummary summary;
  if (latencies_seconds.empty()) return summary;
  std::sort(latencies_seconds.begin(), latencies_seconds.end());
  double sum = 0.0;
  for (const double s : latencies_seconds) sum += s;
  const double to_ms = 1000.0;
  summary.mean_ms =
      sum / static_cast<double>(latencies_seconds.size()) * to_ms;
  summary.p50_ms = Percentile(latencies_seconds, 50.0) * to_ms;
  summary.p90_ms = Percentile(latencies_seconds, 90.0) * to_ms;
  summary.p99_ms = Percentile(latencies_seconds, 99.0) * to_ms;
  summary.max_ms = latencies_seconds.back() * to_ms;
  return summary;
}

QueryExecutor::QueryExecutor(const graph::TemporalGraph& graph,
                             const graph::InvertedIndex* index,
                             ExecutorOptions options)
    : graph_(&graph),
      index_(index),
      options_(options),
      engine_(graph, index),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(options.threads))) {}

QueryExecutor::~QueryExecutor() = default;

BatchResponse QueryExecutor::Run(const std::vector<BatchQuery>& batch) {
  // Enforce the one-batch-at-a-time contract: concurrent Run() calls would
  // otherwise interleave in the shared pool and race on cancel_'s reset.
  std::lock_guard<std::mutex> run_lock(run_mu_);
  cancel_.store(false, std::memory_order_relaxed);

  search::SearchOptions per_query = options_.search;
  // The batch token rides in the secondary slot so a caller-supplied
  // search.cancel keeps working; either token stops a query.
  per_query.extra_cancel = &cancel_;

  BatchResponse out;
  out.responses.reserve(batch.size());
  out.latencies_seconds.assign(batch.size(), 0.0);
  // Pre-fill the index-aligned slots; workers overwrite their own slot only,
  // so no two threads touch the same element.
  for (size_t i = 0; i < batch.size(); ++i) {
    out.responses.emplace_back(Status::Internal("query not executed"));
  }

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = batch.size();

  Stopwatch wall;
  wall.Start();
  for (size_t i = 0; i < batch.size(); ++i) {
    pool_->Submit([this, &batch, &out, &per_query, &done_mu, &done_cv,
                   &remaining, i] {
      Stopwatch latency;
      latency.Start();
      const BatchQuery& bq = batch[i];
      Result<search::SearchResponse> response =
          bq.matches.empty()
              ? engine_.Search(bq.query, per_query)
              : engine_.SearchWithMatches(bq.query, bq.matches, per_query);
      latency.Stop();
      out.latencies_seconds[i] = latency.seconds();
      out.responses[i] = std::move(response);
      // Notify while still holding done_mu: the waiter can only destroy the
      // cv after reacquiring the mutex with remaining == 0, which orders the
      // destruction after every worker's notify. Notifying after unlock
      // would let the last two workers race Run()'s return and touch a
      // destroyed cv.
      {
        std::lock_guard<std::mutex> lock(done_mu);
        --remaining;
        done_cv.notify_one();
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
  }
  wall.Stop();
  out.wall_seconds = wall.seconds();

  for (const auto& response : out.responses) {
    if (!response.ok()) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    out.totals.Merge(response->counters);
    out.stats.Merge(response->stats);
    if (response->truncated) ++out.truncated;
    if (response->deadline_exceeded) ++out.deadline_exceeded;
    if (response->cancelled) ++out.cancelled;
  }
  out.latency = SummarizeLatencies(out.latencies_seconds);
  {
    // Batch-level instruments: per-query wall latency and batch size.
    static obs::Histogram* latency_micros =
        obs::GlobalMetrics().GetHistogram(
            "tgks_batch_query_latency_micros",
            "Per-query wall-clock latency inside batches (microseconds).");
    static obs::Counter* batches = obs::GlobalMetrics().GetCounter(
        "tgks_batches_total", "Executor batches completed.");
    static obs::Counter* batch_queries = obs::GlobalMetrics().GetCounter(
        "tgks_batch_queries_total", "Queries submitted through batches.");
    for (const double seconds : out.latencies_seconds) {
      latency_micros->Observe(std::llround(seconds * 1e6));
    }
    batches->Increment();
    batch_queries->Increment(static_cast<int64_t>(out.responses.size()));
  }
  return out;
}

void QueryExecutor::Submit(SingleQuery single, SingleQueryCallback done) {
  inflight_singles_.fetch_add(1, std::memory_order_relaxed);
  // The per-query options derive from the executor's base search options:
  // a preset extra_cancel (e.g. the server's shutdown token) is preserved,
  // the request's own token rides in the primary slot, and the request
  // deadline wins over the executor default when set.
  search::SearchOptions options = options_.search;
  if (single.k > 0) options.k = single.k;
  if (single.bound.has_value()) options.bound = *single.bound;
  if (single.deadline_ms > 0) options.deadline_ms = single.deadline_ms;
  options.cancel = single.cancel;
  if (single.snapshot.graph != nullptr) {
    // Live snapshot: its overlay replaces the executor-wide default.
    options.overlay = single.snapshot.overlay;
  }
  pool_->Submit([this, single = std::move(single), options,
                 done = std::move(done)]() mutable {
    Stopwatch latency;
    latency.Start();
    // A snapshot-bound query runs on a throwaway engine over the pinned
    // graph + index; SearchEngine is two pointers, so this costs nothing
    // and keeps the executor's build-time engine untouched.
    const auto run = [&](const search::SearchEngine& engine) {
      return single.query.matches.empty()
                 ? engine.Search(single.query.query, options)
                 : engine.SearchWithMatches(single.query.query,
                                            single.query.matches, options);
    };
    Result<search::SearchResponse> response =
        single.snapshot.graph != nullptr
            ? run(search::SearchEngine(*single.snapshot.graph,
                                       single.snapshot.index))
            : run(engine_);
    latency.Stop();
    {
      static obs::Counter* singles = obs::GlobalMetrics().GetCounter(
          "tgks_single_queries_total",
          "Queries submitted through the single-query path.");
      static obs::Histogram* latency_micros = obs::GlobalMetrics().GetHistogram(
          "tgks_single_query_latency_micros",
          "Single-query wall-clock latency (microseconds).");
      singles->Increment();
      latency_micros->Observe(std::llround(latency.seconds() * 1e6));
    }
    // Decrement before the callback: a caller woken by it must not still
    // count this query as in flight.
    inflight_singles_.fetch_sub(1, std::memory_order_relaxed);
    done(std::move(response), latency.seconds());
  });
}

BatchResponse QueryExecutor::RunQueries(
    const std::vector<search::Query>& queries) {
  std::vector<BatchQuery> batch;
  batch.reserve(queries.size());
  for (const search::Query& q : queries) batch.push_back(BatchQuery{q, {}});
  return Run(batch);
}

}  // namespace tgks::exec
