#include "exec/query_executor.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <latch>
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
    : options_(options),
      engine_(graph, index),
      pool_(std::make_unique<ThreadPool>(ResolveThreads(options.threads))) {}

QueryExecutor::~QueryExecutor() = default;

BatchResponse QueryExecutor::Run(const std::vector<BatchQuery>& batch) {
  BatchResponse out;
  out.responses.reserve(batch.size());
  out.latencies_seconds.assign(batch.size(), 0.0);
  // Pre-fill the index-aligned slots; each callback overwrites its own slot
  // only, so no two threads touch the same element.
  for (size_t i = 0; i < batch.size(); ++i) {
    out.responses.emplace_back(Status::Internal("query not executed"));
  }

  std::latch remaining(static_cast<std::ptrdiff_t>(batch.size()));
  Stopwatch wall;
  wall.Start();
  for (size_t i = 0; i < batch.size(); ++i) {
    SingleQuery single;
    single.query = batch[i];
    Submit(std::move(single),
           [&out, &remaining, i](Result<search::SearchResponse> response,
                                 double seconds) {
             out.responses[i] = std::move(response);
             out.latencies_seconds[i] = seconds;
             remaining.count_down();
           });
  }
  remaining.wait();
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
    if (response->deadline_exceeded()) ++out.deadline_exceeded;
    if (response->cancelled()) ++out.cancelled;
  }
  out.latency = SummarizeLatencies(out.latencies_seconds);
  return out;
}

void QueryExecutor::Submit(SingleQuery single, SingleQueryCallback done) {
  inflight_singles_.fetch_add(1, std::memory_order_relaxed);
  // The per-query options derive from the executor's base search options;
  // the request's own token, deadline, k and bound win when it sets them.
  search::SearchOptions options = options_.search;
  if (single.k > 0) options.k = single.k;
  if (single.bound.has_value()) options.bound = *single.bound;
  if (single.deadline_ms > 0) options.deadline_ms = single.deadline_ms;
  if (single.cancel != nullptr) options.cancel = single.cancel;
  options.report_expanded_nodes |= single.report_expanded_nodes;
  pool_->Submit([this, single = std::move(single), options,
                 done = std::move(done)]() mutable {
    Stopwatch latency;
    latency.Start();
    // A snapshot-bound query runs on a throwaway engine over the pinned
    // view + index; SearchEngine is three pointers, so this costs nothing
    // and keeps the executor's build-time engine untouched.
    const auto run = [&](const search::SearchEngine& engine) {
      return single.query.matches.empty()
                 ? engine.Search(single.query.query, options)
                 : engine.SearchWithMatches(single.query.query,
                                            single.query.matches, options);
    };
    Result<search::SearchResponse> response =
        single.snapshot.view.has_value()
            ? run(search::SearchEngine(*single.snapshot.view,
                                       single.snapshot.index))
            : run(engine_);
    latency.Stop();
    {
      static obs::Counter* singles = obs::GlobalMetrics().GetCounter(
          "tgks_single_queries_total",
          "Queries run by the executor (Submit and Run).");
      static obs::Histogram* latency_micros = obs::GlobalMetrics().GetHistogram(
          "tgks_single_query_latency_micros",
          "Per-query wall-clock latency in the executor (microseconds).");
      singles->Increment();
      latency_micros->Observe(std::llround(latency.seconds() * 1e6));
    }
    // Decrement before the callback: a caller woken by it must not still
    // count this query as in flight.
    inflight_singles_.fetch_sub(1, std::memory_order_relaxed);
    done(std::move(response), latency.seconds());
  });
}

}  // namespace tgks::exec
