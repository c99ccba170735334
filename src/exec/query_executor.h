// QueryExecutor: concurrent batch execution of independent queries over one
// shared TemporalGraph + InvertedIndex.
//
// The engine side makes this safe by construction: the graph and inverted
// index are immutable after build and SearchEngine is stateless across
// Search() calls, so queries fan out over shared read-only structures with
// no synchronization beyond the work queue (the same read-only-index model
// concurrent temporal-graph traversal systems use). Results are written into
// index-aligned slots, so a batch's output — and each individual
// SearchResponse — is bit-identical to running the same queries
// sequentially, regardless of thread count or scheduling order.
//
// Every query, batched or not, runs through Submit(); Run() is a loop of
// Submit() calls that waits for the last callback. Robustness controls ride
// on SearchOptions: a per-query wall-clock deadline and cooperative
// cancellation tokens, checked at the engine's pop boundary
// (the response's stop reason says so instead of a crash or an unbounded
// run).

#ifndef TGKS_EXEC_QUERY_EXECUTOR_H_
#define TGKS_EXEC_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "exec/thread_pool.h"
#include "graph/graph_view.h"
#include "graph/inverted_index.h"
#include "graph/temporal_graph.h"
#include "search/search_engine.h"

namespace tgks::exec {

/// Executor knobs.
struct ExecutorOptions {
  /// Worker threads; <= 0 picks std::thread::hardware_concurrency().
  int threads = 0;
  /// Base engine options for every query, including the per-query
  /// wall-clock deadline (`search.deadline_ms`). A caller-supplied
  /// `search.cancel` token stops every query that brings no token of its
  /// own.
  search::SearchOptions search;
};

/// One query of a batch: keywords resolve through the inverted index unless
/// explicit per-keyword match lists are supplied (the paper's protocol for
/// unlabeled graphs).
struct BatchQuery {
  search::Query query;
  /// When non-empty, passed to SearchWithMatches (one list per keyword).
  std::vector<std::vector<graph::NodeId>> matches;
};

/// Latency distribution of a batch, in milliseconds per query.
struct LatencySummary {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Outcome of one batch.
struct BatchResponse {
  /// Index-aligned with the submitted batch.
  std::vector<Result<search::SearchResponse>> responses;
  /// Per-query wall-clock latencies, index-aligned (seconds).
  std::vector<double> latencies_seconds;
  /// Counters summed over the ok() responses (SearchCounters::Merge).
  /// Render with obs::FieldsToString(totals, /*merged=*/true).
  search::SearchCounters totals;
  /// Observability profiles merged over the ok() responses (sums, except
  /// heap_high_water which takes the batch max).
  obs::SearchStats stats;
  LatencySummary latency;
  /// Wall-clock time for the whole batch (submission to last completion).
  double wall_seconds = 0.0;
  int64_t completed = 0;          ///< ok() responses.
  int64_t failed = 0;             ///< Error-status responses.
  int64_t deadline_exceeded = 0;  ///< Responses stopped by the deadline.
  int64_t cancelled = 0;          ///< Responses stopped by cancellation.
  int64_t truncated = 0;          ///< Responses with any safety valve fired.

  double QueriesPerSecond() const {
    return wall_seconds > 0
               ? static_cast<double>(responses.size()) / wall_seconds
               : 0.0;
  }
};

/// One independently submitted query (the serving path): its own deadline
/// and cancellation token instead of the executor-wide ones.
struct SingleQuery {
  BatchQuery query;
  /// Result-count override; <= 0 inherits ExecutorOptions::search.k.
  int32_t k = 0;
  /// Bound override; unset inherits ExecutorOptions::search.bound.
  std::optional<search::UpperBoundKind> bound;
  /// Per-request wall-clock deadline in milliseconds; <= 0 inherits
  /// ExecutorOptions::search.deadline_ms.
  int64_t deadline_ms = -1;
  /// Per-request cancellation token (not owned; must outlive the callback);
  /// null inherits ExecutorOptions::search.cancel.
  const std::atomic<bool>* cancel = nullptr;
  /// Sets SearchOptions::report_expanded_nodes: the response lists the
  /// nodes the query expanded (the result cache's read set).
  bool report_expanded_nodes = false;
  /// Live-serving snapshot binding (docs/ingest.md). When `view` is set
  /// the query runs on a per-request SearchEngine over this snapshot's
  /// view (base + delta) and index instead of the executor's build-time
  /// pair. `pin` is the RCU epoch hold: it keeps every pointed-to
  /// structure alive until the query — including its callback — is done,
  /// so a publish racing this query retires the old snapshot only after
  /// the last pinned reader drops out.
  struct SnapshotBinding {
    std::shared_ptr<const void> pin;
    std::optional<graph::GraphView> view;
    const graph::InvertedIndex* index = nullptr;
  };
  SnapshotBinding snapshot;
};

/// Completion callback for Submit(): invoked exactly once on a worker
/// thread with the response and the query's wall-clock latency.
using SingleQueryCallback =
    std::function<void(Result<search::SearchResponse>, double seconds)>;

/// Runs independent queries concurrently over one shared graph.
///
/// The graph (and index, if given) must outlive the executor. Submit() is
/// the asynchronous single-query path, and the only place a query runs.
/// Run() submits a whole batch and blocks until it completes; it may be
/// called repeatedly and from several threads at once, and its queries
/// interleave freely in the shared pool with other batches and Submit()s.
class QueryExecutor {
 public:
  /// `index` may be null if every BatchQuery carries explicit matches.
  QueryExecutor(const graph::TemporalGraph& graph,
                const graph::InvertedIndex* index, ExecutorOptions options);
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Submits every query of `batch` and blocks until all complete (or stop
  /// on their deadline / a cancellation token).
  BatchResponse Run(const std::vector<BatchQuery>& batch);

  /// Schedules one query on the shared pool and returns immediately; `done`
  /// runs on a worker thread when the query completes (on any stop path).
  /// The per-request deadline and cancel token override the executor
  /// defaults. Callable from any thread, concurrently with Run() and other
  /// Submit() calls.
  void Submit(SingleQuery single, SingleQueryCallback done);

  /// Queries submitted (by Submit() or Run()) that have not yet run their
  /// callback. The serving layer's admission control reads this as the
  /// executor-side queue depth.
  int64_t inflight_singles() const {
    return inflight_singles_.load(std::memory_order_relaxed);
  }

  int threads() const { return pool_->num_threads(); }

 private:
  ExecutorOptions options_;
  search::SearchEngine engine_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<int64_t> inflight_singles_{0};
};

/// Computes the latency distribution of `latencies_seconds` (unsorted ok).
LatencySummary SummarizeLatencies(std::vector<double> latencies_seconds);

}  // namespace tgks::exec

#endif  // TGKS_EXEC_QUERY_EXECUTOR_H_
