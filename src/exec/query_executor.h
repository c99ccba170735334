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
// Robustness controls ride on SearchOptions: a per-query wall-clock deadline
// and a batch-wide cooperative cancellation token, both checked at the
// engine's pop boundary (deadline_exceeded / cancelled surface on the
// response instead of a crash or unbounded run).

#ifndef TGKS_EXEC_QUERY_EXECUTOR_H_
#define TGKS_EXEC_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/result.h"
#include "exec/thread_pool.h"
#include "graph/inverted_index.h"
#include "graph/temporal_graph.h"
#include "search/search_engine.h"

namespace tgks::exec {

/// Executor knobs.
struct ExecutorOptions {
  /// Worker threads; <= 0 picks std::thread::hardware_concurrency().
  int threads = 0;
  /// Base engine options for every query in a batch, including the
  /// per-query wall-clock deadline (`search.deadline_ms`). A caller-supplied
  /// `search.cancel` token is honored: the executor's batch token rides in
  /// `search.extra_cancel`, and either token stops a query.
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
/// and cancellation token instead of the batch-wide ones.
struct SingleQuery {
  BatchQuery query;
  /// Result-count override; <= 0 inherits ExecutorOptions::search.k.
  int32_t k = 0;
  /// Bound override; unset inherits ExecutorOptions::search.bound.
  std::optional<search::UpperBoundKind> bound;
  /// Per-request wall-clock deadline in milliseconds; <= 0 inherits
  /// ExecutorOptions::search.deadline_ms.
  int64_t deadline_ms = -1;
  /// Per-request cancellation token (not owned; must outlive the callback).
  /// Rides in SearchOptions::cancel, so it composes with a server-wide
  /// token preset in ExecutorOptions::search.extra_cancel — either one
  /// stops the query.
  const std::atomic<bool>* cancel = nullptr;
  /// Live-serving snapshot binding (docs/ingest.md). When `graph` is set
  /// the query runs on a per-request SearchEngine over this snapshot's
  /// graph + index instead of the executor's build-time pair, with the
  /// delta overlay wired into SearchOptions. `pin` is the RCU epoch hold:
  /// it keeps every pointed-to structure alive until the query — including
  /// its callback — is done, so a publish racing this query retires the old
  /// snapshot only after the last pinned reader drops out.
  struct SnapshotBinding {
    std::shared_ptr<const void> pin;
    const graph::TemporalGraph* graph = nullptr;
    const graph::InvertedIndex* index = nullptr;
    const graph::DeltaOverlay* overlay = nullptr;
  };
  SnapshotBinding snapshot;
};

/// Completion callback for Submit(): invoked exactly once on a worker
/// thread with the response and the query's wall-clock latency.
using SingleQueryCallback =
    std::function<void(Result<search::SearchResponse>, double seconds)>;

/// Runs batches of independent queries concurrently over one shared graph.
///
/// The graph (and index, if given) must outlive the executor. Run() is
/// synchronous and may be called repeatedly; one batch runs at a time,
/// enforced by an internal mutex — concurrent Run() calls from different
/// threads serialize rather than interleave. Submit() is the asynchronous
/// single-query path used by the serving layer: submitted queries share the
/// worker pool with batches (they interleave freely) but are unaffected by
/// batch-wide Cancel().
class QueryExecutor {
 public:
  /// `index` may be null if every BatchQuery carries explicit matches.
  QueryExecutor(const graph::TemporalGraph& graph,
                const graph::InvertedIndex* index, ExecutorOptions options);
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Runs every query of `batch`, blocking until all complete (or stop on
  /// their deadline / the cancellation token).
  BatchResponse Run(const std::vector<BatchQuery>& batch);

  /// Convenience wrapper: index-resolved queries only.
  BatchResponse RunQueries(const std::vector<search::Query>& queries);

  /// Schedules one query on the shared pool and returns immediately; `done`
  /// runs on a worker thread when the query completes (on any stop path).
  /// The per-request deadline overrides the executor default, and the
  /// per-request cancel token is honored alongside any server-wide
  /// `search.extra_cancel` preset in ExecutorOptions. Callable from any
  /// thread, concurrently with Run() and other Submit() calls.
  void Submit(SingleQuery single, SingleQueryCallback done);

  /// Queries submitted through Submit() that have not yet run their
  /// callback. The serving layer's admission control reads this as the
  /// executor-side queue depth.
  int64_t inflight_singles() const {
    return inflight_singles_.load(std::memory_order_relaxed);
  }

  /// Cooperatively cancels the in-flight batch (callable from any thread);
  /// in-flight queries stop at their next pop boundary with `cancelled`
  /// set. Cleared automatically when the next batch starts.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }

  int threads() const { return pool_->num_threads(); }

 private:
  const graph::TemporalGraph* graph_;
  const graph::InvertedIndex* index_;
  ExecutorOptions options_;
  search::SearchEngine engine_;
  std::unique_ptr<ThreadPool> pool_;
  /// Serializes Run(): one batch at a time in the shared pool.
  std::mutex run_mu_;
  std::atomic<bool> cancel_{false};
  std::atomic<int64_t> inflight_singles_{0};
};

/// Computes the latency distribution of `latencies_seconds` (unsorted ok).
LatencySummary SummarizeLatencies(std::vector<double> latencies_seconds);

}  // namespace tgks::exec

#endif  // TGKS_EXEC_QUERY_EXECUTOR_H_
