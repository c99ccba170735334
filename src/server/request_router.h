// RequestRouter: maps parsed HTTP requests onto the search stack.
//
//   POST /v1/search  JSON query in, JSON results out (through the result
//                    cache when configured, then admission control and the
//                    executor's asynchronous Submit path)
//   POST /v1/ingest  live mode only (docs/ingest.md): appends a batch of
//                    nodes/edges and publishes a new graph snapshot
//   POST /v1/compact live mode only: synchronously folds the delta into a
//                    rebuilt base graph
//   POST /v1/cache/invalidate  epoch invalidation hook: clears the result
//                    cache and bumps its generation
//   GET  /metrics    Prometheus text exposition of the global registry
//   GET  /healthz    liveness/readiness probe (503 while draining)
//   GET  /varz       JSON snapshot of server state for humans and tests
//
// With RouterContext::result_cache set, cacheable searches (stats off, no
// per-request "cache": false) are served in three tiers (docs/caching.md):
// a fingerprint hit returns the stored body immediately (x-cache: hit,
// bypassing admission); concurrent identical requests on the same snapshot
// coalesce onto one in-flight search (x-cache: coalesced); otherwise the
// request runs and a complete 200 response is inserted before followers
// are released (x-cache: miss). On a live graph each inserted body carries
// its search's read set, and a hit may come from an entry stored on an
// earlier snapshot that no publish since has touched. Cache-filling
// searches are decoupled from the client: their cancel handle is marked
// shared, so shared work runs to completion even if the initiating client
// goes away, and only shutdown cancels it.
//
// The router owns no sockets: the connection layer hands it a complete
// HttpRequest and either gets the response synchronously (metrics, health,
// errors, shed requests) or a deferred completion via callback when the
// query was admitted and submitted to the executor. The cancel handle of
// every admitted search is returned, so the server holds every search it
// started: it cancels one whose client disconnects mid-flight (unless the
// handle is shared) and all of them when its drain times out.
//
// BeginDrain() starts the server's graceful shutdown on the router's side:
// /healthz turns 503, /varz reports "draining": true, and from then on
// every request that needs admission (a search that would run, an ingest
// batch) sheds with 503, so no search starts that the server does not
// already hold.

#ifndef TGKS_SERVER_REQUEST_ROUTER_H_
#define TGKS_SERVER_REQUEST_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "cache/single_flight.h"
#include "exec/query_executor.h"
#include "search/query_parser.h"
#include "search/search_engine.h"
#include "server/admission.h"
#include "server/connection.h"

namespace tgks::ingest {
class LiveGraph;           // ingest/live_graph.h
struct IngestErrorDetail;  // ingest/ingest_batch.h
}  // namespace tgks::ingest

namespace tgks::server {

/// Everything the router needs; all pointers are borrowed and must outlive
/// the router.
struct RouterContext {
  const graph::TemporalGraph* graph = nullptr;
  exec::QueryExecutor* executor = nullptr;
  /// Required: every search and ingest batch is admitted through it, and
  /// BeginDrain() puts it in shutdown mode.
  AdmissionController* admission = nullptr;
  /// Defaults for fields the request body omits.
  int32_t default_k = 20;
  /// Ceiling for the request's `k` (guards against "k": 1e9 bodies).
  int32_t max_k = 1000;
  /// Deadline applied when the request carries no deadline-ms header
  /// (<= 0 = none).
  int64_t default_deadline_ms = -1;
  /// Ceiling for the deadline-ms header (<= 0 = uncapped).
  int64_t max_deadline_ms = 60 * 1000;
  /// Human-readable dataset name reported by /varz.
  std::string dataset_name;
  /// Optional serving-layer result cache (docs/caching.md; not owned).
  /// Null = caching off: every search runs, no x-cache header.
  cache::ResultCache* result_cache = nullptr;
  /// Optional live-graph publication layer (docs/ingest.md; not owned).
  /// Null = static serving: /v1/ingest and /v1/compact answer 404, searches
  /// run against `graph` directly. Non-null = every search pins one
  /// snapshot at admission and runs against it.
  ingest::LiveGraph* live = nullptr;
  /// Ceiling for /v1/ingest request bodies; larger bodies get 413 before
  /// any parsing.
  int64_t max_ingest_bytes = 4 * 1024 * 1024;
};

/// A deferred search in flight: the server keeps the handle until the
/// completion arrives, to cancel the query if the client goes away or the
/// drain times out. The handle owns the token the executor reads, so it
/// must live until the completion callback has run.
struct PendingSearch {
  std::atomic<bool> cancel{false};
  /// The search fills the result cache: its answer also goes to the cache
  /// and to coalesced followers, so a disconnect must not cancel it.
  bool shared = false;
};

class RequestRouter {
 public:
  explicit RequestRouter(RouterContext context);

  /// Completion for deferred requests; invoked once on an executor worker
  /// thread.
  using Completion = std::function<void(HttpResponse)>;

  /// Routes `request`. Returns true when *immediate holds the full response
  /// (no deferred work). Returns false when the request is deferred: `done`
  /// will be called exactly once later, and *pending holds the admitted
  /// search's cancel handle (null for a request coalesced onto another's
  /// search).
  bool Handle(const HttpRequest& request, HttpResponse* immediate,
              Completion done, std::shared_ptr<PendingSearch>* pending);

  /// Starts draining (see the header comment) and puts the admission
  /// controller in shutdown mode. Idempotent; callable from any thread.
  void BeginDrain();

  /// Requests handled so far, by final status class (for /varz and tests).
  int64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }

 private:
  HttpResponse HandleMetrics() const;
  HttpResponse HandleHealthz() const;
  HttpResponse HandleVarz() const;
  /// POST /v1/cache/invalidate: ResultCache::InvalidateAll.
  HttpResponse HandleCacheInvalidate() const;
  /// POST /v1/ingest: validate + apply one batch, publish a new snapshot.
  HttpResponse HandleIngest(const HttpRequest& request) const;
  /// POST /v1/compact: synchronously fold the delta into the base.
  HttpResponse HandleCompact() const;
  /// Parses + admits + submits; fills *immediate on any synchronous outcome.
  bool HandleSearch(const HttpRequest& request, HttpResponse* immediate,
                    Completion done, std::shared_ptr<PendingSearch>* pending);

  /// Counts the request in tgks_http_requests_total{route,status} and the
  /// per-route latency histogram.
  void CountRequest(const std::string& route, int status) const;
  /// Counts one coalesced request in tgks_cache_coalesced_total.
  void CountCoalesced() const;

  /// Admits a search or ingest batch of `bytes`: the admission
  /// controller's verdict.
  bool Admit(int64_t bytes, ShedReason* why) const;
  /// 503 "draining" (closing the connection) or 429 with Retry-After.
  HttpResponse ShedResponse(ShedReason shed) const;

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  RouterContext context_;
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> requests_total_{0};
  /// Coalesces concurrent identical cacheable searches (keyed by the result
  /// cache fingerprint plus, on a live graph, the pinned generation); unused
  /// when result_cache is null.
  cache::SingleFlight<Completion> flights_;
};

/// Renders a JSON error body: {"error":{"type":...,"message":...,...}}.
std::string JsonErrorBody(std::string_view type, std::string_view message);

/// Renders the JSON body for a structured query parse error (the HTTP 400
/// mapping of search::ParseErrorDetail).
std::string JsonParseErrorBody(const search::ParseErrorDetail& detail);

/// Renders the JSON body for a structured ingest validation error (the
/// HTTP 400 mapping of ingest::IngestErrorDetail): {"error":{"type":
/// "ingest-validate","code":...,"field":...,"offset":...,"message":...}}.
std::string JsonIngestErrorBody(const ingest::IngestErrorDetail& detail);

/// The result-cache read set of one search (docs/caching.md, "Read
/// sets"): the nodes it expanded with their slack and, for a keyword query
/// (no explicit match lists), its keywords folded as the inverted index
/// folds them.
cache::ReadSet SearchReadSet(const exec::BatchQuery& query,
                             std::vector<graph::NodeId> expanded_nodes,
                             std::vector<double> expanded_slack);

/// Renders a SearchResponse as the /v1/search response body.
/// `include_stats` gates the counters/stats/latency sections so default
/// responses stay byte-stable for golden tests.
std::string JsonSearchBody(const search::SearchResponse& response,
                           double latency_seconds, bool include_stats);

}  // namespace tgks::server

#endif  // TGKS_SERVER_REQUEST_ROUTER_H_
