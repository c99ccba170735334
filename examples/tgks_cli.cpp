// tgks_cli: run temporal keyword queries against a .tgf graph file.
//
//   tgks_cli GRAPH.tgf [options] "QUERY"
//   tgks_cli --demo [options] "QUERY"       (built-in Fig.-1 social graph)
//   tgks_cli --demo [options] --batch FILE  (one query per line)
//   tgks_cli (GRAPH.tgf | --dataset NAME) --serve [--port N]
//
// Options:
//   --k N            top-k (default 10; 0 = all results)
//   --bound KIND     accurate | empirical | average (default empirical)
//   --stats          print the work counters, the phase times and the
//                    prunes / interval_ops / heap_high_water profile
//   --trace          record and print the iterator event trace (single
//                    query only)
//   --metrics        print the process metrics registry (Prometheus text)
//   --deadline-ms N  per-query wall-clock budget (default: none)
//   --batch FILE     run every query in FILE concurrently ('#' = comment)
//   --threads N      worker threads for --batch / --serve (default: hardware)
//
// Numeric values must be whole decimal integers that fit the flag's type;
// anything else is a usage error.
//
// Serving options (see docs/serving.md):
//   --serve                 run the HTTP server instead of a query
//   --dataset NAME          serve the benchmark dataset dblp or social
//                           (generated in-process with the bench seeds, so
//                           perfbench's match sets line up)
//   --host ADDR             bind address (default 127.0.0.1)
//   --port N                TCP port (default 8080; 0 = ephemeral)
//   --max-queue N           admitted search requests in flight (default 64)
//   --max-inflight-bytes N  admitted request-body bytes (default 8 MiB)
//   --drain-timeout-ms N    graceful-shutdown grace period (default 5000)
//   --cache                 enable the result cache (docs/caching.md).
//                           Results are bit-identical with or without it;
//                           HTTP clients can bypass it per request via the
//                           "cache" JSON field
//   --cache-result-bytes N  result cache byte budget (default 64 MiB)
//
// Live-ingest options (see docs/ingest.md; all require --serve):
//   --live                  accept POST /v1/ingest and /v1/compact: the
//                           graph becomes a sequence of immutable snapshots
//                           each search pins at admission
//   --max-ingest-bytes N    /v1/ingest body ceiling, 413 above (default 4 MiB)
//   --compact-bytes N       fold the delta once it reaches N approximate
//                           bytes (default 8 MiB)
//   --compact-age-ms N      fold the delta once its oldest publish is this
//                           old (default 30000; <= 0 disables the age
//                           trigger)
//
// Examples:
//   tgks_cli --demo "Mary, John"
//   tgks_cli --demo --k 3 "Mary, John rank by ascending order of result
//                          start time"
//   tgks_cli archive.tgf --bound accurate "GenBank, Blast result time
//                          meets 7"
//   tgks_cli archive.tgf --threads 8 --deadline-ms 50 --batch queries.txt
//   tgks_cli --dataset dblp --serve --port 8080 --max-queue 32

#include <signal.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cache/result_cache.h"
#include "examples/example_util.h"
#include "exec/query_executor.h"
#include "obs/metrics.h"
#include "obs/query_trace.h"
#include "obs/search_stats.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "graph/serialization.h"
#include "ingest/live_graph.h"
#include "search/query_parser.h"
#include "search/search_engine.h"
#include "server/http_server.h"
#include "server/request_router.h"

namespace {

using tgks::examples::ParseFlag;
using tgks::graph::GraphBuilder;
using tgks::graph::NodeId;
using tgks::graph::TemporalGraph;
using tgks::temporal::IntervalSet;

TemporalGraph DemoGraph() {
  GraphBuilder b(8);
  const NodeId mary = b.AddNode("Mary", IntervalSet{{0, 7}});
  const NodeId john = b.AddNode("John", IntervalSet{{0, 7}});
  const NodeId bob = b.AddNode("Bob", IntervalSet{{2, 7}});
  const NodeId ross = b.AddNode("Ross", IntervalSet{{5, 7}});
  const NodeId mike = b.AddNode("Mike", IntervalSet{{2, 5}});
  const NodeId jim = b.AddNode("Jim", IntervalSet{{3, 6}});
  const NodeId microsoft = b.AddNode("Microsoft", IntervalSet{{0, 7}});
  auto both = [&b](NodeId u, NodeId v, IntervalSet when) {
    b.AddEdge(u, v, when);
    b.AddEdge(v, u, std::move(when));
  };
  both(mary, bob, IntervalSet{{2, 7}});
  both(bob, ross, IntervalSet{{5, 7}});
  both(ross, john, IntervalSet{{6, 7}});
  both(bob, mike, IntervalSet{{2, 5}});
  both(mike, jim, IntervalSet{{3, 4}});
  both(jim, john, IntervalSet{{4, 6}});
  both(mary, microsoft, IntervalSet{{0, 2}});
  both(microsoft, john, IntervalSet{{5, 7}});
  return std::move(b.Build()).value();
}

int Usage() {
  std::cerr
      << "usage: tgks_cli (GRAPH.tgf | --demo) [--k N] [--bound KIND] "
         "[--stats] [--trace] [--metrics] [--deadline-ms N] "
         "(\"QUERY\" | --batch FILE [--threads N])\n"
         "       tgks_cli (GRAPH.tgf | --dataset dblp|social) --serve "
         "[--host ADDR] [--port N] [--threads N] [--max-queue N] "
         "[--max-inflight-bytes N] [--deadline-ms N] [--drain-timeout-ms N] "
         "[--cache] [--live [--max-ingest-bytes N] [--compact-bytes N] "
         "[--compact-age-ms N]]\n";
  return 2;
}

/// SIGTERM/SIGINT request graceful shutdown of --serve.
volatile sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int RunServe(const tgks::graph::TemporalGraph& graph,
             const tgks::graph::InvertedIndex& index,
             const std::string& dataset_name,
             const tgks::search::SearchOptions& search_options, int threads,
             int64_t deadline_ms, const std::string& host, int port,
             int64_t max_queue, int64_t max_inflight_bytes,
             int64_t drain_timeout_ms, bool cache_enabled,
             int64_t cache_result_bytes, tgks::ingest::LiveGraph* live,
             int64_t max_ingest_bytes) {
  tgks::exec::ExecutorOptions exec_options;
  exec_options.threads = threads;
  exec_options.search = search_options;
  tgks::exec::QueryExecutor executor(graph, &index, exec_options);

  tgks::server::AdmissionOptions admission_options;
  admission_options.max_queue = max_queue;
  admission_options.max_inflight_bytes = max_inflight_bytes;
  tgks::server::AdmissionController admission(admission_options);

  // --cache: the result cache is created here so its lifetime brackets the
  // router's.
  std::unique_ptr<tgks::cache::ResultCache> result_cache;
  if (cache_enabled) {
    result_cache =
        std::make_unique<tgks::cache::ResultCache>(cache_result_bytes);
  }

  // Live mode: every publish logs its change set in the result cache,
  // which drops a cached answer only once a publish touches what its search
  // read, so a hit never surfaces an answer the pinned snapshot would not
  // give (docs/caching.md, "Read sets").
  if (live != nullptr && result_cache != nullptr) {
    tgks::cache::ResultCache* rc = result_cache.get();
    live->set_on_publish([rc](uint64_t generation,
                              tgks::cache::ReadSet changes) {
      rc->Publish(generation, std::move(changes));
    });
  }

  tgks::server::RouterContext context;
  context.graph = &graph;
  context.executor = &executor;
  context.admission = &admission;
  context.default_k = search_options.k;
  context.default_deadline_ms = deadline_ms;
  context.dataset_name = dataset_name;
  context.result_cache = result_cache.get();
  context.live = live;
  context.max_ingest_bytes = max_ingest_bytes;
  tgks::server::RequestRouter router(context);

  tgks::server::HttpServerOptions server_options;
  server_options.bind_address = host;
  server_options.port = port;
  server_options.drain_timeout_ms = static_cast<int>(drain_timeout_ms);
  tgks::server::HttpServer server(&router, server_options);

  const tgks::Status status = server.Start();
  if (!status.ok()) {
    std::cerr << "cannot serve: " << status << "\n";
    return 1;
  }

  struct sigaction action {};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  std::cout << "serving " << dataset_name << " ("
            << graph.num_nodes() << " nodes, " << graph.num_edges()
            << " edges) on http://" << host << ":" << server.port() << "\n"
            << (live != nullptr
                    ? "endpoints: POST /v1/search /v1/ingest /v1/compact  "
                      "GET /metrics /healthz /varz\n"
                    : "endpoints: POST /v1/search  GET /metrics /healthz "
                      "/varz\n")
            << "threads " << executor.threads() << "  max-queue " << max_queue
            << "  max-inflight-bytes " << max_inflight_bytes << "  cache "
            << (cache_enabled ? "on" : "off") << "  live "
            << (live != nullptr ? "on" : "off") << "\n"
            << std::flush;

  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "shutdown requested; draining up to " << drain_timeout_ms
            << " ms\n";
  server.Shutdown();
  std::cout << "served " << router.requests_total() << " requests, shed "
            << admission.shed_total() << "\n";
  return 0;
}

// Reads one query per line; blank lines and '#' comments are skipped.
bool LoadBatchFile(const std::string& path, std::vector<std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const size_t last = line.find_last_not_of(" \t\r");
    out->push_back(line.substr(first, last - first + 1));
  }
  return true;
}

int RunBatch(const tgks::graph::TemporalGraph& graph,
             const tgks::graph::InvertedIndex& index,
             const std::vector<std::string>& lines,
             const tgks::search::SearchOptions& options, int threads,
             int64_t deadline_ms, bool stats, bool metrics) {
  std::vector<tgks::exec::BatchQuery> batch;
  batch.reserve(lines.size());
  for (const std::string& text : lines) {
    auto query = tgks::search::ParseQuery(text);
    if (!query.ok()) {
      std::cerr << "query error in '" << text << "': " << query.status()
                << "\n";
      return 1;
    }
    batch.push_back(tgks::exec::BatchQuery{*std::move(query), {}});
  }

  tgks::exec::ExecutorOptions exec_options;
  exec_options.threads = threads;
  exec_options.search = options;
  exec_options.search.deadline_ms = deadline_ms;
  tgks::exec::QueryExecutor executor(graph, &index, exec_options);
  const tgks::exec::BatchResponse response = executor.Run(batch);

  for (size_t i = 0; i < batch.size(); ++i) {
    const auto& r = response.responses[i];
    std::cout << "[" << i << "] " << lines[i] << "\n    ";
    if (!r.ok()) {
      std::cout << "error: " << r.status() << "\n";
      continue;
    }
    std::cout << r->results.size() << " results in "
              << response.latencies_seconds[i] * 1000.0 << " ms ("
              << tgks::search::StopReasonName(r->stop_reason) << ")\n";
  }
  std::cout << "\nbatch: " << response.completed << " ok, " << response.failed
            << " failed, " << response.deadline_exceeded << " past deadline, "
            << response.truncated << " truncated\n"
            << "threads " << executor.threads() << "  wall "
            << response.wall_seconds * 1000.0 << " ms  qps "
            << response.QueriesPerSecond() << "\n"
            << "latency ms: mean " << response.latency.mean_ms << "  p50 "
            << response.latency.p50_ms << "  p90 " << response.latency.p90_ms
            << "  p99 " << response.latency.p99_ms << "  max "
            << response.latency.max_ms << "\n";
  if (stats) {
    std::cout << "  ["
              << tgks::obs::FieldsToString(response.totals, /*merged=*/true)
              << "]\n";
    std::cout << "  batch stats: " << response.stats.ToString() << "\n";
  }
  if (metrics) std::cout << tgks::obs::GlobalMetrics().RenderText();
  return response.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path;
  bool demo = false, stats = false, trace = false, metrics = false;
  bool serve = false;
  tgks::search::SearchOptions options;
  options.k = 10;
  std::string query_text;
  std::string batch_path;
  std::string dataset_name;
  std::string host = "127.0.0.1";
  int threads = 0;
  int port = 8080;
  int64_t deadline_ms = -1;
  int64_t max_queue = 64;
  int64_t max_inflight_bytes = 8 * 1024 * 1024;
  int64_t drain_timeout_ms = 5000;
  bool cache_enabled = false;
  int64_t cache_result_bytes = int64_t{64} << 20;
  bool live_enabled = false;
  int64_t max_ingest_bytes = int64_t{4} << 20;
  tgks::ingest::CompactionPolicy compaction_policy;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--k" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &options.k)) return Usage();
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &threads)) return Usage();
    } else if (arg == "--cache") {
      cache_enabled = true;
    } else if (arg == "--cache-result-bytes" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &cache_result_bytes)) return Usage();
    } else if (arg == "--live") {
      live_enabled = true;
    } else if (arg == "--max-ingest-bytes" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &max_ingest_bytes)) return Usage();
    } else if (arg == "--compact-bytes" && i + 1 < argc) {
      int64_t bytes = 0;
      if (!ParseFlag(arg, argv[++i], &bytes)) return Usage();
      compaction_policy.max_delta_bytes = static_cast<size_t>(bytes);
    } else if (arg == "--compact-age-ms" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &compaction_policy.max_delta_age_ms)) {
        return Usage();
      }
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &deadline_ms)) return Usage();
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_path = argv[++i];
    } else if (arg == "--dataset" && i + 1 < argc) {
      dataset_name = argv[++i];
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &port)) return Usage();
    } else if (arg == "--max-queue" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &max_queue)) return Usage();
    } else if (arg == "--max-inflight-bytes" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &max_inflight_bytes)) return Usage();
    } else if (arg == "--drain-timeout-ms" && i + 1 < argc) {
      if (!ParseFlag(arg, argv[++i], &drain_timeout_ms)) return Usage();
    } else if (arg == "--bound" && i + 1 < argc) {
      const std::string kind = argv[++i];
      if (kind == "accurate") {
        options.bound = tgks::search::UpperBoundKind::kAccurate;
      } else if (kind == "empirical") {
        options.bound = tgks::search::UpperBoundKind::kEmpirical;
      } else if (kind == "average") {
        options.bound = tgks::search::UpperBoundKind::kAverage;
      } else {
        std::cerr << "unknown bound '" << kind << "'\n";
        return Usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (graph_path.empty() && !demo && query_text.empty()) {
      graph_path = arg;
    } else if (query_text.empty()) {
      query_text = arg;
    } else {
      return Usage();
    }
  }
  if (query_text.empty() && !graph_path.empty() && demo) {
    query_text = graph_path;  // --demo consumed the positional slot.
    graph_path.clear();
  }
  if (!dataset_name.empty() && dataset_name != "dblp" &&
      dataset_name != "social") {
    std::cerr << "unknown dataset '" << dataset_name
              << "' (expected dblp or social)\n";
    return Usage();
  }
  const bool has_graph_source =
      !graph_path.empty() || demo || !dataset_name.empty();
  const bool batch_mode = !batch_path.empty();
  if (serve) {
    if (!query_text.empty() || batch_mode || trace || !has_graph_source) {
      return Usage();
    }
  } else if (live_enabled || cache_enabled) {
    std::cerr << (live_enabled ? "--live" : "--cache") << " requires --serve\n";
    return Usage();
  } else if (batch_mode) {
    if (!query_text.empty() || !has_graph_source) return Usage();
    if (trace) {
      std::cerr << "--trace needs a single query (one trace per query)\n";
      return Usage();
    }
  } else if (query_text.empty() || !has_graph_source) {
    return Usage();
  }

  TemporalGraph graph;
  if (dataset_name == "dblp") {
    graph = tgks::bench::MakeDblp().graph;
  } else if (dataset_name == "social") {
    graph = tgks::bench::MakeSocial().graph;
  } else if (demo) {
    graph = DemoGraph();
  } else {
    const bool binary = graph_path.size() > 4 &&
                        graph_path.compare(graph_path.size() - 4, 4, ".tgb") ==
                            0;
    auto loaded = binary ? tgks::graph::LoadGraphBinaryFromFile(graph_path)
                         : tgks::graph::LoadGraphFromFile(graph_path);
    if (!loaded.ok()) {
      std::cerr << "cannot load '" << graph_path
                << "': " << loaded.status() << "\n";
      return 1;
    }
    graph = std::move(loaded).value();
  }

  // --live hands the base graph to the LiveGraph, which owns it from then
  // on; the first snapshot pins it (and the index built alongside) for the
  // executor's lifetime. Static modes keep the local graph and build the
  // index here.
  std::unique_ptr<tgks::ingest::LiveGraph> live;
  tgks::ingest::GraphSnapshotHandle live_base;
  if (live_enabled) {
    live = std::make_unique<tgks::ingest::LiveGraph>(std::move(graph),
                                                     compaction_policy);
    live_base = live->Acquire();
  }
  const tgks::graph::TemporalGraph& base_graph =
      live != nullptr ? *live_base->graph : graph;
  std::optional<tgks::graph::InvertedIndex> local_index;
  if (live == nullptr) local_index.emplace(base_graph);
  const tgks::graph::InvertedIndex& index =
      live != nullptr ? *live_base->index : *local_index;

  if (serve) {
    std::string served_name = dataset_name;
    if (served_name.empty()) served_name = demo ? "demo" : graph_path;
    return RunServe(base_graph, index, served_name, options, threads,
                    deadline_ms, host, port, max_queue, max_inflight_bytes,
                    drain_timeout_ms, cache_enabled, cache_result_bytes,
                    live.get(), max_ingest_bytes);
  }

  if (batch_mode) {
    std::vector<std::string> lines;
    if (!LoadBatchFile(batch_path, &lines)) {
      std::cerr << "cannot read batch file '" << batch_path << "'\n";
      return 1;
    }
    if (lines.empty()) {
      std::cerr << "batch file '" << batch_path << "' has no queries\n";
      return 1;
    }
    return RunBatch(graph, index, lines, options, threads, deadline_ms, stats,
                    metrics);
  }

  auto query = tgks::search::ParseQuery(query_text);
  if (!query.ok()) {
    std::cerr << "query error: " << query.status() << "\n";
    return 1;
  }
  options.deadline_ms = deadline_ms;
  tgks::obs::QueryTrace flight_recorder(/*capacity=*/512);
  if (trace) options.trace = &flight_recorder;
  const tgks::search::SearchEngine engine(graph, &index);
  auto response = engine.Search(*query, options);
  if (!response.ok()) {
    std::cerr << "search error: " << response.status() << "\n";
    return 1;
  }
  tgks::examples::PrintResults(graph, *query, *response);
  if (response->deadline_exceeded()) {
    std::cout << "(stopped early: deadline of " << deadline_ms
              << " ms exceeded)\n";
  }
  if (stats) {
    tgks::examples::PrintCounters(response->counters);
    std::cout << "  stats: " << response->stats.ToString() << "\n";
  }
  if (trace) std::cout << flight_recorder.ToString();
  if (metrics) std::cout << tgks::obs::GlobalMetrics().RenderText();
  return 0;
}
