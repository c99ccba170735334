// The whole serving stack for loopback tests: executor, admission, router
// and HttpServer over one graph, bound to an ephemeral 127.0.0.1 port, with
// an optional live graph (docs/ingest.md) and an optional result cache
// (docs/caching.md) wired the way tgks_cli --serve wires them.

#ifndef TGKS_TESTS_TESTUTIL_TEST_SERVER_H_
#define TGKS_TESTS_TESTUTIL_TEST_SERVER_H_

#include <cstdint>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "cache/result_cache.h"
#include "exec/query_executor.h"
#include "graph/inverted_index.h"
#include "graph/temporal_graph.h"
#include "ingest/live_graph.h"
#include "server/admission.h"
#include "server/http_server.h"
#include "server/request_router.h"

namespace tgks::server::testing {

struct TestServerOptions {
  int threads = 2;
  int32_t default_k = 10;
  AdmissionOptions admission;
  int drain_timeout_ms = 2000;
  /// Wire the HTTP result cache; on a live graph every publish logs its
  /// change set in it.
  bool cache = false;
  /// Serve through a LiveGraph. Compaction runs only on /v1/compact.
  bool live = false;
  int64_t max_ingest_bytes = 4 * 1024 * 1024;
};

class TestServer {
 public:
  explicit TestServer(graph::TemporalGraph graph,
                      TestServerOptions opts = TestServerOptions()) {
    if (opts.live) {
      ingest::CompactionPolicy policy;
      policy.max_delta_bytes = 0;
      policy.max_delta_age_ms = 0;
      live_ = std::make_unique<ingest::LiveGraph>(std::move(graph), policy);
      base_ = live_->Acquire();
    } else {
      graph_ = std::make_unique<graph::TemporalGraph>(std::move(graph));
      index_ = std::make_unique<graph::InvertedIndex>(*graph_);
    }
    const graph::TemporalGraph& served = live_ ? *base_->graph : *graph_;
    const graph::InvertedIndex* index =
        live_ ? base_->index.get() : index_.get();
    if (opts.cache) {
      result_cache_ = std::make_unique<cache::ResultCache>(int64_t{8} << 20);
      if (live_ != nullptr) {
        cache::ResultCache* rc = result_cache_.get();
        live_->set_on_publish(
            [rc](uint64_t generation, cache::ReadSet changes) {
              rc->Publish(generation, std::move(changes));
            });
      }
    }
    exec::ExecutorOptions exec_options;
    exec_options.threads = opts.threads;
    exec_options.search.k = opts.default_k;
    executor_ = std::make_unique<exec::QueryExecutor>(served, index,
                                                      exec_options);
    admission_ = std::make_unique<AdmissionController>(opts.admission);
    RouterContext context;
    context.graph = &served;
    context.executor = executor_.get();
    context.admission = admission_.get();
    context.default_k = opts.default_k;
    context.dataset_name = "test";
    context.result_cache = result_cache_.get();
    context.live = live_.get();
    context.max_ingest_bytes = opts.max_ingest_bytes;
    router_ = std::make_unique<RequestRouter>(context);
    HttpServerOptions server_options;
    server_options.port = 0;
    server_options.drain_timeout_ms = opts.drain_timeout_ms;
    server_ = std::make_unique<HttpServer>(router_.get(), server_options);
    const Status status = server_->Start();
    EXPECT_TRUE(status.ok()) << status;
  }

  ~TestServer() { server_->Shutdown(); }

  int port() const { return server_->port(); }
  HttpServer* server() { return server_.get(); }
  AdmissionController* admission() { return admission_.get(); }
  ingest::LiveGraph* live() { return live_.get(); }

 private:
  // Destroyed bottom up: the server, then the executor, whose pool runs
  // every queued search and its completion before the router, admission
  // controller and cache those completions touch go away.
  std::unique_ptr<graph::TemporalGraph> graph_;
  std::unique_ptr<graph::InvertedIndex> index_;
  std::unique_ptr<ingest::LiveGraph> live_;
  ingest::GraphSnapshotHandle base_;  // Keeps the executor's graph alive.
  std::unique_ptr<cache::ResultCache> result_cache_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<RequestRouter> router_;
  std::unique_ptr<exec::QueryExecutor> executor_;
  std::unique_ptr<HttpServer> server_;
};

}  // namespace tgks::server::testing

#endif  // TGKS_TESTS_TESTUTIL_TEST_SERVER_H_
