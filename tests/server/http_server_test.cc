// Loopback end-to-end tests for the HTTP serving layer: real sockets, the
// real executor, and the full admission/deadline/shutdown story. Slow-query
// cases use the executor tests' chain-graph idiom (a long "left ... right"
// chain) so deadlines, shedding, and shutdown-cancel fire deterministically.

#include "server/http_server.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/temporal_graph.h"
#include "server/http_test_client.h"
#include "server/json_io.h"
#include "server/request_router.h"
#include "testutil/paper_graphs.h"
#include "testutil/test_server.h"

namespace tgks::server {
namespace {

using testing::ClientResponse;
using testing::FetchOnce;
using testing::GetRequest;
using testing::PostRequest;
using testing::TestClient;
using testing::TestServer;
using testing::TestServerOptions;

// A long "left ... right" chain: expensive to search, so deadline /
// cancellation / saturation paths fire reliably (see query_executor_test).
graph::TemporalGraph MakeChainGraph(int n) {
  graph::GraphBuilder b(4);
  const temporal::IntervalSet always{{0, 3}};
  graph::NodeId prev = b.AddNode("left", always);
  for (int i = 0; i < n - 2; ++i) {
    const graph::NodeId mid = b.AddNode("mid", always);
    b.AddEdge(prev, mid, always);
    b.AddEdge(mid, prev, always);
    prev = mid;
  }
  const graph::NodeId tail = b.AddNode("right", always);
  b.AddEdge(prev, tail, always);
  b.AddEdge(tail, prev, always);
  return std::move(b.Build()).value();
}

Result<JsonValue> ParseBody(const ClientResponse& response) {
  return JsonValue::Parse(response.body);
}

TEST(HttpServerTest, HealthzAndVarz) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/healthz"), &r), 200);
  EXPECT_EQ(r.body, "ok\n");

  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/varz"), &r), 200);
  auto varz = ParseBody(r);
  ASSERT_TRUE(varz.ok()) << r.body;
  EXPECT_EQ(varz->Find("dataset")->AsString(), "test");
  EXPECT_EQ(varz->Find("nodes")->AsInt(), 7);
  // Fig. 1's 8-instant timeline fits a TimeMask.
  EXPECT_EQ(varz->Find("time_representation")->AsString(), "mask");
  EXPECT_EQ(varz->Find("edge_slot_bytes")->AsInt(), 32);
  EXPECT_EQ(varz->Find("node_slot_bytes")->AsInt(), 24);
  // Fig. 1 has unit edge weights and zero node weights: every node's
  // in-slots share one increment.
  EXPECT_EQ(varz->Find("uniform_in_nodes")->AsInt(), 7);
  EXPECT_FALSE(varz->Find("draining")->AsBool());
  EXPECT_EQ(varz->Find("max_queue")->AsInt(), 64);
}

TEST(HttpServerTest, MetricsExposition) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  ClientResponse warmup;  // Ensure at least one request is counted.
  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/healthz"), &warmup), 200);

  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/metrics"), &r), 200);
  const std::string* content_type = r.FindHeader("content-type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(*content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(r.body.find("tgks_http_requests_total"), std::string::npos)
      << r.body.substr(0, 400);
}

TEST(HttpServerTest, SearchEndToEnd) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search",
                                  R"({"query":"Mary, John","k":3})"),
                      &r),
            200);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  EXPECT_EQ(body->Find("status")->AsString(), "ok");
  // k=3 may stop at the termination bound before exhausting the space.
  const std::string stop = body->Find("stop_reason")->AsString();
  EXPECT_TRUE(stop == "exhausted" || stop == "bound") << stop;
  EXPECT_GT(body->Find("result_count")->AsInt(), 0);
  ASSERT_TRUE(body->Find("results")->is_array());
  const JsonValue& first = body->Find("results")->items()[0];
  EXPECT_TRUE(first.Find("root")->is_int());
  EXPECT_TRUE(first.Find("time")->is_array());
  // Stats are opt-in so default responses stay deterministic.
  EXPECT_EQ(body->Find("counters"), nullptr);
  EXPECT_EQ(body->Find("stats"), nullptr);
  EXPECT_EQ(body->Find("latency_ms"), nullptr);
}

TEST(HttpServerTest, SearchWithStatsIncludesCounters) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search",
                                  R"({"query":"Mary, John","stats":true})"),
                      &r),
            200);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  const JsonValue* counters = body->Find("counters");
  const JsonValue* stats = body->Find("stats");
  ASSERT_NE(counters, nullptr) << r.body;
  ASSERT_NE(stats, nullptr) << r.body;
  EXPECT_GT(counters->Find("pops")->AsInt(), 0);
  EXPECT_NE(body->Find("latency_ms"), nullptr);
  // Every key perfbench's HTTP harness reads, in the object it reads it
  // from: a missing key would silently read as zero there.
  ASSERT_NE(body->Find("result_count"), nullptr) << r.body;
  for (const char* key : {"pops", "useless_pops", "edges_scanned",
                          "ntds_created", "candidates", "combo_overflows"}) {
    EXPECT_NE(counters->Find(key), nullptr) << key << " in " << r.body;
  }
  for (const char* key : {"micros_match", "micros_filter", "micros_expand",
                          "micros_generate", "interval_ops"}) {
    EXPECT_NE(stats->Find(key), nullptr) << key << " in " << r.body;
  }
  ASSERT_NE(stats->Find("heap_high_water"), nullptr) << r.body;
  EXPECT_GE(stats->Find("heap_high_water")->AsInt(), 1);
  EXPECT_GT(stats->Find("interval_ops")->AsInt(), 0);

  // The phase micros are the counters' seconds, rounded when written.
  search::SearchResponse response;
  response.counters.seconds_match = 0.25e-6;
  response.counters.seconds_filter = 2.0;
  response.counters.seconds_expand = 0.0012345678;
  response.counters.seconds_generate = 7.25e-6;
  response.stats.interval_ops = 11;
  response.stats.heap_high_water = 3;
  auto rendered = JsonValue::Parse(JsonSearchBody(
      response, /*latency_seconds=*/0.0, /*include_stats=*/true));
  ASSERT_TRUE(rendered.ok());
  const JsonValue* rendered_stats = rendered->Find("stats");
  ASSERT_NE(rendered_stats, nullptr);
  EXPECT_EQ(rendered_stats->Find("micros_match")->AsInt(), 0);
  EXPECT_EQ(rendered_stats->Find("micros_filter")->AsInt(), 2000000);
  EXPECT_EQ(rendered_stats->Find("micros_expand")->AsInt(),
            std::llround(response.counters.seconds_expand * 1e6));
  EXPECT_EQ(rendered_stats->Find("micros_expand")->AsInt(), 1235);
  EXPECT_EQ(rendered_stats->Find("micros_generate")->AsInt(), 7);
  EXPECT_EQ(rendered_stats->Find("interval_ops")->AsInt(), 11);
  EXPECT_EQ(rendered_stats->Find("heap_high_water")->AsInt(), 3);
}

// The "counters" object holds exactly the counter table's counts, and
// "stats" the stats table then a micros_<phase> per phase time, each in
// table order (obs/search_stats.h).
TEST(HttpServerTest, StatsObjectsFollowTheCounterTable) {
  auto body = JsonValue::Parse(JsonSearchBody(search::SearchResponse(),
                                              /*latency_seconds=*/0.0,
                                              /*include_stats=*/true));
  ASSERT_TRUE(body.ok());
  std::vector<std::string> counters, stats, phases;
#define TGKS_NAME(type, name, kind, help)                             \
  if (obs::FieldKind::kind == obs::FieldKind::kCount) {               \
    counters.push_back(#name);                                        \
  } else if (obs::FieldKind::kind == obs::FieldKind::kSeconds) {      \
    phases.push_back("micros_" + std::string(obs::PhaseName(#name))); \
  }
  TGKS_SEARCH_COUNTERS(TGKS_NAME)
#undef TGKS_NAME
#define TGKS_NAME(type, name, kind, help) stats.push_back(#name);
  TGKS_SEARCH_STATS(TGKS_NAME)
#undef TGKS_NAME
  stats.insert(stats.end(), phases.begin(), phases.end());
  const auto keys = [&](const char* object) {
    std::vector<std::string> out;
    for (const auto& member : body->Find(object)->members()) {
      out.push_back(member.first);
    }
    return out;
  };
  EXPECT_EQ(keys("counters"), counters);
  EXPECT_EQ(keys("stats"), stats);
}

TEST(HttpServerTest, ExplicitMatchSetsBypassTheIndex) {
  testutil::SocialNetworkIds ids;
  TestServer ts(testutil::MakeSocialNetworkGraph(&ids));
  JsonWriter w;
  w.BeginObject();
  w.Key("query");
  w.String("Mary, John");
  w.Key("matches");
  w.BeginArray();
  w.BeginArray();
  w.Int(ids.mary);
  w.EndArray();
  w.BeginArray();
  w.Int(ids.john);
  w.EndArray();
  w.EndArray();
  w.EndObject();
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/search", w.Take()), &r),
            200);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok());
  EXPECT_GT(body->Find("result_count")->AsInt(), 0);
}

TEST(HttpServerTest, ResultCacheMissThenHitBitIdentical) {
  TestServerOptions opts;
  opts.cache = true;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  const std::string request =
      PostRequest("/v1/search", R"({"query":"Mary, John","k":3})");

  ClientResponse miss;
  ASSERT_EQ(FetchOnce(ts.port(), request, &miss), 200);
  const std::string* h = miss.FindHeader("x-cache");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(*h, "miss");

  ClientResponse hit;
  ASSERT_EQ(FetchOnce(ts.port(), request, &hit), 200);
  h = hit.FindHeader("x-cache");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(*h, "hit");
  EXPECT_EQ(miss.body, hit.body);  // Bit-identical, not just equivalent.
}

// The engine sorts and deduplicates each explicit match list, so the cache
// keys a list by its distinct ids: a permuted or repeated list hits the
// entry of the list it spells, and lists with different ids never share
// one. Ids past 127 take two varint bytes in the key.
TEST(HttpServerTest, MatchListsKeyTheCacheByTheirDistinctIds) {
  TestServerOptions opts;
  opts.cache = true;
  TestServer ts(MakeChainGraph(300), opts);
  const auto request = [](const std::string& matches) {
    return PostRequest("/v1/search", R"({"query":"a, b","k":3,"matches":)" +
                                         matches + "}");
  };
  const auto cache_header = [](const ClientResponse& r) -> std::string {
    const std::string* h = r.FindHeader("x-cache");
    return h == nullptr ? "none" : *h;
  };
  // Distinct id lists, including a moved list boundary and gaps that a
  // byte of another id could be mistaken for.
  const std::vector<std::string> distinct = {
      "[[1,130],[129]]",   "[[1],[130,129]]",  "[[1,130,2],[129]]",
      "[[1,2,129],[129]]", "[[129,1],[130]]",  "[[257],[129]]",
      "[[1,3],[129]]",     "[[1,130],[129,0]]"};
  std::vector<std::string> bodies;
  for (const std::string& matches : distinct) {
    ClientResponse r;
    ASSERT_EQ(FetchOnce(ts.port(), request(matches), &r), 200) << matches;
    EXPECT_EQ(cache_header(r), "miss") << matches;
    bodies.push_back(r.body);
  }
  for (size_t i = 0; i < distinct.size(); ++i) {
    ClientResponse r;
    ASSERT_EQ(FetchOnce(ts.port(), request(distinct[i]), &r), 200);
    EXPECT_EQ(cache_header(r), "hit") << distinct[i];
    EXPECT_EQ(r.body, bodies[i]) << distinct[i];
  }
  // Permuted and repeated spellings of the first and second lists.
  for (const auto& [matches, of] :
       std::vector<std::pair<std::string, size_t>>{
           {"[[130,1],[129]]", 0},
           {"[[130,1,130,1],[129,129]]", 0},
           {"[[1],[129,130,129]]", 1}}) {
    ClientResponse r;
    ASSERT_EQ(FetchOnce(ts.port(), request(matches), &r), 200);
    EXPECT_EQ(cache_header(r), "hit") << matches;
    EXPECT_EQ(r.body, bodies[of]) << matches;
  }
}

TEST(HttpServerTest, PerRequestCacheFalseBypassesTheCache) {
  TestServerOptions opts;
  opts.cache = true;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  const std::string cached =
      PostRequest("/v1/search", R"({"query":"Mary, John","k":3})");
  const std::string uncached = PostRequest(
      "/v1/search", R"({"query":"Mary, John","k":3,"cache":false})");

  ClientResponse warm;
  ASSERT_EQ(FetchOnce(ts.port(), cached, &warm), 200);
  ClientResponse bypass;
  ASSERT_EQ(FetchOnce(ts.port(), uncached, &bypass), 200);
  EXPECT_EQ(bypass.FindHeader("x-cache"), nullptr);
  EXPECT_EQ(warm.body, bypass.body);  // Same answer, computed fresh.
}

TEST(HttpServerTest, StatsRequestsAreNeverCached) {
  TestServerOptions opts;
  opts.cache = true;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  const std::string request =
      PostRequest("/v1/search", R"({"query":"Mary, John","stats":true})");
  ClientResponse first;
  ASSERT_EQ(FetchOnce(ts.port(), request, &first), 200);
  EXPECT_EQ(first.FindHeader("x-cache"), nullptr);
  ClientResponse second;
  ASSERT_EQ(FetchOnce(ts.port(), request, &second), 200);
  EXPECT_EQ(second.FindHeader("x-cache"), nullptr);
}

// The cache has no HTTP control surface: an entry goes stale only through a
// publish's change set, and the former invalidation path falls to the
// generic 404 on a cached server too.
TEST(HttpServerTest, CacheInvalidatePathIsNotFound) {
  TestServerOptions opts;
  opts.cache = true;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  const std::string request =
      PostRequest("/v1/search", R"({"query":"Mary, John","k":3})");
  ClientResponse warm;
  ASSERT_EQ(FetchOnce(ts.port(), request, &warm), 200);

  const std::string path = std::string("/v1/cache/") + "invalidate";
  ClientResponse gone;
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest(path, ""), &gone), 404);
  auto body = ParseBody(gone);
  ASSERT_TRUE(body.ok()) << gone.body;
  EXPECT_EQ(body->Find("error")->Find("type")->AsString(), "not-found");

  // The cached answer is untouched.
  ClientResponse hit;
  ASSERT_EQ(FetchOnce(ts.port(), request, &hit), 200);
  ASSERT_NE(hit.FindHeader("x-cache"), nullptr);
  EXPECT_EQ(*hit.FindHeader("x-cache"), "hit");
  EXPECT_EQ(hit.body, warm.body);
}

TEST(HttpServerTest, CacheDisabledServerHasNoCacheSurface) {
  TestServer ts(testutil::MakeSocialNetworkGraph());  // No cache wired.
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search",
                                  R"({"query":"Mary, John","k":3})"),
                      &r),
            200);
  EXPECT_EQ(r.FindHeader("x-cache"), nullptr);
}

TEST(HttpServerTest, VarzReportsCacheSections) {
  TestServerOptions opts;
  opts.cache = true;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  const std::string request =
      PostRequest("/v1/search", R"({"query":"Mary, John","k":3})");
  ClientResponse warm;
  ASSERT_EQ(FetchOnce(ts.port(), request, &warm), 200);
  ClientResponse hit;
  ASSERT_EQ(FetchOnce(ts.port(), request, &hit), 200);

  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/varz"), &r), 200);
  auto varz = ParseBody(r);
  ASSERT_TRUE(varz.ok()) << r.body;
  ASSERT_NE(varz->Find("result_cache"), nullptr) << r.body;
  EXPECT_EQ(varz->Find("result_cache")->Find("hits")->AsInt(), 1);
  EXPECT_EQ(varz->Find("result_cache")->Find("misses")->AsInt(), 1);
  EXPECT_EQ(varz->Find("match_cache"), nullptr);  // One cache level.
  EXPECT_EQ(varz->Find("query_cache_generation"), nullptr);
  // perfbench reads /varz by substring: oversized is appended after
  // read_set_bytes, so no existing key moves.
  EXPECT_EQ(varz->Find("result_cache")->Find("oversized")->AsInt(), 0);
  EXPECT_NE(r.body.find(R"("read_set_bytes":0,"oversized":0})"),
            std::string::npos)
      << r.body;
}

TEST(HttpServerTest, BadRequestsProduceTypedErrors) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  struct Case {
    std::string body;
    std::string expected_type;
  };
  const std::vector<Case> cases = {
      {R"({"query":)", "json"},
      {R"([1,2,3])", "request"},
      {R"({"k":3})", "request"},
      {R"({"query":"Mary","k":-1})", "request"},
      {R"({"query":"Mary","matches":"nope"})", "request"},
      {R"({"query":"Mary","stats":"yes"})", "request"},
      {R"({"query":"Mary","cache":"off"})", "request"},
  };
  for (const Case& c : cases) {
    ClientResponse r;
    ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/search", c.body), &r),
              400)
        << c.body;
    auto body = ParseBody(r);
    ASSERT_TRUE(body.ok()) << r.body;
    EXPECT_EQ(body->Find("error")->Find("type")->AsString(), c.expected_type)
        << c.body;
  }
}

TEST(HttpServerTest, QueryParseErrorCarriesCodeAndOffset) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  // Unterminated quote: structured error with a byte offset into the query.
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"\"Mary"})"),
                      &r),
            400);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  const JsonValue* error = body->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("type")->AsString(), "query-parse");
  ASSERT_NE(error->Find("code"), nullptr) << r.body;
  ASSERT_NE(error->Find("offset"), nullptr) << r.body;
  EXPECT_TRUE(error->Find("offset")->is_int());
  EXPECT_FALSE(error->Find("message")->AsString().empty());
}

TEST(HttpServerTest, RoutingErrors) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  ClientResponse r;
  EXPECT_EQ(FetchOnce(ts.port(), GetRequest("/nope"), &r), 404);
  EXPECT_EQ(FetchOnce(ts.port(), GetRequest("/v1/search"), &r), 405);
  const std::string* allow = r.FindHeader("allow");
  ASSERT_NE(allow, nullptr);
  EXPECT_EQ(*allow, "POST");
  EXPECT_EQ(FetchOnce(ts.port(), PostRequest("/healthz", ""), &r), 405);
  // A malformed request line is rejected by the parser layer.
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.port()));
  ASSERT_TRUE(client.Send("GARBAGE\r\n\r\n"));
  ClientResponse bad;
  ASSERT_TRUE(client.ReadResponse(&bad));
  EXPECT_EQ(bad.status, 400);
}

TEST(HttpServerTest, KeepAliveServesSequentialRequests) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  TestClient client;
  ASSERT_TRUE(client.Connect(ts.port()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Send(
        PostRequest("/v1/search", R"({"query":"Mary, John","k":2})")));
    ClientResponse r;
    ASSERT_TRUE(client.ReadResponse(&r)) << "request " << i;
    EXPECT_EQ(r.status, 200);
    const std::string* connection = r.FindHeader("connection");
    ASSERT_NE(connection, nullptr);
    EXPECT_EQ(*connection, "keep-alive");
  }
  // Connection: close is honored.
  ASSERT_TRUE(client.Send(
      "GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"));
  ClientResponse last;
  ASSERT_TRUE(client.ReadResponse(&last));
  EXPECT_EQ(last.status, 200);
  EXPECT_EQ(*last.FindHeader("connection"), "close");
}

TEST(HttpServerTest, DeadlineHeaderStopsLongQuery) {
  TestServerOptions opts;
  opts.threads = 2;
  TestServer ts(MakeChainGraph(120000), opts);
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"left, right"})",
                                  {{"deadline-ms", "1"}}),
                      &r),
            200);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  EXPECT_EQ(body->Find("stop_reason")->AsString(), "deadline");
  EXPECT_TRUE(body->Find("deadline_exceeded")->AsBool());
  EXPECT_TRUE(body->Find("truncated")->AsBool());

  // A malformed deadline is a 400 before admission.
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"left, right"})",
                                  {{"deadline-ms", "soon"}}),
                      &r),
            400);
}

// Saturation + graceful shutdown, end to end: with a single executor thread
// and max_queue 1, a second search sheds with 429; Shutdown() then cancels
// the straggler through the handle the server holds, and its JSON response
// (stop reason "cancelled") is still flushed before the connection closes.
TEST(HttpServerTest, ShedsAtSaturationAndCancelsOnShutdown) {
  TestServerOptions opts;
  opts.threads = 1;
  opts.admission.max_queue = 1;
  opts.drain_timeout_ms = 50;
  TestServer ts(MakeChainGraph(150000), opts);

  TestClient slow;
  ASSERT_TRUE(slow.Connect(ts.port()));
  ASSERT_TRUE(
      slow.Send(PostRequest("/v1/search", R"({"query":"left, right"})")));
  // Wait until the slow query is admitted.
  for (int i = 0; i < 500 && ts.admission()->depth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(ts.admission()->depth(), 1);

  ClientResponse shed;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"left, right"})"),
                      &shed),
            429);
  const std::string* retry_after = shed.FindHeader("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");
  auto shed_body = ParseBody(shed);
  ASSERT_TRUE(shed_body.ok()) << shed.body;
  EXPECT_EQ(shed_body->Find("error")->Find("type")->AsString(), "overload");
  EXPECT_EQ(shed_body->Find("error")->Find("reason")->AsString(),
            "queue-full");

  // Graceful shutdown: the straggler's response is flushed, cancelled.
  ts.server()->Shutdown();
  ClientResponse r;
  ASSERT_TRUE(slow.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  EXPECT_EQ(body->Find("stop_reason")->AsString(), "cancelled");
  EXPECT_TRUE(body->Find("cancelled")->AsBool());
  EXPECT_FALSE(ts.server()->running());
}

TEST(HttpServerTest, ShutdownClosesListener) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  const int port = ts.port();
  ClientResponse r;
  ASSERT_EQ(FetchOnce(port, GetRequest("/healthz"), &r), 200);
  ts.server()->Shutdown();
  TestClient client;
  EXPECT_FALSE(client.Connect(port));
}

// A port outside [0, 65535] is an error, not a port modulo 65536: 65536
// would otherwise bind an ephemeral port and -1 would bind 65535. Start()
// rejects it before touching the router or admission controller.
TEST(HttpServerTest, RejectsPortAboveRange) {
  HttpServerOptions options;
  options.port = 65536;
  HttpServer server(nullptr, options);
  const Status status = server.Start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, RejectsNegativePort) {
  HttpServerOptions options;
  options.port = -1;
  HttpServer server(nullptr, options);
  const Status status = server.Start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_FALSE(server.running());
}

// Start() fails when it cannot create its epoll set. Start opens the
// listener, then the wake pipe, then the epoll set, each on the lowest free
// descriptor, so the lowest descriptor limit under which Start gets past
// the first two leaves none for epoll_create1.
TEST(HttpServerTest, StartFailsWithoutEpoll) {
  const int probe = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  std::string epoll_error;
  for (int limit = probe + 1; limit < probe + 64 && epoll_error.empty();
       ++limit) {
    rlimit tight = saved;
    tight.rlim_cur = static_cast<rlim_t>(limit);
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);
    HttpServer server(nullptr, HttpServerOptions());
    const Status status = server.Start();
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_FALSE(status.ok()) << "started under " << limit << " descriptors";
    EXPECT_FALSE(server.running());
    if (status.ToString().find("epoll") != std::string::npos) {
      epoll_error = status.ToString();
    }
  }
  EXPECT_FALSE(epoll_error.empty());
}

// Keys the router does not know are ignored, so a request that still
// carries a retired option answers exactly like one without it.
TEST(HttpServerTest, UnknownFieldsAreIgnored) {
  TestServer ts(testutil::MakeSocialNetworkGraph());
  ClientResponse plain;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"Mary, John"})"),
                      &plain),
            200);
  ClientResponse stale;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search",
                                  R"({"query":"Mary, John",)"
                                  R"("parallel_keywords":true,)"
                                  R"("guided_search":true,)"
                                  R"("reachability_prune":true})"),
                      &stale),
            200);
  EXPECT_EQ(stale.body, plain.body);
  auto body = ParseBody(plain);
  ASSERT_TRUE(body.ok()) << plain.body;
  EXPECT_GT(body->Find("result_count")->AsInt(), 0);
}

// A client that disconnects mid-query must not strand the query or its
// scratch arenas: shutdown still drains cleanly (the disconnect cancels the
// search through the engine's per-pop cancel check). Run under TSan in CI —
// a query racing teardown is a data race there.
TEST(HttpServerTest, QueryClientDisconnectDrainsCleanly) {
  TestServerOptions opts;
  opts.threads = 2;
  opts.drain_timeout_ms = 50;
  TestServer ts(MakeChainGraph(150000), opts);

  TestClient doomed;
  ASSERT_TRUE(doomed.Connect(ts.port()));
  ASSERT_TRUE(doomed.Send(PostRequest(
      "/v1/search",
      R"({"query":"left, right"})")));
  // Wait until the query is admitted, then vanish mid-flight.
  for (int i = 0; i < 500 && ts.admission()->depth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(ts.admission()->depth(), 1);
  doomed.Close();

  // Shutdown cancels the straggler and joins the executor; a stranded
  // query or unreleased scratch would hang or race here.
  ts.server()->Shutdown();
  EXPECT_FALSE(ts.server()->running());
}

// A cache-filling search survives its client's disconnect, because its
// answer is shared with the cache and with coalesced followers. Only
// shutdown can end it: the server keeps the abandoned search's handle and
// cancels it when the drain times out, and the follower reads the
// cancelled answer. Run under TSan in CI.
TEST(HttpServerTest, ShutdownCancelsAnAbandonedCacheFillingSearch) {
  TestServerOptions opts;
  opts.cache = true;
  opts.drain_timeout_ms = 50;
  TestServer ts(MakeChainGraph(150000), opts);
  const std::string search =
      PostRequest("/v1/search", R"({"query":"left, right"})");

  TestClient leader;
  ASSERT_TRUE(leader.Connect(ts.port()));
  ASSERT_TRUE(leader.Send(search));
  for (int i = 0; i < 500 && ts.admission()->depth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(ts.admission()->depth(), 1);

  // The identical request coalesces onto the leader's search.
  TestClient follower;
  ASSERT_TRUE(follower.Connect(ts.port()));
  ASSERT_TRUE(follower.Send(search));
  int64_t coalesced = 0;
  for (int i = 0; i < 500 && coalesced == 0; ++i) {
    ClientResponse varz;
    ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/varz"), &varz), 200);
    auto body = ParseBody(varz);
    ASSERT_TRUE(body.ok()) << varz.body;
    coalesced = body->Find("result_cache_coalesced")->AsInt();
    if (coalesced == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_EQ(coalesced, 1);

  // The leader vanishes; wait until the server has closed its connection.
  leader.Abort();
  for (int i = 0; i < 500 && ts.server()->open_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(ts.server()->open_connections(), 1);
  ASSERT_EQ(ts.admission()->depth(), 1);  // The search still runs.

  ts.server()->Shutdown();
  EXPECT_FALSE(ts.server()->running());
  ClientResponse r;
  ASSERT_TRUE(follower.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  const std::string* x_cache = r.FindHeader("x-cache");
  ASSERT_NE(x_cache, nullptr);
  EXPECT_EQ(*x_cache, "coalesced");
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  EXPECT_EQ(body->Find("stop_reason")->AsString(), "cancelled");
}

// Concurrency smoke: several client threads hammer the server with mixed
// traffic over keep-alive connections. Run under TSan in CI.
TEST(HttpServerTest, ConcurrentClientsMixedTraffic) {
  TestServerOptions opts;
  opts.threads = 2;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&ts, &failures, c] {
      TestClient client;
      if (!client.Connect(ts.port())) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        std::string request;
        switch ((c + i) % 4) {
          case 0:
          case 1:
            request =
                PostRequest("/v1/search", R"({"query":"Mary, John","k":2})");
            break;
          case 2:
            request = GetRequest("/healthz");
            break;
          default:
            request = GetRequest("/varz");
            break;
        }
        ClientResponse r;
        if (!client.Send(request) || !client.ReadResponse(&r) ||
            r.status != 200) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(HttpServerTest, IngestEndpointsRequireLiveMode) {
  // A static server (no --live) has no LiveGraph behind the router; the
  // ingest endpoints must say so rather than half-work.
  TestServer ts(testutil::MakeSocialNetworkGraph());
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/ingest", R"({"nodes":[]})"), &r),
            404);
  EXPECT_NE(r.body.find("live ingest is not enabled"), std::string::npos)
      << r.body;
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/compact", ""), &r), 404);
  // And a static search response carries no snapshot-generation header.
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"Mary"})"), &r),
            200);
  EXPECT_EQ(r.FindHeader("x-snapshot-generation"), nullptr);
}

}  // namespace
}  // namespace tgks::server
