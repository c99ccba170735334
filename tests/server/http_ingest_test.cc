// Loopback end-to-end tests for live ingest over HTTP: POST /v1/ingest and
// /v1/compact routing, structured validation errors, admission limits for
// ingest bodies, snapshot-generation propagation, and result-cache
// validation across publishes (docs/ingest.md, docs/caching.md).

#include <string>

#include <gtest/gtest.h>

#include "ingest/live_graph.h"
#include "server/http_test_client.h"
#include "server/json_io.h"
#include "testutil/paper_graphs.h"
#include "testutil/test_server.h"

namespace tgks::server {
namespace {

using testing::ClientResponse;
using testing::FetchOnce;
using testing::GetRequest;
using testing::PostRequest;
using testing::TestServer;
using testing::TestServerOptions;

// The live stack: the same topology tgks_cli --serve --live builds.
TestServerOptions LiveOptions() {
  TestServerOptions opts;
  opts.live = true;
  return opts;
}

Result<JsonValue> ParseBody(const ClientResponse& response) {
  return JsonValue::Parse(response.body);
}

constexpr char kFreshBatch[] =
    R"({"nodes": [{"label": "zulu fresh", "weight": 1.0}],
        "edges": [{"src": 0, "dst_new": 0}]})";

TEST(HttpIngestTest, IngestThenSearchSeesTheNewData) {
  TestServer ts(testutil::MakeSocialNetworkGraph(), LiveOptions());

  // Before the publish the keyword matches nothing.
  ClientResponse before;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"fresh"})"),
                      &before),
            200);
  auto body = ParseBody(before);
  ASSERT_TRUE(body.ok()) << before.body;
  EXPECT_EQ(body->Find("result_count")->AsInt(), 0);
  const std::string* generation = before.FindHeader("x-snapshot-generation");
  ASSERT_NE(generation, nullptr);
  EXPECT_EQ(*generation, "0");

  ClientResponse ingest;
  ASSERT_EQ(
      FetchOnce(ts.port(), PostRequest("/v1/ingest", kFreshBatch), &ingest),
      200);
  body = ParseBody(ingest);
  ASSERT_TRUE(body.ok()) << ingest.body;
  EXPECT_EQ(body->Find("status")->AsString(), "ok");
  EXPECT_EQ(body->Find("generation")->AsInt(), 1);
  EXPECT_EQ(body->Find("nodes_added")->AsInt(), 1);
  EXPECT_EQ(body->Find("edges_added")->AsInt(), 1);
  EXPECT_GT(body->Find("delta_bytes")->AsInt(), 0);
  generation = ingest.FindHeader("x-snapshot-generation");
  ASSERT_NE(generation, nullptr);
  EXPECT_EQ(*generation, "1");

  // A post-publish query is admitted against the new snapshot and finds
  // the ingested node — and its generation header says so.
  ClientResponse after;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"fresh"})"),
                      &after),
            200);
  body = ParseBody(after);
  ASSERT_TRUE(body.ok()) << after.body;
  EXPECT_EQ(body->Find("result_count")->AsInt(), 1);
  generation = after.FindHeader("x-snapshot-generation");
  ASSERT_NE(generation, nullptr);
  EXPECT_EQ(*generation, "1");

  // Multi-keyword: the delta node joins trees with base nodes through the
  // ingested edge.
  ClientResponse joined;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"Mary, fresh"})"),
                      &joined),
            200);
  body = ParseBody(joined);
  ASSERT_TRUE(body.ok()) << joined.body;
  EXPECT_GT(body->Find("result_count")->AsInt(), 0);
}

TEST(HttpIngestTest, StructuredValidationErrors) {
  TestServer ts(testutil::MakeSocialNetworkGraph(), LiveOptions());
  ClientResponse r;

  // Parse-level: wrong label type → bad-shape with array position.
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/ingest", R"({"nodes":[{"label":5}]})"),
                      &r),
            400);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  const JsonValue* error = body->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("type")->AsString(), "ingest-validate");
  EXPECT_EQ(error->Find("code")->AsString(), "bad-shape");
  EXPECT_EQ(error->Find("field")->AsString(), "nodes");
  EXPECT_EQ(error->Find("offset")->AsInt(), 0);

  // Apply-level: an edge outside its endpoints' lifetimes. Mary is valid
  // [0,7]; an explicit empty-after-clip validity can never exist.
  ASSERT_EQ(
      FetchOnce(
          ts.port(),
          PostRequest(
              "/v1/ingest",
              R"({"nodes":[{"label":"ghost","validity":[[0,2]]}],
                  "edges":[{"src":0,"dst_new":0,"validity":[[5,7]]}]})"),
          &r),
      400);
  body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  error = body->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("type")->AsString(), "ingest-validate");
  EXPECT_EQ(error->Find("code")->AsString(), "edge-never-valid");
  EXPECT_EQ(error->Find("field")->AsString(), "edges");

  // Malformed JSON and empty batches are rejected before any publish.
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/ingest", "{nope"), &r), 400);
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/ingest", "{}"), &r), 400);
  body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  EXPECT_EQ(body->Find("error")->Find("code")->AsString(), "bad-shape");

  // Wrong method.
  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/v1/ingest"), &r), 405);
  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/v1/compact"), &r), 405);

  // Nothing above published: the graph is untouched.
  EXPECT_EQ(ts.live()->generation(), 0u);
}

TEST(HttpIngestTest, OversizedBatchIsRejectedWith413) {
  TestServerOptions opts = LiveOptions();
  opts.max_ingest_bytes = 64;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  const std::string big =
      R"({"nodes":[{"label":")" + std::string(200, 'x') + R"("}]})";
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/ingest", big), &r), 413);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  EXPECT_EQ(body->Find("error")->Find("type")->AsString(), "too-large");
  EXPECT_EQ(body->Find("error")->Find("max_bytes")->AsInt(), 64);
  EXPECT_EQ(ts.live()->generation(), 0u);
}

TEST(HttpIngestTest, IngestBytesCountAgainstTheSharedAdmissionBudget) {
  TestServerOptions opts = LiveOptions();
  opts.admission.max_inflight_bytes = 16;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);

  // The controller always serves one request on an idle server, so pin the
  // budget with a fake inflight search first; the ingest body then lands on
  // a busy server whose byte budget is spent and is shed, proving ingest
  // bytes draw from the same --max-inflight-bytes pool as searches.
  ASSERT_TRUE(ts.admission()->TryAdmit(16, nullptr));
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/ingest", kFreshBatch), &r),
            429);
  const std::string* retry_after = r.FindHeader("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");
  EXPECT_EQ(ts.live()->generation(), 0u);

  // Releasing the pinned bytes lets the same batch through.
  ts.admission()->Release(16);
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/ingest", kFreshBatch), &r),
            200);
  EXPECT_EQ(ts.live()->generation(), 1u);
}

TEST(HttpIngestTest, CompactEndpointFoldsTheDelta) {
  TestServer ts(testutil::MakeSocialNetworkGraph(), LiveOptions());
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/ingest", kFreshBatch), &r),
            200);

  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/compact", ""), &r), 200);
  auto body = ParseBody(r);
  ASSERT_TRUE(body.ok()) << r.body;
  EXPECT_EQ(body->Find("status")->AsString(), "ok");
  EXPECT_EQ(body->Find("generation")->AsInt(), 2);
  EXPECT_EQ(body->Find("runs")->AsInt(), 1);
  EXPECT_EQ(body->Find("manual_runs")->AsInt(), 1);
  EXPECT_EQ(body->Find("nodes_folded")->AsInt(), 1);
  EXPECT_EQ(body->Find("edges_folded")->AsInt(), 1);
  EXPECT_EQ(body->Find("delta_bytes")->AsInt(), 0);

  // The folded graph still answers for the ingested data (rebuilt index).
  ClientResponse search;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/search", R"({"query":"fresh"})"),
                      &search),
            200);
  body = ParseBody(search);
  ASSERT_TRUE(body.ok()) << search.body;
  EXPECT_EQ(body->Find("result_count")->AsInt(), 1);
  const std::string* generation = search.FindHeader("x-snapshot-generation");
  ASSERT_NE(generation, nullptr);
  EXPECT_EQ(*generation, "2");

  // Compacting an already-folded graph is a no-op at the same generation.
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/compact", ""), &r), 200);
  body = ParseBody(r);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Find("generation")->AsInt(), 2);
  EXPECT_EQ(body->Find("runs")->AsInt(), 1);
}

TEST(HttpIngestTest, PublishInvalidatesTheResultCache) {
  TestServerOptions opts = LiveOptions();
  opts.cache = true;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  const std::string request =
      PostRequest("/v1/search", R"({"query":"Mary, John","k":3})");

  ClientResponse miss;
  ASSERT_EQ(FetchOnce(ts.port(), request, &miss), 200);
  ASSERT_NE(miss.FindHeader("x-cache"), nullptr);
  EXPECT_EQ(*miss.FindHeader("x-cache"), "miss");
  ClientResponse hit;
  ASSERT_EQ(FetchOnce(ts.port(), request, &hit), 200);
  EXPECT_EQ(*hit.FindHeader("x-cache"), "hit");
  EXPECT_EQ(miss.body, hit.body);

  // Publish: the new node's words are the query's keywords, so the batch
  // touches the entry's read set and a post-publish request misses.
  ClientResponse ingest;
  ASSERT_EQ(
      FetchOnce(ts.port(),
                PostRequest("/v1/ingest",
                            R"({"nodes":[{"label":"mary john","weight":0.5}]})"),
                &ingest),
      200);

  ClientResponse cold;
  ASSERT_EQ(FetchOnce(ts.port(), request, &cold), 200);
  EXPECT_EQ(*cold.FindHeader("x-cache"), "miss");
  EXPECT_EQ(*cold.FindHeader("x-snapshot-generation"), "1");
  // The fresh answer reflects the new graph: the ingested node covers both
  // keywords by itself at weight 0.5, a new best tree the cached top-3
  // cannot contain.
  EXPECT_NE(cold.body, miss.body);

  // And the post-publish answer is itself cacheable.
  ClientResponse warm;
  ASSERT_EQ(FetchOnce(ts.port(), request, &warm), 200);
  EXPECT_EQ(*warm.FindHeader("x-cache"), "hit");
  EXPECT_EQ(warm.body, cold.body);
}

// Read-set validation over HTTP (docs/caching.md, "Read sets"): a publish
// that touches nothing the cached search read carries the entry, and the
// hit is stamped with the generation the request was pinned to; a publish
// that adds an in-edge to an expanded node drops it.
TEST(HttpIngestTest, CarriedHitCarriesThePinnedGeneration) {
  TestServerOptions opts = LiveOptions();
  opts.cache = true;
  TestServer ts(testutil::MakeSocialNetworkGraph(), opts);
  const std::string request =
      PostRequest("/v1/search", R"({"query":"Mary, John","k":3})");
  const std::string reference = PostRequest(
      "/v1/search", R"({"query":"Mary, John","k":3,"cache":false})");

  ClientResponse miss;
  ASSERT_EQ(FetchOnce(ts.port(), request, &miss), 200);
  EXPECT_EQ(*miss.FindHeader("x-cache"), "miss");
  auto body = ParseBody(miss);
  ASSERT_TRUE(body.ok()) << miss.body;
  ASSERT_GT(body->Find("result_count")->AsInt(), 0);
  // The best tree's root was popped by every keyword frontier.
  const int64_t root = body->Find("results")->items()[0].Find("root")->AsInt();

  // A lone node whose label matches no keyword changes nothing the search
  // read.
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/ingest",
                                  R"({"nodes":[{"label":"zulu","weight":1}]})"),
                      &r),
            200);
  ClientResponse carried;
  ASSERT_EQ(FetchOnce(ts.port(), request, &carried), 200);
  EXPECT_EQ(*carried.FindHeader("x-cache"), "hit");
  EXPECT_EQ(*carried.FindHeader("x-snapshot-generation"), "1");
  ClientResponse fresh;
  ASSERT_EQ(FetchOnce(ts.port(), reference, &fresh), 200);
  EXPECT_EQ(*fresh.FindHeader("x-snapshot-generation"), "1");
  EXPECT_EQ(carried.body, fresh.body);
  EXPECT_EQ(carried.body, miss.body);

  // An in-edge to the root: the root's in-slots changed, so the entry goes.
  ASSERT_EQ(FetchOnce(ts.port(),
                      PostRequest("/v1/ingest",
                                  R"({"nodes":[{"label":"yankee","weight":1}],)"
                                  R"("edges":[{"src_new":0,"dst":)" +
                                      std::to_string(root) + "}]}"),
                      &r),
            200);
  ClientResponse dropped;
  ASSERT_EQ(FetchOnce(ts.port(), request, &dropped), 200);
  EXPECT_EQ(*dropped.FindHeader("x-cache"), "miss");
  EXPECT_EQ(*dropped.FindHeader("x-snapshot-generation"), "2");
  ASSERT_EQ(FetchOnce(ts.port(), reference, &fresh), 200);
  EXPECT_EQ(dropped.body, fresh.body);

  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/varz"), &r), 200);
  auto varz = ParseBody(r);
  ASSERT_TRUE(varz.ok()) << r.body;
  const JsonValue* cache = varz->Find("result_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("hits")->AsInt(), 1);
  EXPECT_EQ(cache->Find("carried_hits")->AsInt(), 1);
  EXPECT_EQ(cache->Find("misses")->AsInt(), 2);
  EXPECT_GT(cache->Find("read_set_bytes")->AsInt(), 0);
  EXPECT_LT(cache->Find("read_set_bytes")->AsInt(),
            cache->Find("bytes")->AsInt());
}

TEST(HttpIngestTest, VarzReportsTheLiveSection) {
  TestServer ts(testutil::MakeSocialNetworkGraph(), LiveOptions());
  ClientResponse r;
  ASSERT_EQ(FetchOnce(ts.port(), PostRequest("/v1/ingest", kFreshBatch), &r),
            200);
  ASSERT_EQ(FetchOnce(ts.port(), GetRequest("/varz"), &r), 200);
  auto varz = ParseBody(r);
  ASSERT_TRUE(varz.ok()) << r.body;
  EXPECT_TRUE(varz->Find("live")->AsBool());
  EXPECT_EQ(varz->Find("snapshot_generation")->AsInt(), 1);
  EXPECT_EQ(varz->Find("ingest_batches")->AsInt(), 1);
  EXPECT_EQ(varz->Find("ingest_nodes")->AsInt(), 1);
  EXPECT_EQ(varz->Find("ingest_edges")->AsInt(), 1);
  EXPECT_GT(varz->Find("delta_bytes")->AsInt(), 0);
  EXPECT_EQ(varz->Find("compactions")->AsInt(), 0);
  // The live node/edge totals track the snapshot, not the boot-time base.
  EXPECT_EQ(varz->Find("snapshot_nodes")->AsInt(), 8);
}

}  // namespace
}  // namespace tgks::server
