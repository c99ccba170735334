// Golden transcript for the HTTP API: boots the full serving stack on the
// checked-in social.tgf graph, replays a canned sequence of POST /v1/search
// requests (plus the error paths) over a real socket, and compares
// status + body byte-for-byte against tests/golden/server_api.expected.
//
// Regenerate after an intentional wire-format change with
//
//   TGKS_UPDATE_GOLDEN=1 ctest -R ServerGolden
//
// Responses deliberately omit stats/counters/latency unless the request
// asks for them, so the transcript is byte-identical across machines.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/serialization.h"
#include "server/http_test_client.h"
#include "testutil/test_server.h"

namespace tgks::server {
namespace {

using testing::ClientResponse;
using testing::FetchOnce;
using testing::PostRequest;
using testing::TestServer;
using testing::TestServerOptions;

std::string GoldenPath(const std::string& file) {
  return std::string(TGKS_GOLDEN_DIR) + "/" + file;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ServerGoldenTest, SearchApiTranscript) {
  auto loaded = graph::LoadGraphFromFile(GoldenPath("social.tgf"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  TestServerOptions opts;
  opts.threads = 1;  // Single worker: deterministic ordering.
  TestServer ts(std::move(loaded).value(), opts);
  ASSERT_TRUE(ts.server()->running());

  // The canned request bodies. Keep in sync with server_api.expected (the
  // transcript embeds each body, so drift is visible in the diff).
  const std::vector<std::string> bodies = {
      // The golden queries of social.queries, through the wire format.
      R"({"query":"Mary, John","k":3})",
      R"({"query":"Mary, John rank by ascending order of result start time","k":2})",
      R"({"query":"Mary, John result time contains [6,7]","k":2})",
      R"({"query":"Mary, John, Bob","k":2})",
      R"({"query":"Mary, Ross result time precedes 3","k":2})",
      // Explicit match sets (node ids of Mary and John in social.tgf).
      R"({"query":"Mary, John","k":1,"matches":[[0],[1]]})",
      // No results: keywords never co-connected in time.
      R"({"query":"Mary, Nobody"})",
      // Error paths: malformed JSON, missing field, structured parse error.
      R"({"query":)",
      R"({"k":3})",
      R"({"query":"\"Mary"})",
      R"({"query":"Mary rank by weirdness"})",
  };

  std::ostringstream transcript;
  transcript << "# Golden transcript for POST /v1/search over social.tgf.\n"
             << "# Regenerate: TGKS_UPDATE_GOLDEN=1 ctest -R ServerGolden\n";
  for (const std::string& body : bodies) {
    ClientResponse response;
    const int status =
        FetchOnce(ts.port(), PostRequest("/v1/search", body), &response);
    ASSERT_GT(status, 0) << body;
    transcript << "\n>> " << body << "\n"
               << "<< " << status << " " << response.body << "\n";
  }
  ts.server()->Shutdown();

  const std::string expected_path = GoldenPath("server_api.expected");
  const std::string actual = transcript.str();
  if (std::getenv("TGKS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(expected_path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << expected_path;
    out << actual;
    GTEST_LOG_(INFO) << "updated " << expected_path;
    return;
  }
  EXPECT_EQ(actual, ReadFile(expected_path))
      << "wire-format drift; regenerate with TGKS_UPDATE_GOLDEN=1 if "
         "intentional";
}

}  // namespace
}  // namespace tgks::server
