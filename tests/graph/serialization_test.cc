#include "graph/serialization.h"

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "graph/reachability_index.h"
#include "testutil/paper_graphs.h"

namespace tgks::graph {
namespace {

using temporal::Interval;
using temporal::IntervalSet;

TEST(ValidityLiteralTest, ParseSingleInterval) {
  auto r = ParseValidity("@[2,5]", 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, IntervalSet(Interval(2, 5)));
}

TEST(ValidityLiteralTest, ParseMultipleIntervals) {
  auto r = ParseValidity("@[0,1][4,4][8,9]", 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (IntervalSet{{0, 1}, {4, 4}, {8, 9}}));
}

TEST(ValidityLiteralTest, ParseStar) {
  auto r = ParseValidity("@*", 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, IntervalSet::All(7));
}

TEST(ValidityLiteralTest, RejectsMalformed) {
  for (const char* bad : {"", "[0,1]", "@", "@[1,0]", "@[a,b]", "@[0,1",
                          "@(0,1)", "@[0,1]x"}) {
    EXPECT_FALSE(ParseValidity(bad, 10).ok()) << bad;
  }
}

TEST(ValidityLiteralTest, FormatRoundTrip) {
  const IntervalSet sets[] = {
      IntervalSet{{0, 3}},
      IntervalSet{{0, 1}, {5, 6}},
      IntervalSet::All(10),
  };
  for (const auto& s : sets) {
    auto parsed = ParseValidity(FormatValidity(s, 10), 10);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, s);
  }
}

TEST(SerializationTest, SaveLoadRoundTrip) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  std::ostringstream out;
  ASSERT_TRUE(SaveGraph(g, out).ok());
  std::istringstream in(out.str());
  auto loaded = LoadGraph(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_nodes(), g.num_nodes());
  ASSERT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_EQ(loaded->timeline_length(), g.timeline_length());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(loaded->node(n).label, g.node(n).label);
    EXPECT_EQ(loaded->node(n).validity, g.node(n).validity);
    EXPECT_DOUBLE_EQ(loaded->node(n).weight, g.node(n).weight);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded->edge(e).src, g.edge(e).src);
    EXPECT_EQ(loaded->edge(e).dst, g.edge(e).dst);
    EXPECT_EQ(loaded->edge(e).validity, g.edge(e).validity);
  }
}

TEST(SerializationTest, LabelsWithSpacesSurvive) {
  GraphBuilder b(5);
  b.AddNode("Keyword Search on Temporal Graphs", IntervalSet{{0, 4}});
  b.AddNode("J. Gray", IntervalSet{{1, 3}});
  b.AddEdge(0, 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  std::ostringstream out;
  ASSERT_TRUE(SaveGraph(*g, out).ok());
  std::istringstream in(out.str());
  auto loaded = LoadGraph(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->node(0).label, "Keyword Search on Temporal Graphs");
  EXPECT_EQ(loaded->node(1).label, "J. Gray");
}

TEST(SerializationTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "tgf 1\n"
      "# a comment\n"
      "\n"
      "timeline 5\n"
      "node 0 0 @[0,4] a\n"
      "  # indented comment\n"
      "node 1 0 @[0,4] b\n"
      "edge 0 1 1 @[1,2]\n";
  std::istringstream in(text);
  auto g = LoadGraph(in);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->num_nodes(), 2);
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_EQ(g->edge(0).validity, IntervalSet(Interval(1, 2)));
}

TEST(SerializationTest, RejectsCorruptInputs) {
  const char* cases[] = {
      "",                                                // No header.
      "tgf 2\ntimeline 5\n",                             // Wrong version.
      "tgf 1\n",                                         // Missing timeline.
      "tgf 1\ntimeline 0\n",                             // Bad horizon.
      "tgf 1\ntimeline 5\nnode 1 0 @* a\n",              // Non-dense ids.
      "tgf 1\ntimeline 5\nnode 0 0 @* a\nedge 0 1 1 @*\n",  // Dangling edge.
      "tgf 1\ntimeline 5\nnode 0 x @* a\n",              // Bad weight.
      "tgf 1\ntimeline 5\nwhat 0\n",                     // Unknown record.
      "tgf 1\ntimeline 5\nnode 0 0 @[9,9] a\nnode 1 0 @* b\n"
      "edge 0 1 1 @[0,0]\n",  // Edge outside endpoint validity (strict).
  };
  for (const char* text : cases) {
    std::istringstream in(text);
    EXPECT_FALSE(LoadGraph(in).ok()) << text;
  }
}

TEST(SerializationTest, RejectsNonFiniteWeights) {
  const char* cases[] = {
      "node 0 nan @* a\nnode 1 0 @* b\nedge 0 1 1 @*\n",
      "node 0 inf @* a\nnode 1 0 @* b\nedge 0 1 1 @*\n",
      "node 0 0 @* a\nnode 1 0 @* b\nedge 0 1 nan @*\n",
      "node 0 0 @* a\nnode 1 0 @* b\nedge 0 1 inf @*\n",
  };
  for (const char* records : cases) {
    std::istringstream in(std::string("tgf 1\ntimeline 5\n") + records);
    const auto loaded = LoadGraph(in);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << records;
  }
}

TEST(BinarySerializationTest, RoundTrip) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(SaveGraphBinary(g, buffer).ok());
  auto loaded = LoadGraphBinary(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_nodes(), g.num_nodes());
  ASSERT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_EQ(loaded->timeline_length(), g.timeline_length());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(loaded->node(n).label, g.node(n).label);
    EXPECT_EQ(loaded->node(n).validity, g.node(n).validity);
    EXPECT_DOUBLE_EQ(loaded->node(n).weight, g.node(n).weight);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(loaded->edge(e).src, g.edge(e).src);
    EXPECT_EQ(loaded->edge(e).dst, g.edge(e).dst);
    EXPECT_EQ(loaded->edge(e).validity, g.edge(e).validity);
    EXPECT_DOUBLE_EQ(loaded->edge(e).weight, g.edge(e).weight);
  }
}

TEST(BinarySerializationTest, PreservesExoticValues) {
  GraphBuilder b(100);
  b.AddNode("weight\tand\nnewlines in labels survive binary",
            IntervalSet{{0, 3}, {50, 99}}, 0.125);
  b.AddNode("", IntervalSet{{7, 7}, {50, 60}}, 1e300);
  b.AddEdge(0, 1, IntervalSet{{50, 55}}, 3.5);
  auto g = b.Build();
  ASSERT_TRUE(g.ok()) << g.status();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(SaveGraphBinary(*g, buffer).ok());
  auto loaded = LoadGraphBinary(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->node(0).label,
            "weight\tand\nnewlines in labels survive binary");
  EXPECT_DOUBLE_EQ(loaded->node(1).weight, 1e300);
  EXPECT_EQ(loaded->edge(0).validity, g->edge(0).validity);
}

/// Little-endian writer for hand-made .tgb files.
class TgbWriter {
 public:
  TgbWriter& U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
    return *this;
  }
  TgbWriter& I32s(const std::vector<int32_t>& v) {
    for (const int32_t x : v) U32(static_cast<uint32_t>(x));
    return *this;
  }
  TgbWriter& F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
    }
    return *this;
  }
  TgbWriter& Raw(const std::string& s) {
    bytes_ += s;
    return *this;
  }
  /// One node record: weight 0, `label`, valid at instant 0 only.
  TgbWriter& Node(const std::string& label) {
    return F64(0.0).U32(static_cast<uint32_t>(label.size())).Raw(label)
        .U32(1).I32s({0, 0});
  }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

/// The labeling fields RejectsCorruptInput corrupts; the defaults are the
/// labels a version-4 save gave the graph 0 -> 1 on a one-instant timeline.
struct TwoNodeBlob {
  uint32_t num_sccs = 2;
  std::vector<int32_t> dag_offsets = {0, 1, 1};
  std::vector<int32_t> out_offsets = {0, 1, 2};
};

/// A version-4 file of the graph 0 -> 1, valid at instant 0 only, with one
/// epoch whose labeling blob carries `blob`'s fields.
std::string TwoNodeTgb(const TwoNodeBlob& blob) {
  TgbWriter w;
  w.Raw("TGKB").U32(4).U32(1).U32(2).U32(1);
  w.Node("a").Node("b");
  w.U32(0).U32(1).F64(1.0).U32(1).I32s({0, 0});  // Edge 0 -> 1.
  w.U32(1);                                      // One epoch.
  w.I32s({0, 0}).U32(blob.num_sccs);             // [0, 0], SCC count.
  w.I32s({0, 1});                                // scc_of
  w.I32s(blob.dag_offsets).I32s({1});            // Condensed DAG.
  w.I32s({0, 0}).I32s({0, 1}).U32(1);            // One chain: 0, 1.
  w.I32s(blob.out_offsets).I32s({0, 0, 0, 1}).Raw(std::string(2, '\x01'));
  w.I32s({0, 1, 2}).I32s({0, 0, 0, 1}).Raw(std::string(2, '\x01'));
  return w.bytes();
}

/// Loads `bytes`, which must succeed, and checks that the reachability index
/// is built from the loaded records (any stored blob is ignored).
Result<TemporalGraph> LoadIgnoringBlob(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  auto loaded = LoadGraphBinary(in);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (loaded.ok()) {
    EXPECT_TRUE(loaded->reachability().IdenticalTo(
        ReachabilityIndex::Build(*loaded)));
  }
  return loaded;
}

TEST(BinarySerializationTest, RejectsCorruptInput) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(SaveGraphBinary(g, buffer).ok());
  const std::string blob = buffer.str();
  // Wrong magic.
  {
    std::string bad = blob;
    bad[0] = 'X';
    std::istringstream in(bad, std::ios::binary);
    EXPECT_EQ(LoadGraphBinary(in).status().code(), StatusCode::kCorruption);
  }
  // Truncations at every prefix length must error, never crash.
  for (const size_t cut : {0ul, 3ul, 9ul, 17ul, blob.size() / 2}) {
    std::istringstream in(blob.substr(0, cut), std::ios::binary);
    EXPECT_FALSE(LoadGraphBinary(in).ok()) << cut;
  }
  // Implausible node count.
  {
    std::string bad = blob;
    bad[12] = '\xFF';
    bad[13] = '\xFF';
    bad[14] = '\xFF';
    bad[15] = '\x7F';
    std::istringstream in(bad, std::ios::binary);
    EXPECT_FALSE(LoadGraphBinary(in).ok());
  }
  // A version-4 file loads its graph records and ignores the labeling
  // blob after them, sound...
  {
    auto loaded = LoadIgnoringBlob(TwoNodeTgb({}));
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->num_nodes(), 2);
    ASSERT_EQ(loaded->num_edges(), 1);
    EXPECT_EQ(loaded->node(0).label, "a");
    EXPECT_EQ(loaded->node(1).label, "b");
    EXPECT_EQ(loaded->edge(0).src, 0);
    EXPECT_EQ(loaded->edge(0).dst, 1);
    EXPECT_DOUBLE_EQ(loaded->edge(0).weight, 1.0);
    EXPECT_TRUE(loaded->reachability().CanReach(0, 0, 1));
  }
  // ...or corrupt: too many SCCs, condensed edges, or label entries.
  {
    TwoNodeBlob blob;
    blob.num_sccs = 3;
    EXPECT_TRUE(LoadIgnoringBlob(TwoNodeTgb(blob)).ok());
  }
  {
    TwoNodeBlob blob;
    blob.dag_offsets = {0, 2, 2};
    EXPECT_TRUE(LoadIgnoringBlob(TwoNodeTgb(blob)).ok());
  }
  {
    TwoNodeBlob blob;
    const int32_t over = ReachabilityIndex::kMaxLabelEntries + 1;
    blob.out_offsets = {0, over, over};
    EXPECT_TRUE(LoadIgnoringBlob(TwoNodeTgb(blob)).ok());
  }
  // A 65-byte file claiming 2^28 - 1 SCCs for one node sizes nothing by
  // the claim: the blob is never read.
  {
    TgbWriter w;
    w.Raw("TGKB").U32(4).U32(1).U32(1).U32(0).Node("a");
    w.U32(1).I32s({0, 0}).U32((1u << 28) - 1).I32s({0});
    ASSERT_EQ(w.bytes().size(), 65u);
    auto loaded = LoadIgnoringBlob(w.bytes());
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->num_nodes(), 1);
  }
}

TEST(BinarySerializationTest, RejectsNonFiniteWeights) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(SaveGraphBinary(g, buffer).ok());
  const std::string blob = buffer.str();
  // Node 0's weight is the first field after the 20-byte header (magic,
  // version, timeline, node and edge counts): patch it with a NaN or an
  // infinity, little-endian as WriteF64 stores it.
  constexpr size_t kNode0Weight = 20;
  for (const uint64_t bits : {0x7FF8000000000000ull, 0x7FF0000000000000ull}) {
    std::string bad = blob;
    for (int i = 0; i < 8; ++i) {
      bad[kNode0Weight + static_cast<size_t>(i)] =
          static_cast<char>((bits >> (8 * i)) & 0xFF);
    }
    std::istringstream in(bad, std::ios::binary);
    EXPECT_EQ(LoadGraphBinary(in).status().code(),
              StatusCode::kInvalidArgument)
        << std::hex << bits;
  }
}

TEST(BinarySerializationTest, FileRoundTrip) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const std::string path = ::testing::TempDir() + "/social.tgb";
  ASSERT_TRUE(SaveGraphBinaryToFile(g, path).ok());
  auto loaded = LoadGraphBinaryFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_FALSE(LoadGraphBinaryFromFile(path + ".missing").ok());
}

TEST(SerializationTest, FileRoundTrip) {
  const TemporalGraph g = testutil::MakeSocialNetworkGraph();
  const std::string path = ::testing::TempDir() + "/social.tgf";
  ASSERT_TRUE(SaveGraphToFile(g, path).ok());
  auto loaded = LoadGraphFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_FALSE(LoadGraphFromFile(path + ".missing").ok());
}

}  // namespace
}  // namespace tgks::graph
