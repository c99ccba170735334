// Replay-equivalence differential suite for streaming ingest
// (docs/ingest.md): the SAME graph data handed to GraphBuilder in one shot
// versus a build of a prefix plus the remainder ingested in chunks through
// LiveGraph must be indistinguishable to a query — byte-identical result
// sets, identical stop reasons, and bit-identical work counters (the six
// gated quantities: pops, useless_pops, ntds_created, edges_scanned,
// subsumption_skips, subsumption_evictions).
//
// The suite sweeps 60 seeded random graphs (10 seeds x 6 rounds, the
// snapshot_reducibility_test recipe) and for each compares
//
//   1. the element level: every node and edge read through the snapshot's
//      graph view equals the build-once element with the same id;
//   2. the query level, pre-compaction: searches through the delta overlay
//      against the build-once graph, across bound kinds and k (bounded and
//      exhaustive);
//   3. the query level, post-compaction: the folded graph against the
//      build-once graph, exhaustively.
//
// Integer weights keep every distance an exact double, so all comparisons
// are == (no epsilon).
//
// The same datasets also drive the result cache's read-set validation
// (docs/caching.md, "Read sets"): grown one node per publish with the cache
// on the publish hook, every body the cache carries to a new snapshot must
// be byte-identical to a fresh, uncached search on that snapshot — also
// when a publish gave one of its expanded nodes an in-edge whose increment
// exceeds the node's slack — and a batch that adds a zero-increment
// in-edge to an expanded node must evict the entry.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/result_cache.h"
#include "common/random.h"
#include "exec/query_executor.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "ingest/live_graph.h"
#include "search/search_engine.h"
#include "server/request_router.h"
#include "temporal/interval_set.h"

namespace tgks::ingest {
namespace {

using graph::EdgeId;
using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using search::SearchEngine;
using search::SearchOptions;
using search::SearchResponse;
using search::UpperBoundKind;
using temporal::IntervalSet;
using temporal::TimePoint;

struct NodeSpec {
  std::string label;
  double weight = 0.0;
  IntervalSet validity;
};

struct EdgeSpec {
  NodeId src = 0;
  NodeId dst = 0;
  double weight = 1.0;
  IntervalSet validity;
};

/// One generated dataset in arrival order: nodes 0..N-1, then every edge in
/// the exact order both construction paths will assign edge ids.
struct Dataset {
  TimePoint horizon = 0;
  std::vector<NodeSpec> nodes;
  std::vector<EdgeSpec> edges;  ///< Ordered: base edges, then chunk by chunk.
  NodeId base_nodes = 0;        ///< Prefix built with GraphBuilder.
  EdgeId base_edges = 0;        ///< Prefix of `edges` built with GraphBuilder.
};

IntervalSet RandomWindow(Rng* rng, TimePoint horizon) {
  const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
  const TimePoint c = static_cast<TimePoint>(rng->Uniform(horizon));
  return IntervalSet{{std::min(a, c), std::max(a, c)}};
}

/// Random integer-weight dataset whose edges are all valid within their
/// endpoints' lifetimes (so GraphBuilder's kClamp and LiveGraph::Apply both
/// accept every element, and the two paths see identical data).
Dataset RandomDataset(Rng* rng, int num_nodes, int num_edges,
                      TimePoint horizon) {
  Dataset data;
  data.horizon = horizon;
  for (int i = 0; i < num_nodes; ++i) {
    NodeSpec node;
    // Two shared keyword words (k0..k4 buckets) plus a unique word, so
    // multi-keyword queries meet at trees spanning base and delta nodes.
    node.label = "k" + std::to_string(i % 5) + " k" +
                 std::to_string((i / 2) % 5) + " n" + std::to_string(i);
    node.weight = static_cast<double>(rng->Uniform(4));
    node.validity = RandomWindow(rng, horizon);
    data.nodes.push_back(std::move(node));
  }
  data.base_nodes = static_cast<NodeId>((num_nodes * 3) / 5);

  std::vector<EdgeSpec> generated;
  for (int i = 0; i < num_edges * 3 && static_cast<int>(generated.size()) <
                                           num_edges; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
    const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
    if (u == v) continue;
    EdgeSpec edge;
    edge.src = u;
    edge.dst = v;
    edge.weight = static_cast<double>(1 + rng->Uniform(4));
    edge.validity = RandomWindow(rng, horizon);
    const IntervalSet clamped = edge.validity
                                    .Intersect(data.nodes[u].validity)
                                    .Intersect(data.nodes[v].validity);
    if (clamped.IsEmpty()) continue;  // kClamp would reject; skip.
    generated.push_back(std::move(edge));
  }

  // Arrival order: an edge becomes ingestable once its latest endpoint
  // exists, so order edges by that endpoint's phase (base first, then delta
  // arrival order), stable within a phase. Both construction paths use
  // exactly this order, which is what makes edge ids line up.
  std::stable_sort(generated.begin(), generated.end(),
                   [&](const EdgeSpec& a, const EdgeSpec& b) {
                     const NodeId ga = std::max(a.src, a.dst);
                     const NodeId gb = std::max(b.src, b.dst);
                     const NodeId pa = ga < data.base_nodes ? 0 : ga;
                     const NodeId pb = gb < data.base_nodes ? 0 : gb;
                     return pa < pb;
                   });
  data.edges = std::move(generated);
  data.base_edges = 0;
  while (data.base_edges < static_cast<EdgeId>(data.edges.size()) &&
         std::max(data.edges[static_cast<size_t>(data.base_edges)].src,
                  data.edges[static_cast<size_t>(data.base_edges)].dst) <
             data.base_nodes) {
    ++data.base_edges;
  }
  return data;
}

/// The oracle: every element through one GraphBuilder.
TemporalGraph BuildOnce(const Dataset& data) {
  GraphBuilder b(data.horizon, graph::ValidityPolicy::kClamp);
  for (const NodeSpec& node : data.nodes) {
    b.AddNode(node.label, node.validity, node.weight);
  }
  for (const EdgeSpec& edge : data.edges) {
    b.AddEdge(edge.src, edge.dst, edge.validity, edge.weight);
  }
  auto built = b.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

/// The subject: the base prefix through GraphBuilder, the rest through
/// LiveGraph::Apply in `chunks` batches of nodes plus the edges those nodes
/// unlock. Endpoints landing in the current batch use the batch-relative
/// reference form; everything else is absolute.
std::unique_ptr<LiveGraph> BuildByIngest(const Dataset& data, int chunks) {
  GraphBuilder b(data.horizon, graph::ValidityPolicy::kClamp);
  for (NodeId n = 0; n < data.base_nodes; ++n) {
    const NodeSpec& node = data.nodes[static_cast<size_t>(n)];
    b.AddNode(node.label, node.validity, node.weight);
  }
  for (EdgeId e = 0; e < data.base_edges; ++e) {
    const EdgeSpec& edge = data.edges[static_cast<size_t>(e)];
    b.AddEdge(edge.src, edge.dst, edge.validity, edge.weight);
  }
  auto built = b.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  CompactionPolicy policy;
  policy.max_delta_bytes = 0;
  policy.max_delta_age_ms = 0;
  auto live =
      std::make_unique<LiveGraph>(std::move(built).value(), policy);

  const NodeId delta_nodes =
      static_cast<NodeId>(data.nodes.size()) - data.base_nodes;
  const NodeId per_chunk = std::max<NodeId>(1, (delta_nodes + chunks - 1) /
                                                   static_cast<NodeId>(chunks));
  EdgeId next_edge = data.base_edges;
  NodeId chunk_begin = data.base_nodes;
  while (chunk_begin < static_cast<NodeId>(data.nodes.size())) {
    const NodeId chunk_end = std::min<NodeId>(
        chunk_begin + per_chunk, static_cast<NodeId>(data.nodes.size()));
    IngestBatch batch;
    for (NodeId n = chunk_begin; n < chunk_end; ++n) {
      IngestNode node;
      node.label = data.nodes[static_cast<size_t>(n)].label;
      node.weight = data.nodes[static_cast<size_t>(n)].weight;
      node.validity = data.nodes[static_cast<size_t>(n)].validity;
      batch.nodes.push_back(std::move(node));
    }
    while (next_edge < static_cast<EdgeId>(data.edges.size()) &&
           std::max(data.edges[static_cast<size_t>(next_edge)].src,
                    data.edges[static_cast<size_t>(next_edge)].dst) <
               chunk_end) {
      const EdgeSpec& spec = data.edges[static_cast<size_t>(next_edge)];
      IngestEdge edge;
      if (spec.src >= chunk_begin) {
        edge.src_new = spec.src - chunk_begin;
      } else {
        edge.src = spec.src;
      }
      if (spec.dst >= chunk_begin) {
        edge.dst_new = spec.dst - chunk_begin;
      } else {
        edge.dst = spec.dst;
      }
      edge.weight = spec.weight;
      edge.validity = spec.validity;  // Apply clamps to the endpoints.
      batch.edges.push_back(std::move(edge));
      ++next_edge;
    }
    IngestErrorDetail error;
    const auto applied = live->Apply(batch, &error);
    EXPECT_TRUE(applied.ok())
        << error.message << " (chunk at node " << chunk_begin << ")";
    chunk_begin = chunk_end;
  }
  EXPECT_EQ(next_edge, static_cast<EdgeId>(data.edges.size()));
  return live;
}

void ExpectSameElements(const TemporalGraph& oracle,
                        const GraphSnapshotHandle& snap,
                        const std::string& context) {
  const graph::GraphView view = snap->view();
  ASSERT_EQ(view.num_nodes(), oracle.num_nodes()) << context;
  ASSERT_EQ(view.num_edges(), oracle.num_edges()) << context;
  for (NodeId n = 0; n < oracle.num_nodes(); ++n) {
    const graph::Node& got = view.node(n);
    EXPECT_EQ(got.label, oracle.node(n).label) << context << " node " << n;
    EXPECT_EQ(got.weight, oracle.node(n).weight) << context << " node " << n;
    EXPECT_TRUE(got.validity == oracle.node(n).validity)
        << context << " node " << n;
  }
  for (EdgeId e = 0; e < oracle.num_edges(); ++e) {
    const graph::Edge& got = view.edge(e);
    EXPECT_EQ(got.src, oracle.edge(e).src) << context << " edge " << e;
    EXPECT_EQ(got.dst, oracle.edge(e).dst) << context << " edge " << e;
    EXPECT_EQ(got.weight, oracle.edge(e).weight) << context << " edge " << e;
    EXPECT_TRUE(got.validity == oracle.edge(e).validity)
        << context << " edge " << e;
  }
}

void ExpectSameResponse(const SearchResponse& oracle,
                        const SearchResponse& got,
                        const std::string& context) {
  EXPECT_EQ(got.stop_reason, oracle.stop_reason) << context;
  EXPECT_EQ(got.exhausted(), oracle.exhausted()) << context;
  ASSERT_EQ(got.results.size(), oracle.results.size()) << context;
  for (size_t i = 0; i < oracle.results.size(); ++i) {
    const search::ResultTree& a = oracle.results[i];
    const search::ResultTree& b = got.results[i];
    EXPECT_EQ(b.Signature(), a.Signature()) << context << " result " << i;
    EXPECT_EQ(b.root, a.root) << context << " result " << i;
    EXPECT_EQ(b.nodes, a.nodes) << context << " result " << i;
    EXPECT_EQ(b.edges, a.edges) << context << " result " << i;
    EXPECT_TRUE(b.time == a.time) << context << " result " << i;
    EXPECT_EQ(b.total_weight, a.total_weight) << context << " result " << i;
    EXPECT_EQ(b.keyword_nodes, a.keyword_nodes)
        << context << " result " << i;
  }
  // The six gated work counters must be bit-identical: the overlay walk has
  // to reproduce EXACTLY the enumeration a build-once CSR would produce.
  EXPECT_EQ(got.counters.pops, oracle.counters.pops) << context;
  EXPECT_EQ(got.counters.useless_pops, oracle.counters.useless_pops)
      << context;
  EXPECT_EQ(got.counters.ntds_created, oracle.counters.ntds_created)
      << context;
  EXPECT_EQ(got.counters.edges_scanned, oracle.counters.edges_scanned)
      << context;
  EXPECT_EQ(got.counters.subsumption_skips, oracle.counters.subsumption_skips)
      << context;
  EXPECT_EQ(got.counters.subsumption_evictions,
            oracle.counters.subsumption_evictions)
      << context;
  EXPECT_EQ(got.counters.candidates, oracle.counters.candidates) << context;
  EXPECT_EQ(got.counters.results, oracle.counters.results) << context;
}

struct QueryConfig {
  int32_t k;
  UpperBoundKind bound;
};

constexpr QueryConfig kConfigs[] = {
    {3, UpperBoundKind::kEmpirical},
    {3, UpperBoundKind::kAccurate},
    {0, UpperBoundKind::kEmpirical},  // k <= 0: exhaustive.
};

const std::vector<std::vector<std::string>> kKeywordSets = {
    {"k0"},
    {"k1", "k2"},
    {"k3", "k4", "k0"},
};

void CheckReplayEquivalence(const Dataset& data, const std::string& context) {
  const TemporalGraph oracle_graph = BuildOnce(data);
  const graph::InvertedIndex oracle_index(oracle_graph);
  const SearchEngine oracle(oracle_graph, &oracle_index);

  auto live = BuildByIngest(data, /*chunks=*/3);
  const GraphSnapshotHandle snap = live->Acquire();
  ASSERT_NE(snap->view().overlay(), nullptr)
      << context << ": the chunked build produced no delta";
  ExpectSameElements(oracle_graph, snap, context + " pre-compaction");

  const SearchEngine subject(snap->view(), snap->index.get());
  for (const auto& keywords : kKeywordSets) {
    search::Query query;
    query.keywords = keywords;
    for (const QueryConfig& config : kConfigs) {
      SearchOptions options;
      options.k = config.k;
      options.bound = config.bound;
      const auto want = oracle.Search(query, options);
      const auto got = subject.Search(query, options);
      ASSERT_TRUE(want.ok()) << context;
      ASSERT_TRUE(got.ok()) << context;
      ExpectSameResponse(*want, *got,
                         context + " overlay k=" + std::to_string(config.k) +
                             " bound=" +
                             std::string(UpperBoundKindName(config.bound)) +
                             " q=" + query.ToString());
    }
  }

  // Fold the delta: the compacted snapshot must STILL be indistinguishable,
  // now with no overlay in the loop at all.
  ASSERT_TRUE(live->Compact(/*manual=*/true).ok()) << context;
  const GraphSnapshotHandle compacted = live->Acquire();
  ASSERT_EQ(compacted->overlay, nullptr) << context;
  ExpectSameElements(oracle_graph, compacted, context + " post-compaction");

  const SearchEngine folded(*compacted->graph, compacted->index.get());
  for (const auto& keywords : kKeywordSets) {
    search::Query query;
    query.keywords = keywords;
    SearchOptions options;
    options.k = 0;  // Exhaustive.
    const auto want = oracle.Search(query, options);
    const auto got = folded.Search(query, options);
    ASSERT_TRUE(want.ok()) << context;
    ASSERT_TRUE(got.ok()) << context;
    ExpectSameResponse(*want, *got,
                       context + " compacted q=" + query.ToString());
  }
}

/// One cached query of the read-set sweep: a keyword query, or a match-set
/// query over base nodes (which reads no postings).
struct CachedQuery {
  std::string key;
  exec::BatchQuery query;
  SearchOptions options;
};

std::vector<CachedQuery> CachedQueries(const Dataset& data) {
  std::vector<CachedQuery> out;
  for (const auto& keywords : kKeywordSets) {
    for (const QueryConfig& config : kConfigs) {
      CachedQuery q;
      q.query.query.keywords = keywords;
      q.options.k = config.k;
      q.options.bound = config.bound;
      q.key = q.query.query.ToString() + " k=" + std::to_string(config.k) +
              " " + std::string(UpperBoundKindName(config.bound));
      out.push_back(std::move(q));
    }
  }
  CachedQuery matches;
  matches.query.query.keywords = {"a", "b"};
  matches.query.matches = {{0, data.base_nodes - 1}, {data.base_nodes / 2}};
  matches.options.k = 3;
  matches.key = "matches";
  out.push_back(std::move(matches));
  return out;
}

/// Runs `q` on `snap` uncached; returns the response body and, through
/// `read_set`, what the search read.
std::string FreshBody(const GraphSnapshotHandle& snap, const CachedQuery& q,
                      cache::ReadSet* read_set) {
  const SearchEngine engine(snap->view(), snap->index.get());
  SearchOptions options = q.options;
  options.report_expanded_nodes = true;
  Result<SearchResponse> response =
      q.query.matches.empty()
          ? engine.Search(q.query.query, options)
          : engine.SearchWithMatches(q.query.query, q.query.matches, options);
  EXPECT_TRUE(response.ok()) << response.status();
  *read_set = server::SearchReadSet(q.query,
                                    std::move(response->expanded_nodes),
                                    std::move(response->expanded_slack));
  return server::JsonSearchBody(*response, 0.0, /*include_stats=*/false);
}

struct CarryCounts {
  int64_t lookups = 0;
  int64_t carried = 0;
  int64_t evicted = 0;
  /// Validations that carried an entry past a change set naming one of
  /// its nodes (CacheStats::carried_past_touch).
  int64_t past_touch = 0;
};

/// Looks every query up at the live graph's current snapshot. A carried
/// body must equal the fresh one; a miss stores the fresh one.
void CheckCarried(LiveGraph* live, cache::ResultCache* cache,
                  const std::vector<CachedQuery>& queries, CarryCounts* counts,
                  const std::string& context) {
  const GraphSnapshotHandle snap = live->Acquire();
  for (const CachedQuery& q : queries) {
    cache::ReadSet read_set;
    const std::string fresh = FreshBody(snap, q, &read_set);
    ++counts->lookups;
    if (const auto hit = cache->Lookup(q.key, snap->generation)) {
      ++counts->carried;
      EXPECT_EQ(*hit, fresh) << context << " generation " << snap->generation
                             << " q=" << q.key;
      continue;
    }
    cache->Insert(q.key, std::make_shared<const std::string>(fresh),
                  snap->generation, std::move(read_set));
  }
}

/// The read-set sweep over one dataset: the base through GraphBuilder, then
/// one publish per delta node (with the edges it unlocks), each followed by
/// a publish that attaches a fresh node by an out-edge only and one that
/// gives an existing node an in-edge of `touch_rng`'s weight from a fresh
/// node of `touch_rng`'s weight, then a compaction; every query is checked
/// after each publish.
void CheckCachedAnswers(const Dataset& data, const std::string& context,
                        Rng* touch_rng, CarryCounts* counts) {
  const int delta_nodes =
      static_cast<int>(data.nodes.size()) - static_cast<int>(data.base_nodes);
  Dataset base_only = data;
  base_only.nodes.resize(static_cast<size_t>(data.base_nodes));
  base_only.edges.resize(static_cast<size_t>(data.base_edges));
  auto live = BuildByIngest(base_only, /*chunks=*/1);
  cache::ResultCache cache(int64_t{1} << 30);
  live->set_on_publish([&cache](uint64_t generation, cache::ReadSet changes) {
    cache.Publish(generation, std::move(changes));
  });
  const std::vector<CachedQuery> queries = CachedQueries(data);
  CheckCarried(live.get(), &cache, queries, counts, context);

  const IntervalSet always{{0, data.horizon - 1}};
  // The live id of each dataset node published so far: each delta node
  // follows two extra publishes of one node per earlier delta node.
  std::vector<NodeId> live_id;
  for (NodeId n = 0; n < data.base_nodes; ++n) live_id.push_back(n);
  EdgeId next_edge = data.base_edges;
  for (NodeId n = data.base_nodes; n < data.base_nodes + delta_nodes; ++n) {
    live_id.push_back(live->Acquire()->view().num_nodes());
    IngestBatch batch;
    IngestNode node;
    node.label = data.nodes[static_cast<size_t>(n)].label;
    node.weight = data.nodes[static_cast<size_t>(n)].weight;
    node.validity = data.nodes[static_cast<size_t>(n)].validity;
    batch.nodes.push_back(std::move(node));
    while (next_edge < static_cast<EdgeId>(data.edges.size()) &&
           std::max(data.edges[static_cast<size_t>(next_edge)].src,
                    data.edges[static_cast<size_t>(next_edge)].dst) <= n) {
      const EdgeSpec& spec = data.edges[static_cast<size_t>(next_edge++)];
      IngestEdge edge;
      const auto ref = [&](NodeId id, NodeId* abs, int64_t* fresh) {
        if (id == n) {
          *fresh = 0;
        } else {
          *abs = live_id[static_cast<size_t>(id)];
        }
      };
      ref(spec.src, &edge.src, &edge.src_new);
      ref(spec.dst, &edge.dst, &edge.dst_new);
      edge.weight = spec.weight;
      edge.validity = spec.validity;
      batch.edges.push_back(std::move(edge));
    }
    IngestErrorDetail error;
    ASSERT_TRUE(live->Apply(batch, &error).ok()) << context << error.message;
    CheckCarried(live.get(), &cache, queries, counts, context);

    // Filler: a node whose only edge leaves an existing node. No in-slot
    // of an existing node changes and its word is in no query.
    IngestBatch filler;
    IngestNode lone;
    lone.label = "filler" + std::to_string(n);
    lone.validity = always;
    filler.nodes.push_back(std::move(lone));
    IngestEdge out_edge;
    out_edge.src = n % data.base_nodes;
    out_edge.dst_new = 0;
    filler.edges.push_back(std::move(out_edge));
    ASSERT_TRUE(live->Apply(filler, &error).ok()) << context << error.message;
    CheckCarried(live.get(), &cache, queries, counts, context);

    // Toucher: an in-edge into a dataset node. It carries an entry that
    // expanded the node only when its increment (edge weight + the fresh
    // node's weight) exceeds the node's slack.
    IngestBatch touch;
    IngestNode toucher;
    toucher.label = "toucher" + std::to_string(n);
    toucher.weight = static_cast<double>(touch_rng->Uniform(4));
    toucher.validity = always;
    touch.nodes.push_back(std::move(toucher));
    IngestEdge in_edge;
    in_edge.src_new = 0;
    in_edge.dst = live_id[touch_rng->Uniform(live_id.size())];
    in_edge.weight = static_cast<double>(touch_rng->Uniform(9));
    touch.edges.push_back(std::move(in_edge));
    ASSERT_TRUE(live->Apply(touch, &error).ok()) << context << error.message;
    CheckCarried(live.get(), &cache, queries, counts, context);
  }
  ASSERT_TRUE(live->Compact(/*manual=*/true).ok()) << context;
  CheckCarried(live.get(), &cache, queries, counts, context);
  counts->past_touch += cache.stats().carried_past_touch;

  // Negative control: a zero-increment in-edge (weight 0, from a weight-0
  // node) to a node the first query expanded. No slack is below zero.
  cache::ReadSet read_set;
  FreshBody(live->Acquire(), queries[0], &read_set);
  EXPECT_FALSE(read_set.nodes.empty()) << context;
  if (read_set.nodes.empty()) return;
  const int64_t before = cache.stats().entries;
  IngestBatch touch;
  IngestNode source;
  source.label = "toucher";
  source.validity = always;
  touch.nodes.push_back(std::move(source));
  IngestEdge in_edge;
  in_edge.src_new = 0;
  in_edge.dst = read_set.nodes.back();
  in_edge.weight = 0;
  touch.edges.push_back(std::move(in_edge));
  IngestErrorDetail error;
  ASSERT_TRUE(live->Apply(touch, &error).ok()) << context << error.message;
  EXPECT_EQ(cache.Lookup(queries[0].key, live->generation()), nullptr)
      << context;
  EXPECT_EQ(cache.stats().entries, before - 1) << context;
  ++counts->evicted;
}

class ReplayEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayEquivalenceTest, ChunkedIngestMatchesBuildOnce) {
  Rng rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const TimePoint horizon = 4 + static_cast<TimePoint>(rng.Uniform(5));
    const int num_nodes = 8 + static_cast<int>(rng.Uniform(8));
    const int num_edges = 2 * num_nodes + static_cast<int>(rng.Uniform(10));
    const Dataset data = RandomDataset(&rng, num_nodes, num_edges, horizon);
    const std::string context = "seed " + std::to_string(GetParam()) +
                                " round " + std::to_string(round);
    CheckReplayEquivalence(data, context);
  }
}

TEST_P(ReplayEquivalenceTest, CarriedCacheEntriesMatchFreshSearch) {
  Rng rng(GetParam());
  CarryCounts total;
  for (int round = 0; round < 6; ++round) {
    const TimePoint horizon = 4 + static_cast<TimePoint>(rng.Uniform(5));
    const int num_nodes = 8 + static_cast<int>(rng.Uniform(8));
    const int num_edges = 2 * num_nodes + static_cast<int>(rng.Uniform(10));
    const Dataset data = RandomDataset(&rng, num_nodes, num_edges, horizon);
    // The touching publishes draw from their own stream, so the datasets
    // stay those of ChunkedIngestMatchesBuildOnce.
    Rng touch_rng(GetParam() * 100 + static_cast<uint64_t>(round));
    CheckCachedAnswers(data,
                       "seed " + std::to_string(GetParam()) + " round " +
                           std::to_string(round),
                       &touch_rng, &total);
  }
  // Not vacuous: entries were carried, some past a change that named one
  // of their nodes, and every control evicted one.
  EXPECT_GT(total.carried, 0);
  EXPECT_LT(total.carried, total.lookups);
  EXPECT_GE(total.past_touch, 20);
  EXPECT_EQ(total.evicted, 6);
}

// 10 seeds x 6 rounds = 60 random graphs.
INSTANTIATE_TEST_SUITE_P(Seeds, ReplayEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99,
                                           110));

// Deterministic anchor: a hand-built two-phase graph where the delta edge
// crosses from a base node into the delta, exercising every reference form.
TEST(ReplayEquivalenceAnchorTest, HandBuiltTwoPhaseGraph) {
  Dataset data;
  data.horizon = 6;
  const IntervalSet always{{0, 5}};
  for (int i = 0; i < 5; ++i) {
    NodeSpec node;
    node.label = "k" + std::to_string(i % 2) + " n" + std::to_string(i);
    node.weight = static_cast<double>(i % 3);
    node.validity = always;
    data.nodes.push_back(std::move(node));
  }
  data.base_nodes = 3;
  data.edges = {
      {0, 1, 1.0, always},  // base
      {1, 2, 2.0, always},  // base
      {2, 3, 1.0, always},  // delta: base -> delta
      {3, 4, 1.0, always},  // delta: delta -> delta
      {4, 0, 2.0, always},  // delta: delta -> base
  };
  data.base_edges = 2;
  CheckReplayEquivalence(data, "hand-built anchor");
}

}  // namespace
}  // namespace tgks::ingest
