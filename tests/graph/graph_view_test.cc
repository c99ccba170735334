// Unit tests for GraphView (src/graph/graph_view.h): element counts and
// reads by id over the base alone and over base + delta, and an empty
// overlay reading exactly like none — the same slot reader, and the same
// pops, counters and answers in the frontier and the engine.

#include "graph/graph_view.h"

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "graph/delta_overlay.h"
#include "graph/inverted_index.h"
#include "graph/temporal_graph.h"
#include "search/best_path_iterator.h"
#include "search/search_engine.h"
#include "temporal/interval_set.h"
#include "testutil/paper_graphs.h"

namespace tgks::graph {
namespace {

using temporal::IntervalSet;

Node MakeNode(const std::string& label, double weight) {
  Node n;
  n.label = label;
  n.weight = weight;
  n.validity = IntervalSet{{0, 7}};
  return n;
}

Edge MakeEdge(NodeId src, NodeId dst, double weight) {
  Edge e;
  e.src = src;
  e.dst = dst;
  e.weight = weight;
  e.validity = IntervalSet{{2, 7}};
  return e;
}

/// Whether `view` hands its expansion loops the base-only slot reader.
bool ReadsBaseOnly(const GraphView& view) {
  return view.WithReader([](const auto& reader) {
    return std::is_same_v<std::decay_t<decltype(reader)>, BaseExpansionReader>;
  });
}

TEST(GraphViewTest, BaseAloneReadsTheBaseGraph) {
  const TemporalGraph base = testutil::MakeSocialNetworkGraph();
  const GraphView view = base;  // The implicit conversion.
  EXPECT_EQ(view.overlay(), nullptr);
  EXPECT_EQ(view.num_nodes(), base.num_nodes());
  EXPECT_EQ(view.num_edges(), base.num_edges());
  EXPECT_EQ(view.timeline_length(), base.timeline_length());
  for (NodeId n = 0; n < base.num_nodes(); ++n) {
    EXPECT_EQ(&view.node(n), &base.node(n)) << "node " << n;
  }
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    EXPECT_EQ(&view.edge(e), &base.edge(e)) << "edge " << e;
  }
  EXPECT_TRUE(view.DeltaPostings("mary").empty());
  EXPECT_TRUE(ReadsBaseOnly(view));
}

TEST(GraphViewTest, RoutesBaseAndDeltaIds) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph base = testutil::MakeSocialNetworkGraph(&ids);
  const NodeId kate = base.num_nodes();
  const EdgeId kate_in = base.num_edges();
  const auto overlay = DeltaOverlay::Extend(
      base, nullptr, {MakeNode("Kate", 2.0)},
      {MakeEdge(ids.mary, kate, 3.0), MakeEdge(kate, ids.john, 4.0)});
  const GraphView view(base, overlay.get());
  ASSERT_EQ(view.overlay(), overlay.get());
  EXPECT_EQ(view.num_nodes(), base.num_nodes() + 1);
  EXPECT_EQ(view.num_edges(), base.num_edges() + 2);

  // Base ids read the base graph's own elements.
  EXPECT_EQ(&view.node(ids.mary), &base.node(ids.mary));
  EXPECT_EQ(view.node(ids.john).label, "John");
  EXPECT_EQ(&view.edge(0), &base.edge(0));
  EXPECT_EQ(&view.edge(kate_in - 1), &base.edge(kate_in - 1));

  // Delta ids read the delta.
  EXPECT_EQ(view.node(kate).label, "Kate");
  EXPECT_EQ(view.node(kate).weight, 2.0);
  EXPECT_EQ(view.edge(kate_in).src, ids.mary);
  EXPECT_EQ(view.edge(kate_in).dst, kate);
  EXPECT_EQ(view.edge(kate_in).weight, 3.0);
  EXPECT_EQ(view.edge(kate_in + 1).src, kate);
  EXPECT_EQ(view.edge(kate_in + 1).dst, ids.john);
  EXPECT_TRUE(view.edge(kate_in + 1).validity == IntervalSet({{2, 7}}));

  ASSERT_EQ(view.DeltaPostings("Kate").size(), 1u);
  EXPECT_EQ(view.DeltaPostings("KATE")[0], kate);
  EXPECT_TRUE(view.DeltaPostings("mary").empty());
  EXPECT_FALSE(ReadsBaseOnly(view));
}

/// One pop, everything observable about it.
struct Pop {
  NodeId node;
  int32_t origin;
  double dist;
  std::string time;
  EdgeId via_edge;
  search::NtdId parent;

  bool operator==(const Pop&) const = default;
};

std::vector<Pop> Drain(search::BestPathIterator* iter) {
  std::vector<Pop> pops;
  for (search::NtdId id = iter->Next(); id != search::kInvalidNtd;
       id = iter->Next()) {
    const search::Ntd& ntd = iter->ntd(id);
    pops.push_back(Pop{ntd.node, ntd.origin, ntd.dist,
                       iter->TimeOf(id).ToString(), ntd.via_edge,
                       ntd.parent});
  }
  return pops;
}

void ExpectSameStats(const search::IteratorStats& a,
                     const search::IteratorStats& b) {
  EXPECT_EQ(a.ntds_pushed, b.ntds_pushed);
  EXPECT_EQ(a.ntds_popped, b.ntds_popped);
  EXPECT_EQ(a.useless_pops, b.useless_pops);
  EXPECT_EQ(a.edges_scanned, b.edges_scanned);
  EXPECT_EQ(a.nodes_reached, b.nodes_reached);
  EXPECT_EQ(a.subsumption_skips, b.subsumption_skips);
  EXPECT_EQ(a.subsumption_evictions, b.subsumption_evictions);
  EXPECT_EQ(a.prunes, b.prunes);
  EXPECT_EQ(a.interval_ops, b.interval_ops);
  EXPECT_EQ(a.heap_high_water, b.heap_high_water);
}

TEST(GraphViewTest, EmptyOverlayReadsExactlyLikeNone) {
  testutil::SocialNetworkIds ids;
  const TemporalGraph base = testutil::MakeSocialNetworkGraph(&ids);
  const auto empty = DeltaOverlay::Extend(base, nullptr, {}, {});
  ASSERT_TRUE(empty->empty());
  const GraphView plain(base);
  const GraphView with_empty(base, empty.get());

  // Stored as no overlay: the same counts and the same reader.
  EXPECT_EQ(with_empty.overlay(), nullptr);
  EXPECT_EQ(with_empty.num_nodes(), plain.num_nodes());
  EXPECT_EQ(with_empty.num_edges(), plain.num_edges());
  EXPECT_TRUE(ReadsBaseOnly(with_empty));

  // The same pops and counters, under every ranking.
  const std::vector<NodeId> sources = {ids.mary, ids.john};
  for (const search::RankFactor factor :
       {search::RankFactor::kRelevance, search::RankFactor::kEndTimeDesc,
        search::RankFactor::kStartTimeAsc,
        search::RankFactor::kDurationDesc}) {
    SCOPED_TRACE(std::string(search::RankFactorName(factor)));
    search::BestPathIterator::Options options;
    options.ranking.factors = {factor};
    search::BestPathIterator a(plain, sources, options);
    search::BestPathIterator b(with_empty, sources, options);
    const std::vector<Pop> pops = Drain(&a);
    EXPECT_FALSE(pops.empty());
    EXPECT_EQ(Drain(&b), pops);
    ExpectSameStats(b.stats(), a.stats());
  }

  // The same answers and work in the engine.
  const InvertedIndex index(base);
  const search::SearchEngine a(plain, &index);
  const search::SearchEngine b(with_empty, &index);
  search::Query query;
  query.keywords = {"Mary", "John"};
  search::SearchOptions options;
  options.k = 0;
  const auto want = a.Search(query, options);
  const auto got = b.Search(query, options);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_FALSE(want->results.empty());
  EXPECT_EQ(got->stop_reason, want->stop_reason);
  ASSERT_EQ(got->results.size(), want->results.size());
  for (size_t i = 0; i < want->results.size(); ++i) {
    EXPECT_EQ(got->results[i].Signature(), want->results[i].Signature());
    EXPECT_EQ(got->results[i].total_weight, want->results[i].total_weight);
  }
  EXPECT_EQ(got->counters.pops, want->counters.pops);
  EXPECT_EQ(got->counters.useless_pops, want->counters.useless_pops);
  EXPECT_EQ(got->counters.ntds_created, want->counters.ntds_created);
  EXPECT_EQ(got->counters.edges_scanned, want->counters.edges_scanned);
  EXPECT_EQ(got->counters.candidates, want->counters.candidates);
  EXPECT_EQ(got->counters.results, want->counters.results);
}

}  // namespace
}  // namespace tgks::graph
