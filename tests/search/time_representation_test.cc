// Narrow-vs-wide equivalence of the search's two time representations.
//
// On timelines of at most TimeMask::kCapacity (128) instants the best path
// iterators, the expansion view and candidate generation run on TimeMasks;
// longer timelines run the same code on IntervalSets. Both must be
// indistinguishable. The suite builds each of 60 seeded random graphs (10
// seeds x 6 rounds) twice with the same elements: at its own timeline (6 to
// 128 instants, mask path) and padded to 200 instants (interval path,
// graph::RebuildWithTimeline). Validities carry up to three intervals, so
// masks hold several runs, in both words. It then checks
//
//   1. iterator level: the same pop sequence (ids, nodes, distances,
//      parents, edges, times), the same per-source pops at every node and
//      every IteratorStats counter, for all four rankings, with and without
//      the predicate prune; and on each path, every source's nodes_reached
//      equals the distinct nodes it popped;
//   2. engine level: the same answers, stop reasons, every SearchCounters
//      field and the observability counters (interval_ops and
//      heap_high_water included), across rankings, predicates, bounded and
//      exhaustive k (pop-capped);
//   3. the same with a delta overlay over a base prefix of the graph.

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/delta_overlay.h"
#include "graph/graph_view.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "search/best_path_iterator.h"
#include "search/search_engine.h"
#include "temporal/interval_set.h"
#include "temporal/time_mask.h"
#include "testutil/pop_recorder.h"

namespace tgks::search {
namespace {

using graph::EdgeId;
using graph::GraphBuilder;
using graph::NodeId;
using graph::TemporalGraph;
using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimeMask;
using temporal::TimePoint;

constexpr TimePoint kWideTimeline = 200;
constexpr int kKeywordBuckets = 5;

constexpr RankFactor kFactors[] = {
    RankFactor::kRelevance, RankFactor::kEndTimeDesc,
    RankFactor::kStartTimeAsc, RankFactor::kDurationDesc};

/// 1-3 random intervals within [0, horizon).
IntervalSet RandomValidity(Rng* rng, TimePoint horizon) {
  std::vector<Interval> ivs;
  const int n = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < n; ++i) {
    const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
    const TimePoint b = static_cast<TimePoint>(rng->Uniform(horizon));
    ivs.emplace_back(std::min(a, b), std::max(a, b));
  }
  return IntervalSet(ivs);
}

/// Labels put every node in two of kKeywordBuckets keyword buckets, so
/// multi-keyword queries meet. Integer weights keep distances exact.
TemporalGraph RandomGraph(Rng* rng, int num_nodes, int num_edges,
                          TimePoint horizon) {
  GraphBuilder b(horizon, graph::ValidityPolicy::kClamp);
  std::vector<IntervalSet> node_validity;
  for (int i = 0; i < num_nodes; ++i) {
    node_validity.push_back(RandomValidity(rng, horizon));
    b.AddNode("k" + std::to_string(i % kKeywordBuckets) + " k" +
                  std::to_string((i / 2) % kKeywordBuckets),
              node_validity.back(), static_cast<double>(rng->Uniform(3)));
  }
  int added = 0;
  for (int i = 0; i < num_edges * 4 && added < num_edges; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(num_nodes));
    const NodeId v = static_cast<NodeId>(rng->Uniform(num_nodes));
    if (u == v) continue;
    IntervalSet validity = RandomValidity(rng, horizon);
    if (validity.Intersect(node_validity[static_cast<size_t>(u)])
            .Intersect(node_validity[static_cast<size_t>(v)])
            .IsEmpty()) {
      continue;  // kClamp would reject it.
    }
    b.AddEdge(u, v, std::move(validity),
              static_cast<double>(1 + rng->Uniform(4)));
    ++added;
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TemporalGraph Widen(const TemporalGraph& g) {
  auto wide = graph::RebuildWithTimeline(g, kWideTimeline);
  EXPECT_TRUE(wide.ok()) << wide.status();
  return std::move(wide).value();
}

/// Predicates whose element pruning and final checks touch every window
/// shape: a single instant, an inner window, one reaching past the mask's
/// capacity, and a disjunction.
std::vector<std::shared_ptr<const PredicateExpr>> RandomPredicates(
    Rng* rng, TimePoint horizon) {
  const TimePoint t = static_cast<TimePoint>(rng->Uniform(horizon));
  const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
  const TimePoint b = static_cast<TimePoint>(rng->Uniform(horizon));
  const TimePoint lo = std::min(a, b);
  const TimePoint hi = std::max(a, b);
  return {
      PredicateExpr::Atom(PredicateOp::kOverlaps, lo, hi),
      PredicateExpr::Atom(PredicateOp::kContains, lo, std::min(lo + 2, hi)),
      PredicateExpr::Atom(PredicateOp::kContains, hi, hi + 150),
      PredicateExpr::Or({PredicateExpr::Atom(PredicateOp::kPrecedes, t),
                         PredicateExpr::Atom(PredicateOp::kMeets, hi)}),
      PredicateExpr::And({PredicateExpr::Atom(PredicateOp::kFollows, t),
                          PredicateExpr::Atom(PredicateOp::kContainedBy,
                                              lo, hi)}),
  };
}

/// Nodes whose label carries keyword bucket `k`, over base + delta nodes.
std::vector<NodeId> Bucket(graph::GraphView g, int k) {
  const std::string word = "k" + std::to_string(k);
  std::vector<NodeId> out;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.node(n).label.find(word) != std::string::npos) out.push_back(n);
  }
  return out;
}

void ExpectSameStats(const IteratorStats& a, const IteratorStats& b,
                     const std::string& ctx) {
  EXPECT_EQ(a.ntds_pushed, b.ntds_pushed) << ctx;
  EXPECT_EQ(a.ntds_popped, b.ntds_popped) << ctx;
  EXPECT_EQ(a.useless_pops, b.useless_pops) << ctx;
  EXPECT_EQ(a.edges_scanned, b.edges_scanned) << ctx;
  EXPECT_EQ(a.nodes_reached, b.nodes_reached) << ctx;
  EXPECT_EQ(a.subsumption_skips, b.subsumption_skips) << ctx;
  EXPECT_EQ(a.subsumption_evictions, b.subsumption_evictions) << ctx;
  EXPECT_EQ(a.prunes, b.prunes) << ctx;
  EXPECT_EQ(a.interval_ops, b.interval_ops) << ctx;
  EXPECT_EQ(a.heap_high_water, b.heap_high_water) << ctx;
}

/// Drains both frontiers in lockstep and compares everything observable.
void ExpectSameFrontier(graph::GraphView narrow, graph::GraphView wide,
                        const std::vector<NodeId>& sources,
                        const BestPathIterator::Options& options,
                        const std::string& ctx) {
  BestPathIterator n_iter(narrow, sources, options);
  BestPathIterator w_iter(wide, sources, options);
  ASSERT_TRUE(n_iter.uses_time_masks()) << ctx;
  ASSERT_FALSE(w_iter.uses_time_masks()) << ctx;
  testutil::PopRecorder n_pops(&n_iter);
  testutil::PopRecorder w_pops(&w_iter);
  for (int pop = 0;; ++pop) {
    const ScoreKey* n_peek = n_iter.PeekScore();
    const ScoreKey* w_peek = w_iter.PeekScore();
    ASSERT_EQ(n_peek == nullptr, w_peek == nullptr) << ctx << " pop " << pop;
    if (n_peek == nullptr) break;
    ASSERT_TRUE(*n_peek == *w_peek) << ctx << " pop " << pop;
    const NtdId n_id = n_pops.Next();
    const NtdId w_id = w_pops.Next();
    ASSERT_EQ(n_id, w_id) << ctx << " pop " << pop;
    const Ntd& a = n_iter.ntd(n_id);
    const Ntd& b = w_iter.ntd(w_id);
    ASSERT_EQ(a.node, b.node) << ctx << " pop " << pop;
    ASSERT_EQ(a.origin, b.origin) << ctx << " pop " << pop;
    ASSERT_EQ(a.dist, b.dist) << ctx << " pop " << pop;
    ASSERT_EQ(a.parent, b.parent) << ctx << " pop " << pop;
    ASSERT_EQ(a.via_edge, b.via_edge) << ctx << " pop " << pop;
    ASSERT_EQ(n_iter.TimeOf(n_id), w_iter.TimeOf(w_id)) << ctx << " pop "
                                                        << pop;
  }
  ASSERT_EQ(n_iter.num_ntds(), w_iter.num_ntds()) << ctx;
  ExpectSameStats(n_iter.stats(), w_iter.stats(), ctx);
  for (int32_t origin = 0; origin < n_iter.num_sources(); ++origin) {
    for (NodeId v = 0; v < narrow.num_nodes(); ++v) {
      const auto got = n_pops.At(v, origin);
      const auto want = w_pops.At(v, origin);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << ctx << " source " << origin << " node " << v;
    }
  }
}

void ExpectSameResponse(const SearchResponse& a, const SearchResponse& b,
                        const std::string& ctx) {
  EXPECT_EQ(a.stop_reason, b.stop_reason) << ctx;
  EXPECT_EQ(a.exhausted(), b.exhausted()) << ctx;
  EXPECT_EQ(a.truncated, b.truncated) << ctx;
  ASSERT_EQ(a.results.size(), b.results.size()) << ctx;
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].Signature(), b.results[i].Signature())
        << ctx << " result " << i;
    EXPECT_EQ(a.results[i].time, b.results[i].time) << ctx << " result " << i;
    EXPECT_EQ(a.results[i].total_weight, b.results[i].total_weight)
        << ctx << " result " << i;
    EXPECT_EQ(a.results[i].score, b.results[i].score)
        << ctx << " result " << i;
  }
  // Every table entry but the phase times, which are wall clock.
#define TGKS_EXPECT_SAME(type, name, kind, help)                     \
  if (obs::FieldKind::kind != obs::FieldKind::kSeconds) {            \
    EXPECT_EQ(a.counters.name, b.counters.name) << ctx << " " #name; \
  }
  TGKS_SEARCH_COUNTERS(TGKS_EXPECT_SAME)
#undef TGKS_EXPECT_SAME
#define TGKS_EXPECT_SAME(type, name, kind, help) \
  EXPECT_EQ(a.stats.name, b.stats.name) << ctx << " " #name;
  TGKS_SEARCH_STATS(TGKS_EXPECT_SAME)
#undef TGKS_EXPECT_SAME
}

/// One seeded graph, built narrow (own timeline) and wide (padded).
class TimeRepresentationTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {
 protected:
  void SetUp() override {
    const auto [seed, round] = GetParam();
    rng_ = std::make_unique<Rng>(seed * 104729 + static_cast<uint64_t>(round));
    const int nodes = 8 + static_cast<int>(rng_->Uniform(24));
    const int edges = nodes + static_cast<int>(rng_->Uniform(3 * nodes));
    // Horizons span both mask words, up to the full 128-instant capacity.
    horizon_ = 6 + static_cast<TimePoint>(rng_->Uniform(123));
    narrow_ = RandomGraph(rng_.get(), nodes, edges, horizon_);
    wide_ = Widen(narrow_);
    context_ = "seed " + std::to_string(seed) + " round " +
               std::to_string(round) + " horizon " + std::to_string(horizon_);
  }

  std::unique_ptr<Rng> rng_;
  TimePoint horizon_ = 0;
  TemporalGraph narrow_;
  TemporalGraph wide_;
  std::string context_;
};

TEST_P(TimeRepresentationTest, FrontiersPopIdentically) {
  const std::vector<NodeId> sources = Bucket(narrow_, 0);
  const auto predicates = RandomPredicates(rng_.get(), horizon_);
  for (const RankFactor factor : kFactors) {
    BestPathIterator::Options options;
    options.ranking.factors = {factor};
    const std::string ctx =
        context_ + " factor " + std::to_string(static_cast<int>(factor));
    ExpectSameFrontier(narrow_, wide_, sources, options, ctx);
    for (size_t p = 0; p < predicates.size(); ++p) {
      options.prune = predicates[p].get();
      ExpectSameFrontier(narrow_, wide_, sources, options,
                         ctx + " predicate " + std::to_string(p));
    }
  }
}

// nodes_reached is counted where a source first claims a node (partition)
// or first pops one (subsumption), not read off a pop list; it must still
// equal the distinct nodes each source popped, on both time paths.
TEST_P(TimeRepresentationTest, NodesReachedCountsDistinctPoppedNodes) {
  const std::vector<NodeId> sources = Bucket(narrow_, 0);
  const auto predicates = RandomPredicates(rng_.get(), horizon_);
  for (const RankFactor factor : kFactors) {
    for (const PredicateExpr* prune : {static_cast<const PredicateExpr*>(
                                           nullptr),
                                       predicates[0].get()}) {
      BestPathIterator::Options options;
      options.ranking.factors = {factor};
      options.prune = prune;
      for (const TemporalGraph* g : {&narrow_, &wide_}) {
        const std::string ctx =
            context_ + " factor " + std::to_string(static_cast<int>(factor)) +
            (prune != nullptr ? " pruned" : "") +
            (g == &wide_ ? " wide" : " narrow");
        BestPathIterator iter(*g, sources, options);
        ASSERT_EQ(iter.uses_time_masks(), g == &narrow_) << ctx;
        testutil::PopRecorder pops(&iter);
        for (NtdId id = pops.Next(); id != kInvalidNtd; id = pops.Next()) {
          // After every pop, not only once drained: a count taken when a
          // node is first pushed would run ahead of the pops until then.
          const int32_t origin = iter.ntd(id).origin;
          ASSERT_EQ(iter.nodes_reached(origin), pops.NodesReached(origin))
              << ctx << " source " << origin;
        }
        int64_t total = 0;
        for (int32_t origin = 0; origin < iter.num_sources(); ++origin) {
          total += pops.NodesReached(origin);
        }
        EXPECT_EQ(iter.nodes_reached(), total) << ctx;
      }
    }
  }
}

TEST_P(TimeRepresentationTest, EnginesAnswerIdentically) {
  const graph::InvertedIndex n_index(narrow_);
  const graph::InvertedIndex w_index(wide_);
  const SearchEngine n_engine(narrow_, &n_index);
  const SearchEngine w_engine(wide_, &w_index);
  const auto predicates = RandomPredicates(rng_.get(), horizon_);
  const std::vector<std::vector<std::string>> keyword_sets = {
      {"k0"}, {"k1", "k2"}, {"k3", "k4", "k0"}};
  const auto run = [&](Query query, int32_t k) {
    SearchOptions options;
    options.k = k;
    // Caps keep the exhaustive three-keyword runs of the densest graphs
    // cheap; a capped stop must match as well.
    options.max_pops = 600;
    options.max_combos_per_pop = 64;
    const auto a = n_engine.Search(query, options);
    const auto b = w_engine.Search(query, options);
    ASSERT_TRUE(a.ok() && b.ok()) << context_;
    ExpectSameResponse(*a, *b,
                       context_ + " q=" + query.ToString() +
                           " k=" + std::to_string(k));
  };
  for (const auto& keywords : keyword_sets) {
    for (const RankFactor factor : kFactors) {
      Query query;
      query.keywords = keywords;
      query.ranking.factors = {factor, RankFactor::kRelevance};
      // Both k without a predicate...
      for (const int32_t k : {3, 0}) run(query, k);
      // ...and each predicate once.
      for (const auto& predicate : predicates) {
        query.predicate = predicate;
        run(query, 3);
      }
    }
  }
}

TEST_P(TimeRepresentationTest, OverlayExpansionMatches) {
  // Base = the first 3/5 of the nodes and the edges among them; the rest
  // arrives as one delta. Validities are the built graph's (already
  // clamped to the endpoints), as ingest would hand them to the overlay.
  const NodeId base_nodes = narrow_.num_nodes() * 3 / 5;
  const auto split = [&](TimePoint timeline) {
    GraphBuilder b(timeline, graph::ValidityPolicy::kStrict);
    std::vector<graph::Node> delta_nodes;
    std::vector<graph::Edge> delta_edges;
    for (NodeId v = 0; v < narrow_.num_nodes(); ++v) {
      const graph::Node& node = narrow_.node(v);
      if (v < base_nodes) {
        b.AddNode(node.label, node.validity, node.weight);
      } else {
        delta_nodes.push_back(node);
      }
    }
    for (EdgeId e = 0; e < narrow_.num_edges(); ++e) {
      const graph::Edge& edge = narrow_.edge(e);
      if (edge.src < base_nodes && edge.dst < base_nodes) {
        b.AddEdge(edge.src, edge.dst, edge.validity, edge.weight);
      } else {
        delta_edges.push_back(edge);
      }
    }
    auto base = std::make_unique<TemporalGraph>(std::move(b.Build()).value());
    auto overlay = graph::DeltaOverlay::Extend(
        *base, nullptr, std::move(delta_nodes), std::move(delta_edges));
    return std::make_pair(std::move(base), std::move(overlay));
  };
  const auto [n_base, n_overlay] = split(horizon_);
  const auto [w_base, w_overlay] = split(kWideTimeline);
  ASSERT_FALSE(n_overlay->empty()) << context_;

  const graph::GraphView narrow(*n_base, n_overlay.get());
  const graph::GraphView wide(*w_base, w_overlay.get());
  const std::vector<NodeId> sources = Bucket(narrow, 1);
  const SearchEngine n_engine(narrow);
  const SearchEngine w_engine(wide);
  const std::vector<std::vector<NodeId>> matches = {Bucket(narrow, 1),
                                                    Bucket(narrow, 2)};
  for (const RankFactor factor : kFactors) {
    const std::string ctx =
        context_ + " overlay factor " + std::to_string(static_cast<int>(factor));
    BestPathIterator::Options options;
    options.ranking.factors = {factor};
    ExpectSameFrontier(narrow, wide, sources, options, ctx);
    if (HasFatalFailure()) return;

    Query query;
    query.keywords = {"x", "y"};
    query.ranking.factors = {factor, RankFactor::kRelevance};
    for (const int32_t k : {3, 0}) {
      SearchOptions search;
      search.k = k;
      const auto x = n_engine.SearchWithMatches(query, matches, search);
      const auto y = w_engine.SearchWithMatches(query, matches, search);
      ASSERT_TRUE(x.ok() && y.ok()) << ctx;
      ExpectSameResponse(*x, *y, ctx + " k=" + std::to_string(k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TimeRepresentationTest,
    ::testing::Combine(::testing::Range<uint64_t>(1, 11),
                       ::testing::Range(0, 6)));

}  // namespace
}  // namespace tgks::search
