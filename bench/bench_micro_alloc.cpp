// Heap-allocation microbenchmark for the search hot path.
//
// Overrides global operator new/delete with a counting shim, runs each
// iterator once to warm the thread-local scratch pool (tables, queue, arena,
// and interval spill buffers all grow to their high-water marks), then runs
// the identical iterator again and counts allocations during the measured
// drain. Steady-state target: ~0 allocations per pop — the scratch pool
// hands back the warmed state, every Clear()/Rewind() keeps capacity, and
// interval ops write into pre-sized destinations.
//
// All iterator scenarios — partition, duration-ranking subsumption, and the
// Dijkstra baseline — are gated at exactly 0 steady-state allocations: the
// duration-index internals (bitmap probes, row storage, CollectSubsumed
// results) are pooled and refilled in place across Reset(). The social
// graph's 100-instant timeline runs the TimeMask path; the *_wide scenarios
// re-run partition and subsumption on the same graph padded to 200 instants,
// which runs the IntervalSet path (spill buffers, parallel time arena). The
// *_weighted_overlay scenario drains a reweighted copy of the graph split
// into base and delta overlay: increments differ per in-slot, so the lazy
// relevance frontier queues one entry per slot (docs/algorithms.md, "Lazy
// successor generation") on base and delta runs alike.
//
// A fourth scenario gates candidate generation on a warm engine query with
// many duplicates: no allocation per duplicate or rejected candidate (see
// MeasureCandidateGeneration). A fifth gates the engine's keyword frontiers
// on a warm query with hundreds of sources per keyword: one pooled scratch
// per keyword and no allocation per pop (see MeasureFrontierQuery). A sixth
// gates the candidate memo on a warm query with a large cross product: no
// allocation per memo hit (see MeasureMemoHits). A seventh gates the
// bounded result set on a warm k = 10 query that accepts far more than k
// trees: a tree past the k-th allocates only its seen-set entry (see
// MeasureResultsPastK).
//
// Emits one JSON row per scenario:
//   {"scenario": ..., "pops": N, "allocs": A, "allocs_per_pop": R}
// (the candidate-generation row reports candidates instead of pops).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "baseline/dijkstra_iterator.h"
#include "bench/bench_util.h"
#include "graph/delta_overlay.h"
#include "graph/graph_view.h"
#include "graph/graph_builder.h"
#include "search/best_path_iterator.h"
#include "search/label_correcting_iterator.h"
#include "search/search_scratch.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};

}  // namespace

// Counting shims. Replacing these four signatures covers scalar/array and
// (via compiler lowering) the sized/nothrow variants on this toolchain.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tgks::bench {
namespace {

void PrintRow(const char* scenario, int64_t pops, int64_t allocs) {
  std::printf(
      "{\"scenario\": \"%s\", \"pops\": %lld, \"allocs\": %lld, "
      "\"allocs_per_pop\": %.4f}\n",
      scenario, static_cast<long long>(pops), static_cast<long long>(allocs),
      pops == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(pops));
  std::fflush(stdout);
}

/// Drains a freshly-built iterator; returns pops. `Make` builds the
/// iterator, `Drain` consumes it and returns the pop count.
template <typename MakeFn>
int64_t MeasureScenario(const char* scenario, MakeFn make) {
  // Two warm-up passes. The first grows the epoch tables through their
  // rehash ladder; because a rehash lays entries out in old-slot order, the
  // key->slot mapping only stabilizes on the next fresh insertion pass, and
  // the second pass grows each slot's value buffer (interval spill, popped
  // vectors) to the demand of the key that actually lives there.
  (void)make();
  (void)make();
  // Measured pass: bit-identical work over recycled scratch.
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const int64_t pops = make();
  g_counting.store(false, std::memory_order_relaxed);
  const int64_t allocs = g_allocs.load(std::memory_order_relaxed);
  PrintRow(scenario, pops, allocs);
  return allocs;
}

/// Allocations of one warm engine query (`search` runs it): two unmeasured
/// runs first, so the iterators' thread-local scratch pools have grown.
template <typename SearchFn>
int64_t CountQueryAllocs(SearchFn search, search::SearchCounters* counters) {
  (void)search();
  (void)search();
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  auto response = search();
  g_counting.store(false, std::memory_order_relaxed);
  *counters = response->counters;
  return g_allocs.load(std::memory_order_relaxed);
}

/// Candidate generation's allocations in one warm, pop-capped k = 0
/// query: it runs once with generation on and once with
/// max_combos_per_pop = 0 (no candidates). Without k the search stops only
/// on exhaustion or max_pops, so both runs pop the same NTDs and the
/// allocation difference is exactly candidate generation's. An accepted
/// tree may allocate (its nodes, edges and keyword nodes, its seen-set
/// entry, the result vectors' growth), and the query's reused buffers grow
/// a few times: the budget is kAllocsPerResult per accepted tree plus
/// kAllocsPerQuery.
struct GenerationAllocs {
  static constexpr int64_t kAllocsPerResult = 8;
  static constexpr int64_t kAllocsPerQuery = 256;

  GenerationAllocs(const search::SearchEngine& engine,
                   const search::Query& query, search::SearchOptions options) {
    const auto search = [&] { return engine.Search(query, options); };
    search::SearchCounters off;
    const int64_t allocs_on = CountQueryAllocs(search, &on);
    options.max_combos_per_pop = 0;
    allocs = allocs_on - CountQueryAllocs(search, &off);
    budget = kAllocsPerQuery + kAllocsPerResult * on.results;
    same_pops = on.pops == off.pops && off.candidates == 0;
  }

  /// The gate: generation fits the budget, and the query has at least four
  /// times that budget in `free` candidates (those that must allocate
  /// nothing, named `what`), so one allocation each would trip it.
  bool Check(int64_t free, const char* what) const {
    if (!same_pops) {
      std::fprintf(stderr,
                   "FAIL: generation on/off runs popped differently\n");
      return false;
    }
    if (free < 4 * budget) {
      std::fprintf(stderr,
                   "FAIL: %lld %s cannot resolve a budget of %lld "
                   "allocations\n",
                   static_cast<long long>(free), what,
                   static_cast<long long>(budget));
      return false;
    }
    if (allocs > budget) {
      std::fprintf(stderr,
                   "FAIL: candidate generation made %lld allocations, over "
                   "the accepted-tree budget of %lld: %s allocate\n",
                   static_cast<long long>(allocs),
                   static_cast<long long>(budget), what);
      return false;
    }
    return true;
  }

  search::SearchCounters on;  ///< The generation-on run's counters.
  int64_t allocs = 0;
  int64_t budget = 0;
  bool same_pops = false;
};

/// Candidate generation: dblp workload query 14 (three keywords), k = 0,
/// 20000 pops. A duplicate or rejected candidate must allocate nothing.
bool MeasureCandidateGeneration() {
  const datagen::DblpDataset dblp = MakeDblp();
  const graph::InvertedIndex index(dblp.graph);
  const search::SearchEngine engine(dblp.graph, &index);
  // Within 20000 pops it meets ~350k candidates, of which fewer than 1k
  // become results.
  datagen::QueryWorkloadParams params;
  params.num_queries = 15;
  const search::Query query =
      datagen::MakeDblpWorkload(dblp, params).back().query;
  search::SearchOptions options;
  options.k = 0;
  options.max_pops = 20000;
  const GenerationAllocs run(engine, query, options);
  const search::SearchCounters& on = run.on;
  const int64_t non_accepted = on.candidates - on.results;
  std::printf(
      "{\"scenario\": \"engine_candidate_generation\", \"candidates\": %lld, "
      "\"duplicates\": %lld, \"rejected\": %lld, \"results\": %lld, "
      "\"allocs\": %lld, \"budget\": %lld}\n",
      static_cast<long long>(on.candidates),
      static_cast<long long>(on.duplicates),
      static_cast<long long>(non_accepted - on.duplicates),
      static_cast<long long>(on.results), static_cast<long long>(run.allocs),
      static_cast<long long>(run.budget));
  std::fflush(stdout);
  return run.Check(non_accepted, "duplicates or rejected candidates");
}

/// The small dblp graph the dblp-batch benchmark runs
/// (perfbench/dblp_batch.cc).
datagen::DblpDataset MakeDblpBatchGraph() {
  datagen::DblpParams params;
  params.num_papers = 400;
  params.num_authors = 150;
  params.num_venues = 12;
  params.vocab_size = 2500;
  params.seed = 42;
  return std::move(datagen::GenerateDblp(params)).value();
}

/// Query `i` of the 200-query workload dblp-batch runs on that graph.
search::Query DblpBatchQuery(const datagen::DblpDataset& dblp, size_t i) {
  datagen::QueryWorkloadParams workload;
  workload.num_queries = 200;
  return datagen::MakeDblpWorkload(dblp, workload)[i].query;
}

/// The bounded result set (docs/performance.md, "Bounded result set"):
/// query 5 of the dblp-batch workload ("maputi, cefalu, degamunu, tazu"),
/// k = 10, accepts hundreds of trees, ties on its integer weights, before
/// the bound stops it. Only the ten best are kept, so a tree past the k-th
/// may allocate its seen-set node and signature string and nothing more.
/// As in GenerationAllocs, a run with generation off and capped at the
/// first run's pops isolates candidate generation. The budget is
/// kAllocsPerTreePastK per accepted tree past the k-th, plus a slack of
/// kAllocsPerResult per kept tree and kAllocsPerQuery; the query must
/// have more trees past the k-th than that slack, so one more allocation
/// each would trip the gate.
bool MeasureResultsPastK() {
  constexpr int64_t kAllocsPerTreePastK = 2;
  const datagen::DblpDataset dblp = MakeDblpBatchGraph();
  const graph::InvertedIndex index(dblp.graph);
  const search::SearchEngine engine(dblp.graph, &index);
  const search::Query query = DblpBatchQuery(dblp, 5);
  search::SearchOptions options;
  options.k = 10;
  const auto search = [&] { return engine.Search(query, options); };
  search::SearchCounters on;
  search::SearchCounters off;
  const int64_t allocs_on = CountQueryAllocs(search, &on);
  options.max_pops = on.pops;
  options.max_combos_per_pop = 0;
  const int64_t allocs = allocs_on - CountQueryAllocs(search, &off);
  const int64_t past_k = on.results - options.k;
  const int64_t slack = GenerationAllocs::kAllocsPerQuery +
                        GenerationAllocs::kAllocsPerResult * options.k;
  const int64_t budget = slack + kAllocsPerTreePastK * past_k;
  std::printf(
      "{\"scenario\": \"engine_results_past_k\", \"k\": %d, \"pops\": %lld, "
      "\"results\": %lld, \"past_k\": %lld, \"allocs\": %lld, "
      "\"budget\": %lld}\n",
      options.k, static_cast<long long>(on.pops),
      static_cast<long long>(on.results), static_cast<long long>(past_k),
      static_cast<long long>(allocs), static_cast<long long>(budget));
  std::fflush(stdout);
  if (off.pops != on.pops || off.candidates != 0) {
    std::fprintf(stderr, "FAIL: generation on/off runs popped differently\n");
    return false;
  }
  if (past_k <= slack) {
    std::fprintf(stderr,
                 "FAIL: %lld trees past the k-th cannot resolve a slack of "
                 "%lld allocations\n",
                 static_cast<long long>(past_k),
                 static_cast<long long>(slack));
    return false;
  }
  if (allocs > budget) {
    std::fprintf(stderr,
                 "FAIL: candidate generation made %lld allocations, over the "
                 "budget of %lld: trees past the k-th allocate more than "
                 "their seen-set entry\n",
                 static_cast<long long>(allocs),
                 static_cast<long long>(budget));
    return false;
  }
  return true;
}

/// Candidate memo (docs/algorithms.md, "Redundant keyword paths"): query
/// 90 of the 200-query dblp workload on the small dblp graph the dblp-batch
/// benchmark runs ("gelapu, paper, dokisugi, venue": at node 0 one met-all
/// pop meets 19 x 400 x 12 combinations, whose "paper" and "venue" paths
/// mostly peel away), k = 0, capped at 41,302 pops: what its k = 10 run
/// took before relevance ties went to the frontier with fewer sources.
/// That run now stops after 2,937 pops, too few memo hits to resolve the
/// budget. Nearly all its candidates are memo hits, and a hit must
/// allocate nothing.
bool MeasureMemoHits() {
  const datagen::DblpDataset dblp = MakeDblpBatchGraph();
  const graph::InvertedIndex index(dblp.graph);
  const search::SearchEngine engine(dblp.graph, &index);
  const search::Query query = DblpBatchQuery(dblp, 90);
  search::SearchOptions options;
  options.k = 0;
  options.max_pops = 41302;
  const GenerationAllocs run(engine, query, options);
  std::printf(
      "{\"scenario\": \"engine_memo_hits\", \"candidates\": %lld, "
      "\"memo_hits\": %lld, \"results\": %lld, \"allocs\": %lld, "
      "\"budget\": %lld}\n",
      static_cast<long long>(run.on.candidates),
      static_cast<long long>(run.on.memo_hits),
      static_cast<long long>(run.on.results),
      static_cast<long long>(run.allocs), static_cast<long long>(run.budget));
  std::fflush(stdout);
  return run.Check(run.on.memo_hits, "memo hits");
}

/// Keyword frontiers: a warm three-keyword match-set query on the social
/// graph with 300-400 sources per keyword. With k = 0 and candidate
/// generation off (max_combos_per_pop = 0) the query stops on max_pops and
/// builds no results, so a short and a long run differ only in pops: equal
/// allocation counts mean zero allocations per pop. A warm query must also
/// acquire exactly one BestPathScratch per keyword, all of them recycled.
bool MeasureFrontierQuery(const graph::TemporalGraph& graph) {
  constexpr int64_t kShortPops = 2000;
  constexpr int64_t kLongPops = 20000;
  datagen::QueryWorkloadParams params;
  params.num_queries = 1;
  params.keywords_min = 3;
  params.keywords_max = 3;
  datagen::MatchSetParams match_params;
  match_params.matches_min = 300;
  match_params.matches_max = 400;
  const datagen::WorkloadQuery wq =
      datagen::MakeMatchSetWorkload(graph, params, match_params).front();
  const search::SearchEngine engine(graph);
  search::SearchOptions options;
  options.k = 0;
  options.max_combos_per_pop = 0;
  const auto search = [&] {
    return engine.SearchWithMatches(wq.query, wq.matches, options);
  };
  // The long run first: its warm-ups grow every pooled buffer to what the
  // short run needs too.
  search::SearchCounters long_run;
  search::SearchCounters short_run;
  options.max_pops = kLongPops;
  const int64_t allocs_long = CountQueryAllocs(search, &long_run);
  options.max_pops = kShortPops;
  const int64_t allocs_short = CountQueryAllocs(search, &short_run);

  const auto before = search::BestPathScratchPool::ThreadLocalStats();
  (void)search();
  const auto after = search::BestPathScratchPool::ThreadLocalStats();
  const size_t created = after.created - before.created;
  const size_t acquired = created + (after.reused - before.reused);
  const size_t keywords = wq.matches.size();

  const int64_t extra_pops = long_run.pops - short_run.pops;
  const int64_t extra_allocs = allocs_long - allocs_short;
  std::printf(
      "{\"scenario\": \"engine_keyword_frontiers\", \"keywords\": %zu, "
      "\"sources\": %lld, \"pops\": %lld, \"allocs\": %lld, "
      "\"allocs_per_pop\": %.4f, \"scratches_acquired\": %zu, "
      "\"scratches_created\": %zu}\n",
      keywords, static_cast<long long>(long_run.iterators),
      static_cast<long long>(extra_pops), static_cast<long long>(extra_allocs),
      extra_pops == 0 ? 0.0
                      : static_cast<double>(extra_allocs) /
                            static_cast<double>(extra_pops),
      acquired, created);
  std::fflush(stdout);
  if (long_run.pops != kLongPops || short_run.pops != kShortPops) {
    std::fprintf(stderr, "FAIL: the frontier query did not stop on max_pops\n");
    return false;
  }
  if (extra_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %lld allocations over %lld extra pops of a warm "
                 "multi-source query\n",
                 static_cast<long long>(extra_allocs),
                 static_cast<long long>(extra_pops));
    return false;
  }
  if (acquired != keywords || created != 0) {
    std::fprintf(stderr,
                 "FAIL: a warm query acquired %zu best-path scratches (%zu "
                 "new) for %zu keywords\n",
                 acquired, created, keywords);
    return false;
  }
  return true;
}

/// A reweighted copy of a graph, split into a base graph (the first 9/10
/// of the nodes and the edges among them) and a delta overlay with the
/// rest. The overlay points into the base, so both live on the heap.
struct WeightedOverlay {
  std::unique_ptr<graph::TemporalGraph> base;
  std::shared_ptr<const graph::DeltaOverlay> overlay;
};

WeightedOverlay MakeWeightedOverlay(const graph::TemporalGraph& g) {
  const graph::NodeId base_nodes = g.num_nodes() / 10 * 9;
  graph::GraphBuilder b(g.timeline_length(), graph::ValidityPolicy::kStrict);
  std::vector<graph::Node> delta_nodes;
  std::vector<graph::Edge> delta_edges;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    graph::Node node = g.node(v);
    node.weight = 0.25 * static_cast<double>(v % 3);
    if (v < base_nodes) {
      b.AddNode(node.label, node.validity, node.weight);
    } else {
      delta_nodes.push_back(std::move(node));
    }
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    graph::Edge edge = g.edge(e);
    edge.weight = 1.0 + 0.5 * static_cast<double>(e % 4);
    if (edge.src < base_nodes && edge.dst < base_nodes) {
      b.AddEdge(edge.src, edge.dst, edge.validity, edge.weight);
    } else {
      delta_edges.push_back(std::move(edge));
    }
  }
  WeightedOverlay out;
  out.base =
      std::make_unique<graph::TemporalGraph>(std::move(b.Build()).value());
  out.overlay = graph::DeltaOverlay::Extend(
      *out.base, nullptr, std::move(delta_nodes), std::move(delta_edges));
  return out;
}

int Main() {
  const datagen::SocialDataset social = MakeSocial();
  const graph::TemporalGraph& graph = social.graph;
  // A handful of spread-out sources so the drain covers thousands of pops.
  const graph::NodeId sources[] = {
      0, graph.num_nodes() / 7, graph.num_nodes() / 3,
      static_cast<graph::NodeId>(2 * graph.num_nodes() / 3),
      graph.num_nodes() - 1};

  int64_t hot_path_allocs = 0;
  // Relevance ranking -> partition semantics; duration -> subsumption.
  hot_path_allocs += MeasureScenario("best_path_partition", [&] {
    int64_t pops = 0;
    for (const graph::NodeId source : sources) {
      search::BestPathIterator::Options options;
      options.ranking.factors = {search::RankFactor::kRelevance};
      search::BestPathIterator iter(graph, source, options);
      while (iter.Next() != search::kInvalidNtd) ++pops;
    }
    return pops;
  });

  hot_path_allocs += MeasureScenario("best_path_subsumption", [&] {
    int64_t pops = 0;
    for (const graph::NodeId source : sources) {
      search::BestPathIterator::Options options;
      options.ranking.factors = {search::RankFactor::kDurationDesc};
      search::BestPathIterator iter(graph, source, options);
      while (iter.Next() != search::kInvalidNtd) ++pops;
    }
    return pops;
  });

  hot_path_allocs += MeasureScenario("dijkstra_snapshot", [&] {
    int64_t pops = 0;
    for (const graph::NodeId source : sources) {
      baseline::DijkstraIterator iter(graph, source, temporal::TimePoint{0});
      while (iter.Next() != graph::kInvalidNode) ++pops;
    }
    return pops;
  });

  // The same drains over a timeline too long for TimeMask: the IntervalSet
  // path.
  auto padded = graph::RebuildWithTimeline(graph, 200);
  if (!padded.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", padded.status().ToString().c_str());
    return 1;
  }
  const graph::TemporalGraph& wide = *padded;
  for (const search::RankFactor factor :
       {search::RankFactor::kRelevance, search::RankFactor::kDurationDesc}) {
    const char* scenario = factor == search::RankFactor::kRelevance
                               ? "best_path_partition_wide"
                               : "best_path_subsumption_wide";
    hot_path_allocs += MeasureScenario(scenario, [&] {
      int64_t pops = 0;
      for (const graph::NodeId source : sources) {
        search::BestPathIterator::Options options;
        options.ranking.factors = {factor};
        search::BestPathIterator iter(wide, source, options);
        while (iter.Next() != search::kInvalidNtd) ++pops;
      }
      return pops;
    });
  }

  const WeightedOverlay weighted = MakeWeightedOverlay(graph);
  const graph::GraphView weighted_view(*weighted.base, weighted.overlay.get());
  hot_path_allocs += MeasureScenario("best_path_partition_weighted_overlay",
                                     [&] {
    int64_t pops = 0;
    for (const graph::NodeId source : sources) {
      search::BestPathIterator::Options options;
      options.ranking.factors = {search::RankFactor::kRelevance};
      search::BestPathIterator iter(weighted_view, source, options);
      while (iter.Next() != search::kInvalidNtd) ++pops;
    }
    return pops;
  });

  // The gate: every iterator — including duration-ranking subsumption, on
  // both time representations — must be allocation-free in steady state.
  if (hot_path_allocs > 0) {
    std::fprintf(stderr,
                 "FAIL: %lld allocations on the warmed search hot path\n",
                 static_cast<long long>(hot_path_allocs));
    return 1;
  }
  const bool frontiers_ok = MeasureFrontierQuery(graph);
  const bool generation_ok = MeasureCandidateGeneration();
  const bool memo_ok = MeasureMemoHits();
  return MeasureResultsPastK() && memo_ok && generation_ok && frontiers_ok
             ? 0
             : 1;
}

}  // namespace
}  // namespace tgks::bench

int main() { return tgks::bench::Main(); }
