// Deterministic work-count dump over the golden query suites.
//
// Prints one line per (graph, query) with the engine's search-work
// counters. The counters are pure functions of the algorithm (no clocks, no
// addresses, no thread interleaving), so the output is bit-stable across
// runs and machines. scripts/workcount_check.sh diffs it against
// tests/golden/workcounts.expected in CI to catch silent changes to the
// amount of work the search performs: an optimization must move time, not
// pops.
//
// Two suites:
//
//  * Golden files: tiny checked-in .tgf graphs with hand-written queries
//    (social / archive / sparse / weighted stems in tests/golden/).
//  * Generated datasets (--dataset dblp|dblp-bounded|social): the seeded
//    datagen workloads the benchmarks run, at a fixed scale and query
//    count independent of the TGKS_BENCH_* environment, so layout and
//    data-structure changes are pinned on benchmark-shaped graphs — not
//    just the toy ones. Each workload runs under both relevance and
//    duration ranking to cover the partition AND subsumption semantics.
//
// Usage: workcount_dump [--results|--popseq|--candidates]
//            <golden-dir> [stems...]
//        workcount_dump [--results|--popseq|--candidates]
//            --dataset <dblp|social> ...
//        workcount_dump --layout <dblp|social> [--layout ...]
//        (every form above also takes --pad-timeline <n>)
//        workcount_dump --quality
//        workcount_dump [--pad-timeline <n>] --keywords
//
// --layout prints the ExpansionView packing statistics (time
// representation, bytes per slot, slot counts, inline/pooled split,
// validity-pool interning hit rate, nodes whose in-slots share one
// increment) for a generated dataset;
// docs/performance.md quotes these numbers.
//
// --pad-timeline <n> rebuilds every graph over max(own, n) instants before
// running (graph::RebuildWithTimeline): same elements, same ids. With n
// above TimeMask::kCapacity (128) the search runs its IntervalSet path
// instead of the TimeMask one, and since the two paths do identical work,
// the output must equal the unpadded run's line for line —
// scripts/workcount_check.sh --wide diffs it against the same expected
// files, result fingerprints included.
//
// --results replaces the counter lines with per-query result fingerprints
// (result count, stop reason, an order-sensitive hash over every result
// tree's signature/time/weight). scripts/workcount_check.sh diffs them
// against tests/golden/results*.expected in default and --wide modes.
//
// --popseq replaces the counter lines with per-query pop-sequence
// fingerprints: for each keyword frontier, its pop count and one
// order-sensitive hash over every pop's (origin, node, dist, time,
// via_edge), in the order the engine consumed them. NtdIds are not hashed,
// so a change to how NTDs are created or numbered leaves the lines alone
// while any change to what is popped, or in which order, shows up.
// scripts/workcount_check.sh diffs them against tests/golden/popseq*.expected
// in default and --wide modes.
//
// --candidates replaces the counter lines with the result-generation
// counters of each query: candidates, duplicates, root_reducible,
// invalid_structure, invalid_time, predicate_rejected, combo_overflows and
// results. They pin how Algorithm 3's combinations were classified, so a
// change to candidate generation that must not change what it decides
// (only how fast) leaves the lines alone. scripts/workcount_check.sh diffs
// them against tests/golden/candidates*.expected in default and --wide
// modes.
//
// --quality measures what the default (empirical) bound gives up against
// the exact top-k (UpperBoundKind::kAccurate) on the two perfbench query
// sets at perfbench scale: perfbench/dblp_batch.cc's 200 dblp queries and
// perfbench/http_load.cc's 200 social match-set queries, k = 10. Per set it
// prints how many default-bound score lists equal the exact one, the score
// recall (the multiset overlap of default and exact scores, §6.3), the
// summed default and exact top-k weights (lower is better) and one hash
// over every exact score list. scripts/workcount_check.sh --quality diffs
// it against tests/golden/quality.expected. The run takes about a minute,
// nearly all of it the exact side, so it is a CI step, not a ctest.
//
// --keywords prints one line per query of the same two sets (default
// bound, k = 10): the stop reason and, per keyword, its match count and
// the pops of its frontier ("<keyword>=<matches>:<pops>"). It pins where a
// query's expansion work goes, keyword by keyword, on the workloads
// perfbench measures; scripts/workcount_check.sh diffs it against
// tests/golden/keywords.expected in default and --wide modes. About a
// second.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "datagen/dblp_generator.h"
#include "datagen/query_generator.h"
#include "datagen/social_generator.h"
#include "examples/example_util.h"
#include "graph/expansion_view.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "graph/reachability_index.h"
#include "graph/serialization.h"
#include "search/query_parser.h"
#include "search/search_engine.h"

namespace {

// Set from the command line; apply to both query suites.
bool g_results = false;   // Print result fingerprints, not work counters.
bool g_popseq = false;    // Print pop-sequence fingerprints.
bool g_candidates = false;  // Print result-generation counters.
bool g_quality = false;   // Print default-vs-exact answer quality.
bool g_keywords = false;  // Print per-keyword matches and pops.
int32_t g_pad_timeline = 0;  // Rebuild graphs over >= this many instants.

/// Applies --pad-timeline to a freshly built or loaded graph.
int PadTimeline(tgks::graph::TemporalGraph* graph) {
  if (g_pad_timeline <= graph->timeline_length()) return 0;
  auto padded = tgks::graph::RebuildWithTimeline(*graph, g_pad_timeline);
  if (!padded.ok()) {
    std::fprintf(stderr, "pad timeline: %s\n",
                 padded.status().ToString().c_str());
    return 1;
  }
  *graph = std::move(padded).value();
  return 0;
}

tgks::search::SearchOptions SuiteOptions() {
  tgks::search::SearchOptions options;
  options.k = 10;
  return options;
}

/// FNV-1a over raw bytes, continuing from `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Per-keyword pop-sequence fingerprints of one query (--popseq), fed by
/// SearchOptions::pop_fn.
struct PopSeqRecorder {
  struct Keyword {
    int64_t pops = 0;
    uint64_t hash = 1469598103934665603ull;
  };
  std::vector<Keyword> keywords;

  static void OnPop(void* ctx, size_t keyword,
                    const tgks::search::BestPathIterator& frontier,
                    tgks::search::NtdId popped) {
    auto* self = static_cast<PopSeqRecorder*>(ctx);
    if (self->keywords.size() <= keyword) self->keywords.resize(keyword + 1);
    Keyword& k = self->keywords[keyword];
    const tgks::search::Ntd& ntd = frontier.ntd(popped);
    uint64_t h = k.hash;
    h = Fnv1a(h, &ntd.origin, sizeof(ntd.origin));
    h = Fnv1a(h, &ntd.node, sizeof(ntd.node));
    h = Fnv1a(h, &ntd.dist, sizeof(ntd.dist));
    const tgks::temporal::IntervalSet time = frontier.TimeOf(popped);
    for (const tgks::temporal::Interval& iv : time.intervals()) {
      h = Fnv1a(h, &iv.start, sizeof(iv.start));
      h = Fnv1a(h, &iv.end, sizeof(iv.end));
    }
    h = Fnv1a(h, &ntd.via_edge, sizeof(ntd.via_edge));
    k.hash = h;
    ++k.pops;
  }

  void Print(const std::string& tag, int index) const {
    std::printf("%s#%d", tag.c_str(), index);
    for (size_t kw = 0; kw < keywords.size(); ++kw) {
      std::printf(" kw%zu=%lld:%016llx", kw,
                  static_cast<long long>(keywords[kw].pops),
                  static_cast<unsigned long long>(keywords[kw].hash));
    }
    std::printf("\n");
  }
};

std::vector<std::string> LoadQueryLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const size_t last = line.find_last_not_of(" \t\r");
    lines.push_back(line.substr(first, last - first + 1));
  }
  return lines;
}

/// Order-sensitive FNV-1a fingerprint over the full result list. Two runs
/// print the same line iff they returned the same trees, times, weights,
/// and stop reason in the same order.
void PrintResults(const std::string& tag, int index,
                  const tgks::search::SearchResponse& r) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // Separator so field boundaries matter.
    h *= 1099511628211ull;
  };
  char num[64];
  for (const auto& tree : r.results) {
    mix(tree.Signature());
    mix(tree.time.ToString());
    std::snprintf(num, sizeof(num), "%.17g", tree.total_weight);
    mix(num);
  }
  std::printf("%s#%d results=%zu stop=%.*s fp=%016llx\n", tag.c_str(), index,
              r.results.size(),
              static_cast<int>(
                  tgks::search::StopReasonName(r.stop_reason).size()),
              tgks::search::StopReasonName(r.stop_reason).data(),
              static_cast<unsigned long long>(h));
}

void PrintCounters(const std::string& tag, int index,
                   const tgks::search::SearchCounters& c) {
  std::printf(
      "%s#%d ntds_pushed=%lld ntds_popped=%lld edges_scanned=%lld "
      "useless_pops=%lld subsumption_skips=%lld "
      "subsumption_evictions=%lld\n",
      tag.c_str(), index, static_cast<long long>(c.ntds_created),
      static_cast<long long>(c.pops),
      static_cast<long long>(c.edges_scanned),
      static_cast<long long>(c.useless_pops),
      static_cast<long long>(c.subsumption_skips),
      static_cast<long long>(c.subsumption_evictions));
}

void PrintCandidates(const std::string& tag, int index,
                     const tgks::search::SearchCounters& c) {
  std::printf(
      "%s#%d candidates=%lld duplicates=%lld root_reducible=%lld "
      "invalid_structure=%lld invalid_time=%lld predicate_rejected=%lld "
      "combo_overflows=%lld results=%lld\n",
      tag.c_str(), index, static_cast<long long>(c.candidates),
      static_cast<long long>(c.duplicates),
      static_cast<long long>(c.root_reducible),
      static_cast<long long>(c.invalid_structure),
      static_cast<long long>(c.invalid_time),
      static_cast<long long>(c.predicate_rejected),
      static_cast<long long>(c.combo_overflows),
      static_cast<long long>(c.results));
}

/// Prints one query's line in the selected output mode.
void PrintQuery(const std::string& tag, int index,
                const tgks::search::SearchResponse& r,
                const PopSeqRecorder& popseq) {
  if (g_results) {
    PrintResults(tag, index, r);
  } else if (g_popseq) {
    popseq.Print(tag, index);
  } else if (g_candidates) {
    PrintCandidates(tag, index, r.counters);
  } else {
    PrintCounters(tag, index, r.counters);
  }
}

int RunGoldenStems(const std::string& dir,
                   const std::vector<std::string>& stems) {
  for (const std::string& stem : stems) {
    auto loaded = tgks::graph::LoadGraphFromFile(dir + "/" + stem + ".tgf");
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s: %s\n", stem.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    tgks::graph::TemporalGraph g = std::move(loaded).value();
    if (const int rc = PadTimeline(&g); rc != 0) return rc;
    const tgks::graph::InvertedIndex index(g);
    const tgks::search::SearchEngine engine(g, &index);
    int qi = 0;
    for (const std::string& text :
         LoadQueryLines(dir + "/" + stem + ".queries")) {
      auto query = tgks::search::ParseQuery(text);
      if (!query.ok()) {
        std::fprintf(stderr, "parse: %s\n", query.status().ToString().c_str());
        return 1;
      }
      PopSeqRecorder popseq;
      tgks::search::SearchOptions options = SuiteOptions();
      if (g_popseq) {
        options.pop_fn = &PopSeqRecorder::OnPop;
        options.pop_ctx = &popseq;
      }
      auto r = engine.Search(*query, options);
      if (!r.ok()) {
        std::fprintf(stderr, "search: %s\n", r.status().ToString().c_str());
        return 1;
      }
      PrintQuery(stem, qi++, *r, popseq);
    }
  }
  return 0;
}

/// The social graph of every suite: bench::MakeSocial() at scale 1.0, the
/// graph perfbench's social-http-live serves.
tgks::datagen::SocialParams SocialParams() {
  tgks::datagen::SocialParams sp;
  sp.num_nodes = 15000;
  sp.edges_per_node = 2;
  sp.edge_connectivity = 0.7;
  sp.seed = 7;
  return sp;
}

// Fixed-size dataset suite parameters. Deliberately NOT tied to
// TGKS_BENCH_SCALE / TGKS_BENCH_QUERIES: the expected file pins one exact
// workload.
constexpr int32_t kDatasetQueries = 12;

int BuildDataset(const std::string& name, tgks::graph::TemporalGraph* graph,
                 std::vector<tgks::datagen::WorkloadQuery>* workload) {
  tgks::datagen::QueryWorkloadParams params;
  params.num_queries = kDatasetQueries;
  if (name == "dblp" || name == "dblp-bounded") {
    tgks::datagen::DblpParams dp;
    dp.num_papers = 8000;
    dp.num_authors = 3000;
    dp.num_venues = 60;
    dp.vocab_size = 2500;
    dp.seed = 42;
    // dblp-bounded truncates each paper 8 instants past publication, so
    // subtree validity is no longer a timeline suffix — the temporal shape
    // the append-only default can never exercise.
    if (name == "dblp-bounded") dp.validity_horizon = 8;
    auto d = tgks::datagen::GenerateDblp(dp);
    if (!d.ok()) {
      std::fprintf(stderr, "dblp generation failed: %s\n",
                   d.status().ToString().c_str());
      return 1;
    }
    *workload = tgks::datagen::MakeDblpWorkload(d.value(), params);
    *graph = std::move(d).value().graph;
  } else if (name == "social") {
    auto d = tgks::datagen::GenerateSocial(SocialParams());
    if (!d.ok()) {
      std::fprintf(stderr, "social generation failed: %s\n",
                   d.status().ToString().c_str());
      return 1;
    }
    *graph = std::move(d).value().graph;
    tgks::datagen::MatchSetParams mp;
    mp.matches_min = 50;
    mp.matches_max = 400;
    *workload = tgks::datagen::MakeMatchSetWorkload(*graph, params, mp);
  } else {
    std::fprintf(stderr, "unknown dataset '%s' (dblp|dblp-bounded|social)\n",
                 name.c_str());
    return 2;
  }
  return PadTimeline(graph);
}

int RunDataset(const std::string& name) {
  tgks::graph::TemporalGraph graph;
  std::vector<tgks::datagen::WorkloadQuery> workload;
  if (const int rc = BuildDataset(name, &graph, &workload); rc != 0) return rc;

  const tgks::graph::InvertedIndex index(graph);
  const tgks::search::SearchEngine engine(graph, &index);
  tgks::search::SearchOptions options = SuiteOptions();
  PopSeqRecorder popseq;
  if (g_popseq) {
    options.pop_fn = &PopSeqRecorder::OnPop;
    options.pop_ctx = &popseq;
  }
  // Pass 1: the workload's own ranking (relevance -> partition semantics).
  // Pass 2: duration ranking -> subsumption semantics, so Algorithm 2's
  // counters are pinned on benchmark-shaped graphs too.
  const char* pass_tags[2] = {"", "-duration"};
  for (int pass = 0; pass < 2; ++pass) {
    int qi = 0;
    for (const auto& wq : workload) {
      tgks::search::Query query = wq.query;
      if (pass == 1) {
        query.ranking.factors = {tgks::search::RankFactor::kDurationDesc};
      }
      popseq.keywords.clear();
      auto r = wq.matches.empty()
                   ? engine.Search(query, options)
                   : engine.SearchWithMatches(query, wq.matches, options);
      if (!r.ok()) {
        std::fprintf(stderr, "search: %s\n", r.status().ToString().c_str());
        return 1;
      }
      PrintQuery(name + pass_tags[pass], qi++, *r, popseq);
    }
  }
  return 0;
}

int RunLayout(const std::string& name) {
  tgks::graph::TemporalGraph graph;
  std::vector<tgks::datagen::WorkloadQuery> workload;
  if (const int rc = BuildDataset(name, &graph, &workload); rc != 0) return rc;
  const auto& s = graph.expansion_view().layout_stats();
  std::printf(
      "%s timeline=%d time_repr=%s edge_slot_bytes=%lld node_slot_bytes=%lld "
      "edge_slots=%lld inline_edge_slots=%lld pooled_edge_slots=%lld "
      "inline_node_slots=%lld pooled_node_slots=%lld pool_entries=%lld "
      "intern_hits=%lld uniform_in_nodes=%lld\n",
      name.c_str(), static_cast<int>(graph.timeline_length()),
      s.time_masks ? "mask" : "interval",
      static_cast<long long>(s.edge_slot_bytes),
      static_cast<long long>(s.node_slot_bytes),
      static_cast<long long>(s.edge_slots),
      static_cast<long long>(s.inline_edge_slots),
      static_cast<long long>(s.pooled_edge_slots),
      static_cast<long long>(s.inline_node_slots),
      static_cast<long long>(s.pooled_node_slots),
      static_cast<long long>(s.pool_entries),
      static_cast<long long>(s.intern_hits),
      static_cast<long long>(s.uniform_in_nodes));
  // Reachability-index build phase and label-size profile. build_seconds is
  // wall time and intentionally NOT part of any golden file.
  const auto& rs = graph.reachability().stats();
  std::printf(
      "%s-reach epochs=%lld sccs=%lld dag_edges=%lld chains=%lld "
      "label_entries=%lld label_bytes=%lld build_seconds=%.3f\n",
      name.c_str(), static_cast<long long>(rs.epochs),
      static_cast<long long>(rs.sccs),
      static_cast<long long>(rs.dag_edges),
      static_cast<long long>(rs.chains),
      static_cast<long long>(rs.label_entries),
      static_cast<long long>(rs.label_bytes), rs.build_seconds);
  return 0;
}

/// One query set's default-bound answers against its exact top-k.
struct QualityTally {
  int64_t queries = 0;
  int64_t exact_equal = 0;   // Default score list == exact score list.
  int64_t score_hits = 0;    // Exact scores the default top-k also has.
  int64_t exact_scores = 0;  // Scores in every exact top-k.
  double default_weight = 0;
  double exact_weight = 0;
  uint64_t exact_hash = 1469598103934665603ull;

  void Add(const tgks::search::SearchResponse& fast,
           const tgks::search::SearchResponse& exact) {
    ++queries;
    std::vector<double> fast_scores, exact_scores_of_query;
    for (const auto& tree : fast.results) {
      fast_scores.push_back(tree.total_weight);
      default_weight += tree.total_weight;
    }
    const size_t count = exact.results.size();
    exact_hash = Fnv1a(exact_hash, &count, sizeof(count));
    for (const auto& tree : exact.results) {
      exact_scores_of_query.push_back(tree.total_weight);
      exact_weight += tree.total_weight;
      exact_hash =
          Fnv1a(exact_hash, &tree.total_weight, sizeof(tree.total_weight));
    }
    if (fast_scores == exact_scores_of_query) ++exact_equal;
    std::multiset<double> unmatched(fast_scores.begin(), fast_scores.end());
    for (const double w : exact_scores_of_query) {
      ++exact_scores;
      const auto it = unmatched.find(w);
      if (it == unmatched.end()) continue;
      unmatched.erase(it);
      ++score_hits;
    }
  }

  void Print(const char* name) const {
    std::printf(
        "%s queries=%lld exact_equal=%lld recall=%lld/%lld "
        "default_weight=%.17g exact_weight=%.17g exact_hash=%016llx\n",
        name, static_cast<long long>(queries),
        static_cast<long long>(exact_equal),
        static_cast<long long>(score_hits),
        static_cast<long long>(exact_scores), default_weight, exact_weight,
        static_cast<unsigned long long>(exact_hash));
  }
};

/// Runs one query under the default bound and under kAccurate.
int AddQuality(const tgks::search::SearchEngine& engine,
               const tgks::search::Query& query,
               const std::vector<std::vector<tgks::graph::NodeId>>& matches,
               QualityTally* tally) {
  tgks::search::SearchOptions options = SuiteOptions();
  const auto run = [&] {
    return matches.empty() ? engine.Search(query, options)
                           : engine.SearchWithMatches(query, matches, options);
  };
  auto fast = run();
  options.bound = tgks::search::UpperBoundKind::kAccurate;
  auto exact = run();
  if (!fast.ok() || !exact.ok()) {
    std::fprintf(stderr, "search: %s\n",
                 (fast.ok() ? exact.status() : fast.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  tally->Add(*fast, *exact);
  return 0;
}

/// One query of the perfbench query sets. `matches` is empty for dblp,
/// whose keywords the engine resolves through `index`; social queries carry
/// their match sets and no index.
struct PerfbenchQuery {
  const tgks::search::SearchEngine& engine;
  const tgks::graph::InvertedIndex* index;
  const tgks::search::Query& query;
  const std::vector<std::vector<tgks::graph::NodeId>>& matches;
};

/// Rebuilds the two perfbench query sets at perfbench scale and calls
/// `fn(set, index_in_set, query)` on each query in order, dblp first:
/// perfbench/dblp_batch.cc's 200 dblp queries and perfbench/http_load.cc's
/// 200 social match-set queries.
template <typename Fn>
int ForEachPerfbenchQuery(Fn&& fn) {
  constexpr int kQueries = 200;
  {
    // perfbench/dblp_batch.cc's graph (scale 0.05) and query set.
    tgks::datagen::DblpParams dp;
    dp.num_papers = 400;
    dp.num_authors = 150;
    dp.num_venues = 12;
    dp.vocab_size = 2500;
    dp.seed = 42;
    auto d = tgks::datagen::GenerateDblp(dp);
    if (!d.ok()) {
      std::fprintf(stderr, "dblp generation failed: %s\n",
                   d.status().ToString().c_str());
      return 1;
    }
    if (const int rc = PadTimeline(&d->graph); rc != 0) return rc;
    const tgks::graph::InvertedIndex index(d->graph);
    const tgks::search::SearchEngine engine(d->graph, &index);
    tgks::datagen::QueryWorkloadParams params;
    params.num_queries = kQueries;
    const std::vector<std::vector<tgks::graph::NodeId>> resolved_by_index;
    int q = 0;
    for (const auto& wq : tgks::datagen::MakeDblpWorkload(*d, params)) {
      if (const int rc = fn("dblp", q++,
                            PerfbenchQuery{engine, &index, wq.query,
                                           resolved_by_index});
          rc != 0) {
        return rc;
      }
    }
  }
  auto d = tgks::datagen::GenerateSocial(SocialParams());
  if (!d.ok()) {
    std::fprintf(stderr, "social generation failed: %s\n",
                 d.status().ToString().c_str());
    return 1;
  }
  if (const int rc = PadTimeline(&d->graph); rc != 0) return rc;
  const tgks::graph::TemporalGraph& graph = d->graph;
  const tgks::search::SearchEngine engine(graph);
  const auto base_nodes = static_cast<int64_t>(graph.num_nodes());
  // The fixed query set of perfbench/http_load.cc (kQuerySetSeed), rebuilt
  // as match lists instead of JSON bodies.
  tgks::Rng rng(1234);
  for (int q = 0; q < kQueries; ++q) {
    const int64_t m = rng.UniformInt(2, 4);
    std::string text;
    std::vector<std::vector<tgks::graph::NodeId>> matches;
    for (int64_t k = 0; k < m; ++k) {
      text += k > 0 ? ", kw" : "kw";
      text += std::to_string(k);
      const int64_t want =
          rng.UniformInt(std::min<int64_t>(50, base_nodes),
                         std::min<int64_t>(400, base_nodes));
      std::vector<tgks::graph::NodeId>& ids = matches.emplace_back();
      for (const uint64_t v : rng.SampleWithoutReplacement(
               static_cast<uint64_t>(base_nodes),
               static_cast<uint64_t>(want))) {
        ids.push_back(static_cast<tgks::graph::NodeId>(v));
      }
    }
    auto query = tgks::search::ParseQuery(text);
    if (!query.ok()) {
      std::fprintf(stderr, "parse: %s\n", query.status().ToString().c_str());
      return 1;
    }
    if (const int rc =
            fn("social", q, PerfbenchQuery{engine, nullptr, *query, matches});
        rc != 0) {
      return rc;
    }
  }
  return 0;
}

int RunQuality() {
  QualityTally dblp, social;
  const int rc = ForEachPerfbenchQuery(
      [&](const char* set, int, const PerfbenchQuery& pq) {
        return AddQuality(pq.engine, pq.query, pq.matches,
                          std::strcmp(set, "dblp") == 0 ? &dblp : &social);
      });
  if (rc != 0) return rc;
  dblp.Print("dblp");
  social.Print("social");
  return 0;
}

/// Pop count per keyword frontier of one query (--keywords).
void CountPop(void* ctx, size_t keyword,
              const tgks::search::BestPathIterator&, tgks::search::NtdId) {
  auto* pops = static_cast<std::vector<int64_t>*>(ctx);
  ++(*pops)[keyword];
}

int RunKeywords() {
  return ForEachPerfbenchQuery(
      [](const char* set, int q, const PerfbenchQuery& pq) {
        const size_t keywords = pq.query.keywords.size();
        std::vector<int64_t> pops(keywords, 0);
        tgks::search::SearchOptions options = SuiteOptions();
        options.pop_fn = &CountPop;
        options.pop_ctx = &pops;
        auto r = pq.matches.empty()
                     ? pq.engine.Search(pq.query, options)
                     : pq.engine.SearchWithMatches(pq.query, pq.matches,
                                                   options);
        if (!r.ok()) {
          std::fprintf(stderr, "search: %s\n",
                       r.status().ToString().c_str());
          return 1;
        }
        const std::string_view stop =
            tgks::search::StopReasonName(r->stop_reason);
        std::printf("%s#%d stop=%.*s", set, q, static_cast<int>(stop.size()),
                    stop.data());
        for (size_t kw = 0; kw < keywords; ++kw) {
          const size_t matches = pq.matches.empty()
                                     ? pq.index->Lookup(pq.query.keywords[kw])
                                           .size()
                                     : pq.matches[kw].size();
          std::printf(" %s=%zu:%lld", pq.query.keywords[kw].c_str(), matches,
                      static_cast<long long>(pops[kw]));
        }
        std::printf("\n");
        return 0;
      });
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the mode flags (position-independent) before the suite args.
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--results") == 0) {
      g_results = true;
    } else if (std::strcmp(argv[i], "--popseq") == 0) {
      g_popseq = true;
    } else if (std::strcmp(argv[i], "--candidates") == 0) {
      g_candidates = true;
    } else if (std::strcmp(argv[i], "--quality") == 0) {
      g_quality = true;
    } else if (std::strcmp(argv[i], "--keywords") == 0) {
      g_keywords = true;
    } else if (std::strcmp(argv[i], "--pad-timeline") == 0 && i + 1 < argc) {
      if (!tgks::examples::ParseFlag("--pad-timeline", argv[++i],
                                     &g_pad_timeline)) {
        return 2;
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  if (g_popseq && g_results) {
    std::fprintf(stderr, "--popseq replaces --results\n");
    return 2;
  }
  if (g_candidates && (g_results || g_popseq)) {
    std::fprintf(stderr, "--candidates replaces --results and --popseq\n");
    return 2;
  }
  if (g_quality) {
    if (!args.empty() || g_results || g_popseq || g_candidates ||
        g_keywords || g_pad_timeline > 0) {
      std::fprintf(stderr, "--quality takes no other argument\n");
      return 2;
    }
    return RunQuality();
  }
  if (g_keywords) {
    if (!args.empty() || g_results || g_popseq || g_candidates) {
      std::fprintf(stderr, "--keywords takes only --pad-timeline\n");
      return 2;
    }
    return RunKeywords();
  }
  if (args.empty()) {
    std::fprintf(
        stderr,
        "usage: %s [--results|--popseq|--candidates] "
        "[--pad-timeline <n>] <golden-dir> "
        "[graph stems...]\n"
        "       %s [--results|--popseq|--candidates] "
        "[--pad-timeline <n>] "
        "--dataset <dblp|dblp-bounded|social> ...\n"
        "       %s [--pad-timeline <n>] --layout <dblp|dblp-bounded|social> "
        "[--layout ...]\n"
        "       %s --quality\n"
        "       %s [--pad-timeline <n>] --keywords\n",
        argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  if (std::strcmp(args[0], "--dataset") == 0 ||
      std::strcmp(args[0], "--layout") == 0) {
    const bool layout = std::strcmp(args[0], "--layout") == 0;
    const char* flag = layout ? "--layout" : "--dataset";
    for (size_t i = 0; i < args.size(); i += 2) {
      if (std::strcmp(args[i], flag) != 0 || i + 1 >= args.size()) {
        std::fprintf(stderr, "usage: %s %s <dblp|social> ...\n", argv[0],
                     flag);
        return 2;
      }
      const int rc = layout ? RunLayout(args[i + 1]) : RunDataset(args[i + 1]);
      if (rc != 0) return rc;
    }
    return 0;
  }
  const std::string dir = args[0];
  std::vector<std::string> stems = {"social", "archive", "sparse", "weighted"};
  if (args.size() > 1) {
    stems.assign(args.begin() + 1, args.end());
  }
  return RunGoldenStems(dir, stems);
}
