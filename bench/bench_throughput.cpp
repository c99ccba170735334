// Concurrent query throughput: QueryExecutor thread sweep on the DBLP and
// social datasets. Emits one JSON object per (dataset, threads) cell with
// queries/sec and latency percentiles, and cross-checks that every thread
// count reproduces the sequential results bit-identically.
//
// A second, single-threaded sweep re-runs each dataset with
// SearchOptions::reachability_prune (docs/reachability.md); those rows
// carry "mode": "reach-prune" plus the index construction cost
// (index_build_ms, label_bytes). The fingerprint cross-check is reported
// per row but not enforced here: bounded runs may legitimately stop at a
// different frontier under the heuristic bounds ("Bounded stops"), and the
// suites where equality does hold are gated by workcount_check.sh --pruned.
//
// A third sweep pairs the prune with the in-engine query caches
// (docs/caching.md): "reach-prune-viability-cold" runs the batch on empty
// caches, "reach-prune-viability-warm" re-runs the same batch through the
// same executor so every viability lookup hits. Both rows ARE enforced
// bit-identical to an uncached pruned run — the caches must never change
// answers, only wall time.
//
// Environment knobs (see bench_util.h): TGKS_BENCH_SCALE, TGKS_BENCH_QUERIES.
// TGKS_BENCH_THREADS ("1,2,4,8" by default) picks the sweep points and
// TGKS_BENCH_DEADLINE_MS (<=0 = off) adds a per-query deadline row.
//
// Flags: --json-out <path> mirrors every JSON row to <path> (truncating it)
// so scripts/bench_baseline.sh can collect machine-readable results without
// scraping stdout.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cache/query_caches.h"
#include "exec/query_executor.h"
#include "graph/reachability_index.h"
#include "obs/search_stats.h"

namespace tgks::bench {
namespace {

/// Optional sink for --json-out; rows go to stdout AND here when set.
std::FILE* g_json_out = nullptr;

std::vector<int> SweepThreads() {
  const char* raw = std::getenv("TGKS_BENCH_THREADS");
  const std::string spec = raw == nullptr ? "1,2,4,8" : raw;
  std::vector<int> threads;
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    const int value = std::atoi(token.c_str());
    if (value > 0) threads.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (threads.empty()) threads.push_back(1);
  return threads;
}

std::vector<exec::BatchQuery> ToBatch(
    const std::vector<datagen::WorkloadQuery>& workload) {
  std::vector<exec::BatchQuery> batch;
  batch.reserve(workload.size());
  for (const auto& wq : workload) {
    batch.push_back(exec::BatchQuery{wq.query, wq.matches});
  }
  return batch;
}

/// One response's identity: every result signature and score, in rank order.
std::string ResponseFingerprint(const Result<search::SearchResponse>& r) {
  if (!r.ok()) return "error:" + r.status().ToString();
  std::string out;
  for (const auto& tree : r->results) {
    out += tree.Signature();
    out += '|';
    for (const double s : tree.score) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g,", s);
      out += buf;
    }
    out += ';';
  }
  return out;
}

std::vector<std::string> Fingerprints(const exec::BatchResponse& response) {
  std::vector<std::string> prints;
  prints.reserve(response.responses.size());
  for (const auto& r : response.responses) {
    prints.push_back(ResponseFingerprint(r));
  }
  return prints;
}

void PrintRow(const std::string& dataset, const char* mode, int threads,
              int64_t deadline_ms, const exec::BatchResponse& response,
              bool identical, double index_build_ms = -1.0,
              int64_t label_bytes = -1) {
  // "stats" tags each row with the build flavour so the TGKS_NO_STATS
  // overhead comparison can pair rows from two binaries.
  char reach[128] = "";
  if (label_bytes >= 0) {
    // reach-prune rows only: one-time labeling cost alongside the
    // per-query savings, so the sweep shows both sides of the trade.
    std::snprintf(reach, sizeof(reach),
                  ", \"index_build_ms\": %.3f, \"label_bytes\": %lld",
                  index_build_ms, static_cast<long long>(label_bytes));
  }
  // Batch-total algorithmic work (bit-stable across machines and build
  // flavours, unlike the latency fields): lets two rows be compared on
  // state-space explored, not just wall time.
  int64_t ntds_popped = 0, edges_scanned = 0;
  for (const auto& r : response.responses) {
    if (!r.ok()) continue;
    ntds_popped += r->counters.pops;
    edges_scanned += r->counters.edges_scanned;
  }
  char row[768];
  std::snprintf(
      row, sizeof(row),
      "{\"dataset\": \"%s\", \"mode\": \"%s\", \"stats\": \"%s\", "
      "\"threads\": %d, \"deadline_ms\": %lld, "
      "\"queries\": %zu, \"wall_seconds\": %.6f, \"qps\": %.2f, "
      "\"p50_ms\": %.3f, \"p90_ms\": %.3f, \"p99_ms\": %.3f, "
      "\"mean_ms\": %.3f, \"deadline_exceeded\": %lld, \"truncated\": %lld, "
      "\"failed\": %lld, \"ntds_popped\": %lld, \"edges_scanned\": %lld, "
      "\"identical_to_sequential\": %s%s}\n",
      dataset.c_str(), mode, tgks::obs::StatsCompiledOut() ? "off" : "on",
      threads, static_cast<long long>(deadline_ms),
      response.responses.size(), response.wall_seconds,
      response.QueriesPerSecond(), response.latency.p50_ms,
      response.latency.p90_ms, response.latency.p99_ms,
      response.latency.mean_ms,
      static_cast<long long>(response.deadline_exceeded),
      static_cast<long long>(response.truncated),
      static_cast<long long>(response.failed),
      static_cast<long long>(ntds_popped),
      static_cast<long long>(edges_scanned), identical ? "true" : "false",
      reach);
  std::fputs(row, stdout);
  std::fflush(stdout);
  if (g_json_out != nullptr) {
    std::fputs(row, g_json_out);
    std::fflush(g_json_out);
  }
}

int SweepDataset(const std::string& name, const graph::TemporalGraph& graph,
                 const graph::InvertedIndex& index,
                 const std::vector<datagen::WorkloadQuery>& workload) {
  const std::vector<exec::BatchQuery> batch = ToBatch(workload);
  search::SearchOptions search_options;
  search_options.k = 10;

  // Sequential reference: one worker thread, no deadline.
  exec::ExecutorOptions ref_options;
  ref_options.threads = 1;
  ref_options.search = search_options;
  exec::QueryExecutor reference(graph, &index, ref_options);
  const exec::BatchResponse ref = reference.Run(batch);
  const std::vector<std::string> ref_prints = Fingerprints(ref);
  PrintRow(name, "sequential", 1, -1, ref, true);

  int mismatches = 0;
  for (const int threads : SweepThreads()) {
    if (threads == 1) continue;  // Already printed as the reference row.
    exec::ExecutorOptions options = ref_options;
    options.threads = threads;
    exec::QueryExecutor executor(graph, &index, options);
    const exec::BatchResponse response = executor.Run(batch);
    const bool identical = Fingerprints(response) == ref_prints;
    if (!identical) ++mismatches;
    PrintRow(name, "sequential", threads, -1, response, identical);
  }

  // The reachability index is built on first use. Build it here, outside
  // every timed run, so the first query of the reach-prune and viability
  // sweeps below does not carry the labeling; its stats are the one-time
  // cost the reach-prune rows report.
  const graph::ReachabilityIndex::BuildStats& rstats =
      graph.reachability().stats();

  // Reachability-prune sweep (docs/reachability.md): threads=1 against the
  // sequential reference, reporting the one-time labeling cost. Divergence
  // from the reference is reported in the row but not counted as a failure:
  // bounded runs under the heuristic bounds may stop at a different
  // frontier ("Bounded stops"); exact equality where it holds is gated by
  // workcount_check.sh --pruned, not here.
  {
    exec::ExecutorOptions options = ref_options;
    options.search.reachability_prune = true;
    exec::QueryExecutor executor(graph, &index, options);
    const exec::BatchResponse response = executor.Run(batch);
    const bool identical = Fingerprints(response) == ref_prints;
    PrintRow(name, "reach-prune", 1, -1, response, identical,
             rstats.build_seconds * 1000.0, rstats.label_bytes);
  }

  // Viability-memoization sweep (docs/caching.md): the reach-prune cell
  // again, with the in-engine query caches wired. Cold = first pass over
  // the workload (every viability vector computed + inserted); warm =
  // second pass over the same batch through the same executor (every
  // lookup hits — the Zipfian repeated-query case the cache targets). Both
  // passes must stay fingerprint-identical to the uncached pruned run.
  {
    cache::QueryCaches caches;
    exec::ExecutorOptions options = ref_options;
    options.search.reachability_prune = true;
    options.search.query_caches = &caches;
    exec::QueryExecutor executor(graph, &index, options);

    exec::ExecutorOptions pruned_options = ref_options;
    pruned_options.search.reachability_prune = true;
    exec::QueryExecutor pruned_reference(graph, &index, pruned_options);
    const std::vector<std::string> pruned_prints =
        Fingerprints(pruned_reference.Run(batch));

    const exec::BatchResponse cold = executor.Run(batch);
    const bool cold_identical = Fingerprints(cold) == pruned_prints;
    if (!cold_identical) ++mismatches;
    PrintRow(name, "reach-prune-viability-cold", 1, -1, cold, cold_identical);
    const exec::BatchResponse warm = executor.Run(batch);
    const bool warm_identical = Fingerprints(warm) == pruned_prints;
    if (!warm_identical) ++mismatches;
    PrintRow(name, "reach-prune-viability-warm", 1, -1, warm, warm_identical);
  }

  const int64_t deadline_ms = EnvInt("TGKS_BENCH_DEADLINE_MS", -1);
  if (deadline_ms > 0) {
    exec::ExecutorOptions options = ref_options;
    options.threads = SweepThreads().back();
    options.deadline_ms = deadline_ms;
    exec::QueryExecutor executor(graph, &index, options);
    // Deadlined runs legitimately diverge from the reference; don't count
    // them as mismatches.
    PrintRow(name, "sequential", options.threads, deadline_ms,
             executor.Run(batch), true);
  }
  return mismatches;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-out" && i + 1 < argc) {
      g_json_out = std::fopen(argv[++i], "w");
      if (g_json_out == nullptr) {
        std::fprintf(stderr, "cannot open --json-out file %s\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s (supported: --json-out <path>)\n",
                   arg.c_str());
      return 2;
    }
  }

  datagen::QueryWorkloadParams params;
  params.num_queries = NumQueries();

  const datagen::DblpDataset dblp = MakeDblp();
  const graph::InvertedIndex dblp_index(dblp.graph);
  const auto dblp_workload = datagen::MakeDblpWorkload(dblp, params);

  const datagen::SocialDataset social = MakeSocial();
  const graph::InvertedIndex social_index(social.graph);
  const auto social_workload =
      datagen::MakeMatchSetWorkload(social.graph, params, ScaledMatches());

  int mismatches = 0;
  mismatches += SweepDataset("dblp", dblp.graph, dblp_index, dblp_workload);
  mismatches +=
      SweepDataset("social", social.graph, social_index, social_workload);
  if (g_json_out != nullptr) std::fclose(g_json_out);
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %d thread-count cells diverged from sequential\n",
                 mismatches);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tgks::bench

int main(int argc, char** argv) { return tgks::bench::Main(argc, argv); }
