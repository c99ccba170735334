// dblp-batch harness: the offline library path, measured from outside.
//
//   perfbench_dblp --seed N --passes P [--trace-out FILE]
//
// Generates the DBLP stand-in kSetups times (datagen + GraphBuilder, then
// the InvertedIndex) and keeps the last copy; takes the fixed 200-query
// workload (MakeDblpWorkload, 2-4 keywords, k=10, default SearchOptions)
// and a seeded submission order for each pass;
// computes a single-threaded sequential reference outside every timed
// window; runs one untimed warm-up pass on a kWorkers-worker QueryExecutor;
// then replays P passes closed-loop with kWorkers queries outstanding
// through QueryExecutor::Submit. Every answer is checked against the
// reference (result signatures and scores in rank order, plus the exact
// work counts). With --trace-out the timed passes run twice, untraced then
// traced; the traced passes record a span tree per query in the completion
// callback, and the spans are written to FILE.
//
// Prints one JSON object of raw metrics as the last stdout line.

#include <sys/resource.h>

#include <condition_variable>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "datagen/dblp_generator.h"
#include "datagen/query_generator.h"
#include "exec/query_executor.h"
#include "graph/inverted_index.h"
#include "graph/reachability_index.h"
#include "search/search_engine.h"

namespace {

using perfbench::Clock;
using perfbench::Micros;
using tgks::search::SearchResponse;

// The DBLP stand-in at TGKS_BENCH_SCALE 0.05 (see README.md for why).
constexpr double kScale = 0.05;
// Executor workers, and queries kept outstanding: the box's 4 cores.
constexpr int kWorkers = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 40;
constexpr std::chrono::milliseconds kSetupPause{50};

struct Args {
  uint64_t seed = 1;
  int passes = 0;
  std::string trace_out;
};

/// The per-query numbers the checks and metrics need; full responses are
/// not kept, so memory stays that of the engine.
struct Work {
  int64_t pops = 0;
  int64_t useless_pops = 0;
  int64_t edges_scanned = 0;
  int64_t ntds_created = 0;
  int64_t candidates = 0;
  int64_t results = 0;
  int64_t combo_overflows = 0;
  int64_t interval_ops = 0;
  int64_t heap_high_water = 0;
  bool stop_bound = false;
  double match_s = 0, filter_s = 0, expand_s = 0, generate_s = 0;

  bool SameCounts(const Work& o) const {
    return pops == o.pops && edges_scanned == o.edges_scanned &&
           ntds_created == o.ntds_created && candidates == o.candidates &&
           interval_ops == o.interval_ops;
  }
};

Work WorkOf(const SearchResponse& r) {
  Work w;
  w.pops = r.counters.pops;
  w.useless_pops = r.counters.useless_pops;
  w.edges_scanned = r.counters.edges_scanned;
  w.ntds_created = r.counters.ntds_created;
  w.candidates = r.counters.candidates;
  w.results = static_cast<int64_t>(r.results.size());
  w.combo_overflows = r.counters.combo_overflows;
  w.interval_ops = r.stats.interval_ops;
  w.heap_high_water = r.stats.heap_high_water;
  w.stop_bound = r.stop_reason == tgks::search::StopReason::kBound;
  w.match_s = r.counters.seconds_match;
  w.filter_s = r.counters.seconds_filter;
  w.expand_s = r.counters.seconds_expand;
  w.generate_s = r.counters.seconds_generate;
  return w;
}

/// Every result's signature and score, in rank order.
std::string Fingerprint(const SearchResponse& r) {
  std::string out;
  for (const auto& tree : r.results) {
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

struct Completion {
  Clock::time_point submit;
  Clock::time_point done;
  double exec_s = 0.0;
  Work work;
};

struct Pass {
  std::vector<Completion> completions;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t failed = 0;
};

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Records one query's spans: Submit -> callback, the executor-reported run
/// ending at the callback, and the engine's reported phases inside it.
void RecordQuery(perfbench::SpanRecorder* recorder, int64_t request,
                 const Completion& c) {
  const int64_t submit =
      recorder->Add(request, 0, "exec.submit", c.submit, c.done);
  const auto run_start =
      c.done - std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(c.exec_s));
  const int64_t run =
      recorder->Add(request, submit, "search.query", run_start, c.done);
  Clock::time_point at = run_start;
  const std::pair<const char*, double> phases[] = {
      {"search.match", c.work.match_s},
      {"search.filter", c.work.filter_s},
      {"search.expand", c.work.expand_s},
      {"search.generate", c.work.generate_s}};
  for (const auto& [name, seconds] : phases) {
    const auto end = at + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    recorder->Add(request, run, name, at, end);
    at = end;
  }
}

/// Runs the queries named by `order` closed-loop with kWorkers outstanding,
/// checking each answer against the reference. With a `recorder`, each
/// callback records its query's spans.
Pass RunClosedLoop(tgks::exec::QueryExecutor* executor,
                   const std::vector<tgks::search::Query>& queries,
                   const std::vector<std::string>& ref_prints,
                   const std::vector<Work>& ref_work,
                   const std::vector<int>& order,
                   perfbench::SpanRecorder* recorder = nullptr) {
  Pass pass;
  const int64_t total = static_cast<int64_t>(order.size());
  pass.completions.resize(order.size());
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;
  int64_t failed = 0;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < total; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < kWorkers; });
      ++outstanding;
    }
    const int q = order[static_cast<size_t>(i)];
    Completion* slot = &pass.completions[static_cast<size_t>(i)];
    tgks::exec::SingleQuery single;
    single.query.query = queries[static_cast<size_t>(q)];
    slot->submit = Clock::now();
    executor->Submit(
        std::move(single),
        [&, slot, q, i](tgks::Result<SearchResponse> response, double seconds) {
          slot->done = Clock::now();
          slot->exec_s = seconds;
          bool good = response.ok() && !response->truncated;
          if (good) {
            slot->work = WorkOf(*response);
            good = Fingerprint(*response) == ref_prints[static_cast<size_t>(q)] &&
                   slot->work.SameCounts(ref_work[static_cast<size_t>(q)]);
          }
          std::lock_guard<std::mutex> lock(mu);
          if (recorder != nullptr) RecordQuery(recorder, i, *slot);
          if (!good) ++failed;
          --outstanding;
          cv.notify_one();
        });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  pass.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  pass.failed = failed;
  return pass;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (arg == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--passes") {
      args->passes = std::atoi(value);
    } else if (arg == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->passes > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_dblp --seed N --passes P "
                 "[--trace-out FILE]\n";
    return 2;
  }
  const Clock::time_point epoch = Clock::now();
  perfbench::SpanRecorder setup_spans(epoch);

  // Set-up, repeated so its median is steady; the last copy is kept. The
  // previous copy is released first so two graphs never coexist. The pauses
  // spread the set-ups over a few seconds, so the median does not hang on
  // the machine's speed during one short burst.
  tgks::datagen::DblpParams params;
  params.num_papers = static_cast<int32_t>(8000 * kScale);
  params.num_authors = static_cast<int32_t>(3000 * kScale);
  params.num_venues = static_cast<int32_t>(50 * kScale) + 10;
  params.vocab_size = 2500;
  params.seed = 42;
  std::unique_ptr<tgks::datagen::DblpDataset> dataset;
  std::unique_ptr<tgks::graph::InvertedIndex> index;
  std::vector<double> setup_s, build_s, index_s;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) std::this_thread::sleep_for(kSetupPause);
    index.reset();
    dataset.reset();
    const Clock::time_point t0 = Clock::now();
    auto generated = tgks::datagen::GenerateDblp(params);
    if (!generated.ok()) {
      std::cerr << "dblp generation failed: " << generated.status() << "\n";
      return 1;
    }
    dataset = std::make_unique<tgks::datagen::DblpDataset>(
        std::move(generated).value());
    const Clock::time_point t1 = Clock::now();
    index = std::make_unique<tgks::graph::InvertedIndex>(dataset->graph);
    const Clock::time_point t2 = Clock::now();
    const int64_t root = setup_spans.Add(-1 - i, 0, "setup", t0, t2);
    setup_spans.Add(-1 - i, root, "graph.build", t0, t1);
    setup_spans.Add(-1 - i, root, "graph.index", t1, t2);
    build_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    index_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    setup_s.push_back(std::chrono::duration<double>(t2 - t0).count());
  }
  const tgks::graph::TemporalGraph& graph = dataset->graph;
  const auto& reach = graph.reachability().stats();

  // The query set is the fixed Sec.-6.1 workload (MakeDblpWorkload's
  // default seed), so every --seed does the same work; --seed draws the
  // order in which each pass submits it.
  tgks::datagen::QueryWorkloadParams workload_params;
  workload_params.num_queries = 200;
  std::vector<tgks::search::Query> queries;
  for (const auto& wq : tgks::datagen::MakeDblpWorkload(*dataset,
                                                        workload_params)) {
    queries.push_back(wq.query);
  }
  tgks::search::SearchOptions options;
  options.k = 10;

  // Sequential single-worker reference, outside set-up and timing.
  std::vector<std::string> ref_prints;
  std::vector<Work> ref_work;
  {
    const tgks::search::SearchEngine engine(graph, index.get());
    for (const auto& query : queries) {
      auto response = engine.Search(query, options);
      if (!response.ok()) {
        std::cerr << "reference query failed: " << response.status() << "\n";
        return 1;
      }
      ref_prints.push_back(Fingerprint(*response));
      ref_work.push_back(WorkOf(*response));
    }
  }
  Work ref_total;
  for (const Work& w : ref_work) {
    ref_total.pops += w.pops;
    ref_total.edges_scanned += w.edges_scanned;
    ref_total.ntds_created += w.ntds_created;
    ref_total.candidates += w.candidates;
    ref_total.interval_ops += w.interval_ops;
  }

  tgks::exec::ExecutorOptions exec_options;
  exec_options.threads = kWorkers;
  exec_options.search = options;
  tgks::exec::QueryExecutor executor(graph, index.get(), exec_options);
  const int64_t per_pass = static_cast<int64_t>(queries.size());
  const int64_t timed_total = per_pass * args.passes;
  std::vector<int> warmup_order(queries.size());
  for (size_t i = 0; i < warmup_order.size(); ++i) {
    warmup_order[i] = static_cast<int>(i);
  }
  std::vector<int> timed_order;
  tgks::Rng rng(args.seed);
  for (int p = 0; p < args.passes; ++p) {
    std::vector<int> pass_order = warmup_order;
    for (size_t i = pass_order.size(); i > 1; --i) {
      std::swap(pass_order[i - 1], pass_order[rng.Uniform(i)]);
    }
    timed_order.insert(timed_order.end(), pass_order.begin(),
                       pass_order.end());
  }

  const Pass warmup = RunClosedLoop(&executor, queries, ref_prints, ref_work,
                                    warmup_order);
  const double rss_after_warmup_mib =
      perfbench::ProcStatusMiB(getpid(), "VmRSS");
  const Pass timed = RunClosedLoop(&executor, queries, ref_prints, ref_work,
                                   timed_order);
  const double rss_end_mib = perfbench::ProcStatusMiB(getpid(), "VmRSS");
  const double hwm_mib = perfbench::ProcStatusMiB(getpid(), "VmHWM");

  // Traced run: the same passes again, each callback recording its query's
  // spans while the pass runs.
  Pass traced;
  std::vector<perfbench::Span> spans;
  if (!args.trace_out.empty()) {
    perfbench::SpanRecorder recorder(epoch, 1000000);
    recorder.spans().reserve(static_cast<size_t>(timed_total) * 6);
    traced = RunClosedLoop(&executor, queries, ref_prints, ref_work,
                           timed_order, &recorder);
    spans = std::move(setup_spans.spans());
    for (auto& s : recorder.spans()) spans.push_back(std::move(s));
    if (!perfbench::WriteSpans(args.trace_out, spans)) {
      std::cerr << "cannot write " << args.trace_out << "\n";
      return 1;
    }
  }

  // Metrics over the timed passes (the traced passes when tracing, so the
  // per-layer numbers and the spans describe the same requests).
  const Pass& measured = args.trace_out.empty() ? timed : traced;
  std::vector<double> queue_wait_ms;
  Work sum;
  double exec_s = 0.0;
  int64_t stop_bound = 0;
  int64_t heap_high_water = 0;
  for (const Completion& c : measured.completions) {
    queue_wait_ms.push_back(Micros(c.submit, c.done) / 1000.0 -
                            c.exec_s * 1000.0);
    exec_s += c.exec_s;
    sum.pops += c.work.pops;
    sum.useless_pops += c.work.useless_pops;
    sum.edges_scanned += c.work.edges_scanned;
    sum.ntds_created += c.work.ntds_created;
    sum.candidates += c.work.candidates;
    sum.results += c.work.results;
    sum.combo_overflows += c.work.combo_overflows;
    sum.interval_ops += c.work.interval_ops;
    sum.match_s += c.work.match_s;
    sum.filter_s += c.work.filter_s;
    sum.expand_s += c.work.expand_s;
    sum.generate_s += c.work.generate_s;
    if (c.work.stop_bound) ++stop_bound;
    heap_high_water = std::max(heap_high_water, c.work.heap_high_water);
  }
  const double n = static_cast<double>(measured.completions.size());
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  perfbench::Report report;
  report.Int("attempted", per_pass + timed_total +
                              (args.trace_out.empty() ? 0 : timed_total));
  report.Int("failed", warmup.failed + timed.failed + traced.failed);
  report.Int("ops", timed_total);
  report.Num("setup_s", perfbench::Percentile(setup_s, 0.5));
  {
    // Every search of the untraced timed window, over its whole wall time.
    std::vector<double> untraced_ms;
    for (const Completion& c : timed.completions) {
      untraced_ms.push_back(Micros(c.submit, c.done) / 1000.0);
    }
    report.Num("search_qps", static_cast<double>(timed_total) / timed.wall_s);
    report.Num("search_p50_ms", perfbench::Percentile(untraced_ms, 0.50));
    report.Num("search_p99_ms", perfbench::Percentile(untraced_ms, 0.99));
  }
  report.Num("peak_rss_mb", hwm_mib);

  report.Num("graph.build_s", perfbench::Percentile(build_s, 0.5));
  report.Num("graph.reach_build_s", reach.build_seconds);
  report.Int("graph.reach_label_bytes", reach.label_bytes);
  report.Num("graph.index_build_s", perfbench::Percentile(index_s, 0.5));
  report.Num("search.match_ms", sum.match_s * 1000.0 / n);
  report.Num("search.filter_ms", sum.filter_s * 1000.0 / n);
  report.Num("search.expand_ms", sum.expand_s * 1000.0 / n);
  report.Num("search.generate_ms", sum.generate_s * 1000.0 / n);
  report.Num("search.pops", static_cast<double>(sum.pops) / n);
  report.Num("search.edges_scanned", static_cast<double>(sum.edges_scanned) / n);
  report.Num("search.ntds_created", static_cast<double>(sum.ntds_created) / n);
  report.Num("search.candidates", static_cast<double>(sum.candidates) / n);
  report.Num("search.useless_pop_ratio",
             ratio(static_cast<double>(sum.useless_pops),
                   static_cast<double>(sum.pops)));
  report.Num("search.valid_candidate_ratio",
             ratio(static_cast<double>(sum.results),
                   static_cast<double>(sum.candidates)));
  report.Num("search.combo_overflows",
             static_cast<double>(sum.combo_overflows) / args.passes);
  report.Num("search.stop_bound_ratio", static_cast<double>(stop_bound) / n);
  report.Int("search.heap_high_water", heap_high_water);
  report.Num("search.pops_per_s", ratio(static_cast<double>(sum.pops),
                                        sum.expand_s));
  report.Num("search.edges_per_s",
             ratio(static_cast<double>(sum.edges_scanned), sum.expand_s));
  report.Num("temporal.interval_ops", static_cast<double>(sum.interval_ops) / n);
  report.Num("exec.query_ms", exec_s * 1000.0 / n);
  report.Num("exec.queue_wait_ms",
             spans.empty() ? perfbench::Mean(queue_wait_ms)
                           : perfbench::MeanSelfMicros(spans, "exec.submit") /
                                 1000.0);
  report.Num("exec.queue_wait_p99_ms",
             perfbench::Percentile(queue_wait_ms, 0.99));
  report.Num("exec.busy_frac", exec_s / (measured.wall_s * kWorkers));
  report.Num("proc.cpu_ms_per_op", measured.cpu_s * 1000.0 / n);
  report.Num("proc.rss_growth_mb_per_kq",
             (rss_end_mib - rss_after_warmup_mib) /
                 (static_cast<double>(timed_total) / 1000.0));
  report.Num("trace.overhead_pct",
             args.trace_out.empty()
                 ? 0.0
                 : (traced.wall_s / timed.wall_s - 1.0) * 100.0);
  report.Num("search_samples", n);
  report.Int("exact.pops", ref_total.pops);
  report.Int("exact.edges_scanned", ref_total.edges_scanned);
  report.Int("exact.ntds_created", ref_total.ntds_created);
  report.Int("exact.candidates", ref_total.candidates);
  report.Int("exact.interval_ops", ref_total.interval_ops);
  std::cout << report.Take() << std::endl;
  return 0;
}
