// Microbenchmarks (google-benchmark): the temporal algebra and iterator
// primitives everything else is built on.
//
// The BM_Social* rows run ∩ / ∪ / ⊆ on the operand shapes of the expansion
// loop — a generated social graph's edge validities beside their
// destination nodes' (100 instants, most of them multi-interval) — once on
// IntervalSet (destination-passing, as the wide path runs them) and once on
// TimeMask (the path of timelines <= 128 instants).

#include <type_traits>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "datagen/social_generator.h"
#include "search/best_path_iterator.h"
#include "temporal/interval_set.h"
#include "temporal/ntd_bitmap_index.h"
#include "temporal/time_mask.h"

namespace tgks {
namespace {

using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimeMask;
using temporal::TimePoint;

IntervalSet RandomSet(Rng* rng, TimePoint horizon, int max_fragments) {
  std::vector<Interval> ivs;
  const int n = 1 + static_cast<int>(rng->Uniform(max_fragments));
  for (int i = 0; i < n; ++i) {
    const TimePoint a = static_cast<TimePoint>(rng->Uniform(horizon));
    const TimePoint b = static_cast<TimePoint>(rng->Uniform(horizon));
    ivs.emplace_back(std::min(a, b), std::max(a, b));
  }
  return IntervalSet(std::move(ivs));
}

void BM_IntervalSetIntersect(benchmark::State& state) {
  Rng rng(1);
  const TimePoint horizon = static_cast<TimePoint>(state.range(0));
  std::vector<IntervalSet> sets;
  for (int i = 0; i < 512; ++i) sets.push_back(RandomSet(&rng, horizon, 4));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sets[i % 512].Intersect(sets[(i + 7) % 512]));
    ++i;
  }
}
BENCHMARK(BM_IntervalSetIntersect)->Arg(53)->Arg(100)->Arg(1000);

void BM_IntervalSetSubtract(benchmark::State& state) {
  Rng rng(2);
  const TimePoint horizon = static_cast<TimePoint>(state.range(0));
  std::vector<IntervalSet> sets;
  for (int i = 0; i < 512; ++i) sets.push_back(RandomSet(&rng, horizon, 4));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets[i % 512].Subtract(sets[(i + 13) % 512]));
    ++i;
  }
}
BENCHMARK(BM_IntervalSetSubtract)->Arg(100);

void BM_IntervalSetSubsumes(benchmark::State& state) {
  Rng rng(3);
  std::vector<IntervalSet> sets;
  for (int i = 0; i < 512; ++i) sets.push_back(RandomSet(&rng, 100, 4));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets[i % 512].Subsumes(sets[(i + 3) % 512]));
    ++i;
  }
}
BENCHMARK(BM_IntervalSetSubsumes);

/// (destination node validity, edge validity) of the first 4096 edges of a
/// generated social graph: the T and val(e) of T ∩ val(e).
const std::vector<std::pair<IntervalSet, IntervalSet>>& SocialPairs() {
  static const auto* pairs = [] {
    datagen::SocialParams params;
    params.num_nodes = 4000;
    params.edge_connectivity = 0.7;
    params.seed = 5;
    auto dataset = datagen::GenerateSocial(params);
    auto* out = new std::vector<std::pair<IntervalSet, IntervalSet>>;
    if (!dataset.ok()) return out;
    const graph::TemporalGraph& g = dataset->graph;
    for (graph::EdgeId e = 0; e < g.num_edges() && out->size() < 4096; ++e) {
      out->emplace_back(g.node(g.edge(e).dst).validity, g.edge(e).validity);
    }
    return out;
  }();
  return *pairs;
}

template <typename Set>
std::vector<std::pair<Set, Set>> SocialOperands() {
  std::vector<std::pair<Set, Set>> out;
  for (const auto& [a, b] : SocialPairs()) {
    if constexpr (std::is_same_v<Set, TimeMask>) {
      out.emplace_back(TimeMask::FromIntervalSet(a),
                       TimeMask::FromIntervalSet(b));
    } else {
      out.emplace_back(a, b);
    }
  }
  return out;
}

void Intersect(const IntervalSet& a, const IntervalSet& b, IntervalSet* out) {
  out->AssignIntersectionOf(a, b);
}
void Intersect(const TimeMask& a, const TimeMask& b, TimeMask* out) {
  *out = a & b;
}
void Unite(const IntervalSet& a, const IntervalSet& b, IntervalSet* out) {
  out->AssignUnionOf(a, b);
}
void Unite(const TimeMask& a, const TimeMask& b, TimeMask* out) {
  *out = a | b;
}

template <typename Set>
void BM_SocialIntersect(benchmark::State& state) {
  const auto operands = SocialOperands<Set>();
  if (operands.empty()) {
    state.SkipWithError("generation failed");
    return;
  }
  Set out;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = operands[i++ % operands.size()];
    Intersect(a, b, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK_TEMPLATE(BM_SocialIntersect, IntervalSet);
BENCHMARK_TEMPLATE(BM_SocialIntersect, TimeMask);

template <typename Set>
void BM_SocialUnion(benchmark::State& state) {
  const auto operands = SocialOperands<Set>();
  if (operands.empty()) {
    state.SkipWithError("generation failed");
    return;
  }
  Set out;
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = operands[i++ % operands.size()];
    Unite(a, b, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK_TEMPLATE(BM_SocialUnion, IntervalSet);
BENCHMARK_TEMPLATE(BM_SocialUnion, TimeMask);

template <typename Set>
void BM_SocialSubsumes(benchmark::State& state) {
  const auto operands = SocialOperands<Set>();
  if (operands.empty()) {
    state.SkipWithError("generation failed");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = operands[i++ % operands.size()];
    benchmark::DoNotOptimize(a.Subsumes(b));
  }
}
BENCHMARK_TEMPLATE(BM_SocialSubsumes, IntervalSet);
BENCHMARK_TEMPLATE(BM_SocialSubsumes, TimeMask);

void BM_NtdIndexProbe(benchmark::State& state) {
  const auto kind = static_cast<temporal::NtdIndexKind>(state.range(0));
  const TimePoint horizon = 100;
  Rng rng(4);
  auto index = temporal::CreateNtdIndex(kind, horizon);
  std::vector<IntervalSet> probes;
  for (int i = 0; i < state.range(1); ++i) {
    index->AddRow(RandomSet(&rng, horizon, 3));
  }
  for (int i = 0; i < 256; ++i) probes.push_back(RandomSet(&rng, horizon, 3));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->SubsumedByExisting(probes[i % 256]));
    ++i;
  }
}
BENCHMARK(BM_NtdIndexProbe)
    ->ArgsProduct({{0, 1, 2}, {8, 64, 512}})
    ->ArgNames({"kind", "rows"});

void BM_BestPathIteratorDrain(benchmark::State& state) {
  datagen::SocialParams params;
  params.num_nodes = 4000;
  params.edge_connectivity = 0.7;
  params.seed = 5;
  auto dataset = datagen::GenerateSocial(params);
  if (!dataset.ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  const auto factor = static_cast<search::RankFactor>(state.range(0));
  Rng rng(6);
  for (auto _ : state) {
    search::BestPathIterator::Options options;
    options.ranking.factors = {factor};
    search::BestPathIterator iter(
        dataset->graph,
        static_cast<graph::NodeId>(rng.Uniform(
            static_cast<uint64_t>(dataset->graph.num_nodes()))),
        options);
    int64_t pops = 0;
    // Drain a bounded frontier: 2000 pops covers a realistic top-k search.
    while (pops < 2000 && iter.Next() != search::kInvalidNtd) ++pops;
    benchmark::DoNotOptimize(pops);
  }
}
BENCHMARK(BM_BestPathIteratorDrain)
    ->Arg(0)   // relevance
    ->Arg(1)   // end time
    ->Arg(2)   // start time
    ->Arg(3)   // duration
    ->ArgNames({"factor"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tgks

BENCHMARK_MAIN();
