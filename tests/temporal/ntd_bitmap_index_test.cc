#include "temporal/ntd_bitmap_index.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "temporal/time_mask.h"

namespace tgks::temporal {
namespace {

// The three implementations must agree; we run the full suite against each.
class NtdIndexTest : public ::testing::TestWithParam<NtdIndexKind> {
 protected:
  std::unique_ptr<NtdSubsumptionIndex> Make(TimePoint horizon) {
    return CreateNtdIndex(GetParam(), horizon);
  }
};

TEST_P(NtdIndexTest, EmptyIndexSubsumesNothing) {
  auto index = Make(20);
  EXPECT_EQ(index->LiveRows(), 0);
  EXPECT_FALSE(index->SubsumedByExisting(IntervalSet{{0, 5}}));
  EXPECT_TRUE(index->CollectSubsumed(IntervalSet{{0, 5}}).empty());
}

TEST_P(NtdIndexTest, ExactMatchSubsumesBothWays) {
  auto index = Make(20);
  const IntervalSet t{{3, 8}};
  const NtdRowHandle h = index->AddRow(t);
  EXPECT_TRUE(index->SubsumedByExisting(t));
  const auto subsumed = index->CollectSubsumed(t);
  ASSERT_EQ(subsumed.size(), 1u);
  EXPECT_EQ(subsumed[0], h);
}

TEST_P(NtdIndexTest, PaperExample34) {
  // Example 3.4: probe 11001001 against rows; rows 2 and 3 subsume it.
  auto index = Make(8);
  // Fig.-5 rows (1-indexed in the paper): we construct four rows such that
  // the 2nd and 3rd contain instants {0,1,4,7} (the 1-bits of the probe).
  index->AddRow(IntervalSet{{0, 1}});                  // Row 0: too small.
  const auto r1 = index->AddRow(IntervalSet{{0, 7}});  // Row 1: subsumes.
  const auto r2 =
      index->AddRow(IntervalSet{{0, 1}, {4, 4}, {6, 7}});  // Row 2: subsumes.
  index->AddRow(IntervalSet{{4, 7}});                      // Row 3: no.
  const IntervalSet probe{{0, 1}, {4, 4}, {7, 7}};         // 11001001.
  EXPECT_TRUE(index->SubsumedByExisting(probe));
  (void)r1;
  (void)r2;
}

TEST_P(NtdIndexTest, StrictSupersetIsNotSubsumed) {
  auto index = Make(20);
  index->AddRow(IntervalSet{{3, 8}});
  EXPECT_FALSE(index->SubsumedByExisting(IntervalSet{{3, 9}}));
  EXPECT_FALSE(index->SubsumedByExisting(IntervalSet{{2, 8}}));
  EXPECT_TRUE(index->SubsumedByExisting(IntervalSet{{4, 7}}));
}

TEST_P(NtdIndexTest, CollectSubsumedFindsStrictSubsets) {
  auto index = Make(20);
  const auto a = index->AddRow(IntervalSet{{4, 6}});
  const auto b = index->AddRow(IntervalSet{{0, 19}});
  const auto c = index->AddRow(IntervalSet{{5, 5}, {8, 9}});
  const auto collected = index->CollectSubsumed(IntervalSet{{3, 10}});
  std::vector<NtdRowHandle> subsumed(collected.begin(), collected.end());
  std::sort(subsumed.begin(), subsumed.end());
  ASSERT_EQ(subsumed.size(), 2u);
  EXPECT_EQ(subsumed[0], std::min(a, c));
  EXPECT_EQ(subsumed[1], std::max(a, c));
  (void)b;
}

TEST_P(NtdIndexTest, RemoveRowForgetsIt) {
  auto index = Make(20);
  const auto h = index->AddRow(IntervalSet{{0, 19}});
  EXPECT_TRUE(index->SubsumedByExisting(IntervalSet{{5, 6}}));
  index->RemoveRow(h);
  EXPECT_EQ(index->LiveRows(), 0);
  EXPECT_FALSE(index->SubsumedByExisting(IntervalSet{{5, 6}}));
  EXPECT_TRUE(index->CollectSubsumed(IntervalSet{{0, 19}}).empty());
}

TEST_P(NtdIndexTest, HandleReuseAfterRemove) {
  auto index = Make(20);
  const auto h1 = index->AddRow(IntervalSet{{0, 3}});
  index->RemoveRow(h1);
  const auto h2 = index->AddRow(IntervalSet{{10, 12}});
  EXPECT_EQ(index->LiveRows(), 1);
  EXPECT_TRUE(index->SubsumedByExisting(IntervalSet{{10, 11}}));
  EXPECT_FALSE(index->SubsumedByExisting(IntervalSet{{0, 3}}));
  (void)h2;
}

TEST_P(NtdIndexTest, GrowthPastInitialCapacity) {
  auto index = Make(64);
  std::vector<NtdRowHandle> handles;
  for (int i = 0; i < 40; ++i) {
    handles.push_back(index->AddRow(IntervalSet{{i, i}}));
  }
  EXPECT_EQ(index->LiveRows(), 40);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(index->SubsumedByExisting(IntervalSet{{i, i}})) << i;
  }
  // Every point row is subsumed by the full range.
  EXPECT_EQ(index->CollectSubsumed(IntervalSet{{0, 63}}).size(), 40u);
}

TEST_P(NtdIndexTest, MultiIntervalRows) {
  auto index = Make(30);
  index->AddRow(IntervalSet{{0, 5}, {10, 15}});
  EXPECT_TRUE(index->SubsumedByExisting(IntervalSet{{2, 4}, {11, 12}}));
  EXPECT_FALSE(index->SubsumedByExisting(IntervalSet{{2, 4}, {8, 8}}));
  const auto subsumed = index->CollectSubsumed(IntervalSet{{0, 20}});
  EXPECT_EQ(subsumed.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, NtdIndexTest,
                         ::testing::Values(NtdIndexKind::kNaive,
                                           NtdIndexKind::kRowMajor,
                                           NtdIndexKind::kColumnMajor),
                         [](const auto& info) {
                           switch (info.param) {
                             case NtdIndexKind::kNaive:
                               return "Naive";
                             case NtdIndexKind::kRowMajor:
                               return "RowMajor";
                             case NtdIndexKind::kColumnMajor:
                               return "ColumnMajor";
                           }
                           return "Unknown";
                         });

// Property test: all three implementations agree under a random workload of
// adds, removes, and queries.
TEST(NtdIndexCrossCheckTest, ImplementationsAgree) {
  constexpr TimePoint kHorizon = 48;
  Rng rng(4242);
  auto naive = CreateNtdIndex(NtdIndexKind::kNaive, kHorizon);
  auto row = CreateNtdIndex(NtdIndexKind::kRowMajor, kHorizon);
  auto col = CreateNtdIndex(NtdIndexKind::kColumnMajor, kHorizon);
  // Handles differ across implementations; track live sets via a common key.
  std::map<int, std::array<NtdRowHandle, 3>> live;  // key -> handles
  std::map<int, IntervalSet> live_sets;
  int next_key = 0;

  auto random_set = [&rng]() {
    std::vector<Interval> ivs;
    const int n = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < n; ++i) {
      const TimePoint a = static_cast<TimePoint>(rng.Uniform(kHorizon));
      const TimePoint b = static_cast<TimePoint>(rng.Uniform(kHorizon));
      ivs.emplace_back(std::min(a, b), std::max(a, b));
    }
    return IntervalSet(std::move(ivs));
  };

  for (int step = 0; step < 400; ++step) {
    const double action = rng.UniformDouble();
    if (action < 0.5 || live.empty()) {
      const IntervalSet t = random_set();
      if (t.IsEmpty()) continue;
      live[next_key] = {naive->AddRow(t), row->AddRow(t), col->AddRow(t)};
      live_sets[next_key] = t;
      ++next_key;
    } else if (action < 0.7) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      naive->RemoveRow(it->second[0]);
      row->RemoveRow(it->second[1]);
      col->RemoveRow(it->second[2]);
      live_sets.erase(it->first);
      live.erase(it);
    } else {
      const IntervalSet probe = random_set();
      if (probe.IsEmpty()) continue;
      const bool expect_subsumed =
          std::any_of(live_sets.begin(), live_sets.end(), [&](const auto& kv) {
            return kv.second.Subsumes(probe);
          });
      EXPECT_EQ(naive->SubsumedByExisting(probe), expect_subsumed);
      EXPECT_EQ(row->SubsumedByExisting(probe), expect_subsumed);
      EXPECT_EQ(col->SubsumedByExisting(probe), expect_subsumed);
      size_t expect_count = 0;
      for (const auto& kv : live_sets) {
        expect_count += probe.Subsumes(kv.second);
      }
      EXPECT_EQ(naive->CollectSubsumed(probe).size(), expect_count);
      EXPECT_EQ(row->CollectSubsumed(probe).size(), expect_count);
      EXPECT_EQ(col->CollectSubsumed(probe).size(), expect_count);
    }
    EXPECT_EQ(naive->LiveRows(), static_cast<int64_t>(live.size()));
    EXPECT_EQ(row->LiveRows(), static_cast<int64_t>(live.size()));
    EXPECT_EQ(col->LiveRows(), static_cast<int64_t>(live.size()));
  }
}

// The TimeMask forms (what iterators on timelines of <= 128 instants call)
// must behave exactly like the IntervalSet forms: same handles, same
// answers, same collected rows in the same order — per implementation.
TEST(NtdIndexCrossCheckTest, MaskFormsMatchIntervalForms) {
  constexpr TimePoint kHorizon = TimeMask::kCapacity;
  for (const NtdIndexKind kind :
       {NtdIndexKind::kNaive, NtdIndexKind::kRowMajor,
        NtdIndexKind::kColumnMajor}) {
    Rng rng(777);
    auto by_set = CreateNtdIndex(kind, kHorizon);
    auto by_mask = CreateNtdIndex(kind, kHorizon);
    std::vector<NtdRowHandle> live;
    auto random_set = [&rng]() {
      // Endpoints straddle the 64-bit word boundary often.
      std::vector<Interval> ivs;
      const int n = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < n; ++i) {
        const TimePoint a = static_cast<TimePoint>(
            rng.Bernoulli(0.3) ? 60 + rng.Uniform(8) : rng.Uniform(kHorizon));
        const TimePoint b = static_cast<TimePoint>(rng.Uniform(kHorizon));
        ivs.emplace_back(std::min(a, b), std::max(a, b));
      }
      return IntervalSet(std::move(ivs));
    };
    for (int step = 0; step < 400; ++step) {
      const double action = rng.UniformDouble();
      const IntervalSet t = random_set();
      const TimeMask m = TimeMask::FromIntervalSet(t);
      if (action < 0.45 || live.empty()) {
        const NtdRowHandle h = by_set->AddRow(t);
        ASSERT_EQ(by_mask->AddRow(m), h);
        live.push_back(h);
      } else if (action < 0.6) {
        const size_t i = rng.Uniform(live.size());
        by_set->RemoveRow(live[i]);
        by_mask->RemoveRow(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        EXPECT_EQ(by_mask->SubsumedByExisting(m),
                  by_set->SubsumedByExisting(t));
        const auto want = by_set->CollectSubsumed(t);
        const std::vector<NtdRowHandle> want_rows(want.begin(), want.end());
        const auto got = by_mask->CollectSubsumed(m);
        EXPECT_EQ(std::vector<NtdRowHandle>(got.begin(), got.end()),
                  want_rows);
      }
      ASSERT_EQ(by_mask->LiveRows(), by_set->LiveRows());
    }
    // Reset leaves both in the fresh state: handles restart identically.
    by_set->Reset();
    by_mask->Reset();
    EXPECT_EQ(by_mask->AddRow(TimeMask::Range(63, 64)),
              by_set->AddRow(IntervalSet{{63, 64}}));
  }
}

}  // namespace
}  // namespace tgks::temporal
