#include "temporal/bitmap.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "temporal/interval_set.h"
#include "temporal/time_mask.h"

namespace tgks::temporal {
namespace {

TEST(BitmapTest, StartsAllZero) {
  Bitmap bm(100);
  EXPECT_EQ(bm.size(), 100);
  EXPECT_TRUE(bm.None());
  EXPECT_FALSE(bm.Any());
  EXPECT_EQ(bm.Count(), 0);
}

TEST(BitmapTest, SetTestClear) {
  Bitmap bm(70);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(69);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(69));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_EQ(bm.Count(), 4);
  bm.Clear(63);
  EXPECT_FALSE(bm.Test(63));
  EXPECT_EQ(bm.Count(), 3);
}

TEST(BitmapTest, SetRangeWithinOneWord) {
  Bitmap bm(64);
  bm.SetRange(3, 7);
  EXPECT_EQ(bm.Count(), 5);
  for (int64_t i = 3; i <= 7; ++i) EXPECT_TRUE(bm.Test(i));
  EXPECT_FALSE(bm.Test(2));
  EXPECT_FALSE(bm.Test(8));
}

TEST(BitmapTest, SetRangeAcrossWords) {
  Bitmap bm(200);
  bm.SetRange(60, 130);
  EXPECT_EQ(bm.Count(), 71);
  EXPECT_TRUE(bm.Test(60));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(128));
  EXPECT_TRUE(bm.Test(130));
  EXPECT_FALSE(bm.Test(59));
  EXPECT_FALSE(bm.Test(131));
}

TEST(BitmapTest, FillRespectsPadding) {
  Bitmap bm(67);
  bm.Fill();
  EXPECT_EQ(bm.Count(), 67);
  EXPECT_TRUE(bm.All());
}

TEST(BitmapTest, AllOnPartiallySet) {
  Bitmap bm(10);
  bm.SetRange(0, 8);
  EXPECT_FALSE(bm.All());
  bm.Set(9);
  EXPECT_TRUE(bm.All());
}

TEST(BitmapTest, EmptyBitmapEdgeCases) {
  Bitmap bm(0);
  EXPECT_TRUE(bm.None());
  EXPECT_TRUE(bm.All());
  EXPECT_EQ(bm.FindFirstSet(0), -1);
  EXPECT_EQ(bm.FindFirstClear(0), -1);
}

TEST(BitmapTest, BooleanOps) {
  Bitmap a(130), b(130);
  a.SetRange(0, 99);
  b.SetRange(50, 129);
  Bitmap band = a;
  band.And(b);
  EXPECT_EQ(band.Count(), 50);  // [50,99]
  Bitmap bor = a;
  bor.Or(b);
  EXPECT_EQ(bor.Count(), 130);
  Bitmap bnot = a;
  bnot.AndNot(b);
  EXPECT_EQ(bnot.Count(), 50);  // [0,49]
  EXPECT_TRUE(bnot.Test(0));
  EXPECT_FALSE(bnot.Test(50));
}

TEST(BitmapTest, SubsetAndIntersects) {
  Bitmap a(100), b(100);
  a.SetRange(10, 20);
  b.SetRange(5, 30);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  Bitmap c(100);
  c.SetRange(40, 50);
  EXPECT_FALSE(a.Intersects(c));
  Bitmap empty(100);
  EXPECT_TRUE(empty.IsSubsetOf(a));
  EXPECT_FALSE(empty.Intersects(a));
}

TEST(BitmapTest, FindFirstSet) {
  Bitmap bm(200);
  bm.Set(70);
  bm.Set(150);
  EXPECT_EQ(bm.FindFirstSet(0), 70);
  EXPECT_EQ(bm.FindFirstSet(70), 70);
  EXPECT_EQ(bm.FindFirstSet(71), 150);
  EXPECT_EQ(bm.FindFirstSet(151), -1);
}

TEST(BitmapTest, FindFirstClear) {
  Bitmap bm(130);
  bm.Fill();
  bm.Clear(65);
  bm.Clear(129);
  EXPECT_EQ(bm.FindFirstClear(0), 65);
  EXPECT_EQ(bm.FindFirstClear(66), 129);
  // Padding bits must never be reported clear.
  bm.Set(129);
  bm.Set(65);
  EXPECT_EQ(bm.FindFirstClear(0), -1);
}

TEST(BitmapTest, ResetZeroes) {
  Bitmap bm(100);
  bm.SetRange(0, 99);
  bm.Reset();
  EXPECT_TRUE(bm.None());
}

TEST(BitmapTest, EqualityIncludesSize) {
  Bitmap a(10), b(10), c(11);
  a.Set(3);
  b.Set(3);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(BitmapTest, ToString) {
  Bitmap bm(5);
  bm.Set(1);
  bm.Set(4);
  EXPECT_EQ(bm.ToString(), "01001");
}

// Property: bitmap ops agree with per-bit reference on random inputs.
TEST(BitmapPropertyTest, OpsMatchPerBitReference) {
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    const int64_t n = 1 + static_cast<int64_t>(rng.Uniform(300));
    Bitmap a(n), b(n);
    std::vector<bool> ra(n), rb(n);
    for (int64_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.4)) {
        a.Set(i);
        ra[i] = true;
      }
      if (rng.Bernoulli(0.4)) {
        b.Set(i);
        rb[i] = true;
      }
    }
    Bitmap band = a;
    band.And(b);
    Bitmap bor = a;
    bor.Or(b);
    Bitmap bnot = a;
    bnot.AndNot(b);
    bool subset = true, intersects = false;
    int64_t count_a = 0;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(band.Test(i), ra[i] && rb[i]);
      EXPECT_EQ(bor.Test(i), ra[i] || rb[i]);
      EXPECT_EQ(bnot.Test(i), ra[i] && !rb[i]);
      subset &= (!ra[i] || rb[i]);
      intersects |= (ra[i] && rb[i]);
      count_a += ra[i];
    }
    EXPECT_EQ(a.IsSubsetOf(b), subset);
    EXPECT_EQ(a.Intersects(b), intersects);
    EXPECT_EQ(a.Count(), count_a);
  }
}

TEST(BitmapTest, AssignMaskMatchesIntervalFill) {
  // Sizes below, at and across the word boundary; the mask may hold bits
  // past `size`, which must not leak into the padding.
  const TimeMask mask = TimeMask::Range(0, 2) | TimeMask::Range(62, 66) |
                        TimeMask::Point(127);
  Bitmap bitmap(3);  // Start from a different size: storage is reused.
  for (const int64_t size : {1, 63, 64, 65, 100, 128}) {
    bitmap.AssignMask(size, mask);
    const Bitmap want = mask.ToIntervalSet()
                            .Intersect(IntervalSet::All(
                                static_cast<TimePoint>(size)))
                            .ToBitmap(static_cast<TimePoint>(size));
    EXPECT_EQ(bitmap, want) << size;
    EXPECT_EQ(bitmap.Count(), want.Count()) << size;
  }
}

}  // namespace
}  // namespace tgks::temporal
