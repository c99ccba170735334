// Property tests for the IntervalSet algebra, driven by a seeded random
// set generator and cross-checked against a brute-force bitset model.
//
// The algebra underpins everything: NTD time-sets, validity, predicate
// evaluation, result times. These tests pin down
//
//   * the canonical-form invariant (sorted, disjoint, non-adjacent,
//     non-empty intervals) after EVERY operation,
//   * round-trips: (A \ B) ∪ (A ∩ B) == A, complement of complement == A,
//     De Morgan over a bounded universe,
//   * agreement with the instant-by-instant model for union, intersection,
//     subtraction, complement, Subsumes, Overlaps, Contains, Duration,
//   * the canonical empty-interval normalization: [0,-1] is the only empty
//     representation an operation may produce,
//   * TimeMask, the 128-instant word-parallel representation the search
//     runs on short timelines, against IntervalSet: every operation, the
//     conversions both ways, and the word-boundary instants 0, 63, 64, 127
//     plus the empty set and the full timeline.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "temporal/interval.h"
#include "temporal/interval_set.h"
#include "temporal/time_mask.h"

namespace tgks {
namespace {

using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimeMask;
using temporal::TimePoint;

constexpr TimePoint kUniverse = 24;  // Property tests run within [0, 24).

/// Random set: a handful of random (possibly overlapping, possibly empty)
/// intervals thrown at the normalizing constructor.
IntervalSet RandomSet(Rng* rng) {
  std::vector<Interval> intervals;
  const int n = static_cast<int>(rng->Uniform(5));  // 0..4 intervals.
  for (int i = 0; i < n; ++i) {
    const TimePoint a = static_cast<TimePoint>(rng->Uniform(kUniverse));
    const TimePoint b = static_cast<TimePoint>(rng->Uniform(kUniverse));
    // ~1 in 5 raw intervals is empty (a > b) to exercise normalization.
    if (rng->Bernoulli(0.2)) {
      intervals.push_back(Interval(std::max(a, b), std::min(a, b) - 1));
    } else {
      intervals.push_back(Interval(std::min(a, b), std::max(a, b)));
    }
  }
  return IntervalSet(std::move(intervals));
}

/// Instant-by-instant membership model.
std::vector<bool> Model(const IntervalSet& set) {
  std::vector<bool> bits(static_cast<size_t>(kUniverse), false);
  for (TimePoint t = 0; t < kUniverse; ++t) {
    bits[static_cast<size_t>(t)] = set.Contains(t);
  }
  return bits;
}

IntervalSet FromModel(const std::vector<bool>& bits) {
  std::vector<Interval> intervals;
  for (size_t t = 0; t < bits.size(); ++t) {
    if (bits[t]) intervals.push_back(Interval::Point(static_cast<TimePoint>(t)));
  }
  return IntervalSet(std::move(intervals));
}

/// The representation invariant every IntervalSet must uphold.
void AssertCanonical(const IntervalSet& set, const std::string& context) {
  const std::span<const Interval> iv = set.intervals();
  for (size_t i = 0; i < iv.size(); ++i) {
    ASSERT_FALSE(iv[i].IsEmpty())
        << context << ": stored interval " << i << " is empty";
    if (i > 0) {
      // Sorted, disjoint, AND non-adjacent: a gap of >= 1 instant.
      ASSERT_GT(iv[i].start, iv[i - 1].end + 1)
          << context << ": intervals " << i - 1 << " and " << i
          << " are adjacent or overlap in " << set.ToString();
    }
  }
}

class IntervalAlgebraPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IntervalAlgebraPropertyTest, OperationsAgreeWithInstantModel) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const IntervalSet a = RandomSet(&rng);
    const IntervalSet b = RandomSet(&rng);
    const std::string ctx = "seed " + std::to_string(GetParam()) + " round " +
                            std::to_string(round) + ": A=" + a.ToString() +
                            " B=" + b.ToString();
    AssertCanonical(a, ctx + " (A)");
    AssertCanonical(b, ctx + " (B)");

    const std::vector<bool> ma = Model(a);
    const std::vector<bool> mb = Model(b);

    const IntervalSet u = a.Union(b);
    const IntervalSet x = a.Intersect(b);
    const IntervalSet d = a.Subtract(b);
    const IntervalSet c = a.ComplementWithin(kUniverse);
    AssertCanonical(u, ctx + " (union)");
    AssertCanonical(x, ctx + " (intersect)");
    AssertCanonical(d, ctx + " (subtract)");
    AssertCanonical(c, ctx + " (complement)");

    std::vector<bool> mu(ma.size()), mx(ma.size()), md(ma.size()),
        mc(ma.size());
    for (size_t t = 0; t < ma.size(); ++t) {
      mu[t] = ma[t] || mb[t];
      mx[t] = ma[t] && mb[t];
      md[t] = ma[t] && !mb[t];
      mc[t] = !ma[t];
    }
    EXPECT_EQ(u, FromModel(mu)) << ctx;
    EXPECT_EQ(x, FromModel(mx)) << ctx;
    EXPECT_EQ(d, FromModel(md)) << ctx;
    EXPECT_EQ(c, FromModel(mc)) << ctx;

    // Scalar queries against the model.
    EXPECT_EQ(a.Duration(),
              static_cast<int64_t>(std::count(ma.begin(), ma.end(), true)))
        << ctx;
    const bool model_subsumes = [&] {
      for (size_t t = 0; t < ma.size(); ++t) {
        if (mb[t] && !ma[t]) return false;
      }
      return true;
    }();
    const bool model_overlaps = [&] {
      for (size_t t = 0; t < ma.size(); ++t) {
        if (ma[t] && mb[t]) return true;
      }
      return false;
    }();
    EXPECT_EQ(a.Subsumes(b), model_subsumes) << ctx;
    EXPECT_EQ(a.Overlaps(b), model_overlaps) << ctx;
  }
}

TEST_P(IntervalAlgebraPropertyTest, RoundTripsAndDeMorgan) {
  Rng rng(GetParam() ^ 0xABCDEF);
  for (int round = 0; round < 200; ++round) {
    const IntervalSet a = RandomSet(&rng);
    const IntervalSet b = RandomSet(&rng);
    const std::string ctx = "round " + std::to_string(round) +
                            ": A=" + a.ToString() + " B=" + b.ToString();

    // Partition round-trip: (A \ B) ∪ (A ∩ B) == A, with the two parts
    // disjoint.
    const IntervalSet diff = a.Subtract(b);
    const IntervalSet common = a.Intersect(b);
    EXPECT_EQ(diff.Union(common), a) << ctx;
    EXPECT_FALSE(diff.Overlaps(common)) << ctx;

    // Double complement.
    EXPECT_EQ(a.ComplementWithin(kUniverse).ComplementWithin(kUniverse), a)
        << ctx;

    // De Morgan within the universe.
    EXPECT_EQ(a.Union(b).ComplementWithin(kUniverse),
              a.ComplementWithin(kUniverse)
                  .Intersect(b.ComplementWithin(kUniverse)))
        << ctx;
    EXPECT_EQ(a.Intersect(b).ComplementWithin(kUniverse),
              a.ComplementWithin(kUniverse)
                  .Union(b.ComplementWithin(kUniverse)))
        << ctx;

    // Subtract-as-complement: A \ B == A ∩ ¬B.
    EXPECT_EQ(diff, a.Intersect(b.ComplementWithin(kUniverse))) << ctx;

    // Identities and absorptions.
    EXPECT_EQ(a.Union(a), a) << ctx;
    EXPECT_EQ(a.Intersect(a), a) << ctx;
    EXPECT_EQ(a.Subtract(a), IntervalSet()) << ctx;
    EXPECT_EQ(a.Union(IntervalSet()), a) << ctx;
    EXPECT_EQ(a.Intersect(IntervalSet()), IntervalSet()) << ctx;
    EXPECT_EQ(a.Intersect(IntervalSet::All(kUniverse)), a) << ctx;
    EXPECT_TRUE(a.Subsumes(common)) << ctx;
    EXPECT_TRUE(a.Union(b).Subsumes(a)) << ctx;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalAlgebraPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(IntervalNormalizationTest, EmptyIntervalHasOneCanonicalForm) {
  // The canonical empty interval is [0,-1]; every empty-producing operation
  // must return exactly that representation.
  const Interval canonical;
  EXPECT_EQ(canonical.start, 0);
  EXPECT_EQ(canonical.end, -1);
  const Interval empty = Interval(7, 9).Intersect(Interval(1, 3));
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_EQ(empty.start, 0);
  EXPECT_EQ(empty.end, -1);
  // Interval equality treats every empty pair as equal regardless of raw
  // fields, and the set constructor normalizes them away entirely.
  EXPECT_EQ(Interval(5, 2), canonical);
  EXPECT_TRUE(IntervalSet{Interval(5, 2)}.IsEmpty());
  EXPECT_TRUE(IntervalSet({Interval(5, 2), Interval(9, 3)}).IsEmpty());
}

// Small-buffer-optimization coverage: IntervalSet stores up to two
// intervals inline and spills to the heap beyond that. Every special member
// must be correct across the inline <-> heap boundary, and the
// destination-passing ops must agree with their allocating counterparts
// whatever mix of representations the operands and destination are in.

/// One set per representation class: empty, inline (1-2 intervals), and
/// heap-spilled (3+ intervals).
std::vector<IntervalSet> RepresentationZoo() {
  return {
      IntervalSet(),                                          // Empty inline.
      IntervalSet{Interval(2, 5)},                            // 1 (inline).
      IntervalSet({Interval(0, 1), Interval(8, 9)}),          // 2 (inline max).
      IntervalSet({Interval(0, 0), Interval(3, 4), Interval(7, 9)}),  // Spill.
      IntervalSet({Interval(0, 0), Interval(2, 2), Interval(4, 5),
                   Interval(8, 10), Interval(14, 20)}),       // Deep spill.
  };
}

TEST(IntervalSetSboTest, CopyAcrossRepresentationBoundary) {
  for (const IntervalSet& src : RepresentationZoo()) {
    for (const IntervalSet& dst_init : RepresentationZoo()) {
      IntervalSet dst = dst_init;  // Copy-construct.
      EXPECT_EQ(dst, dst_init);
      dst = src;  // Copy-assign across every representation pair.
      EXPECT_EQ(dst, src) << "src=" << src.ToString()
                          << " dst was " << dst_init.ToString();
      // The source must be untouched by copying from it.
      EXPECT_EQ(src.Duration(), IntervalSet(src).Duration());
    }
  }
}

TEST(IntervalSetSboTest, MoveAcrossRepresentationBoundary) {
  for (const IntervalSet& src_init : RepresentationZoo()) {
    for (const IntervalSet& dst_init : RepresentationZoo()) {
      IntervalSet src = src_init;
      IntervalSet moved(std::move(src));  // Move-construct.
      EXPECT_EQ(moved, src_init);

      IntervalSet src2 = src_init;
      IntervalSet dst = dst_init;
      dst = std::move(src2);  // Move-assign across every pair.
      EXPECT_EQ(dst, src_init) << "src=" << src_init.ToString()
                               << " dst was " << dst_init.ToString();
      // Moved-from sets must still be valid for reuse (assign, ops).
      src2 = dst_init;
      EXPECT_EQ(src2, dst_init);
    }
  }
}

TEST(IntervalSetSboTest, SelfAssignmentIsANoOp) {
  for (const IntervalSet& init : RepresentationZoo()) {
    IntervalSet set = init;
    IntervalSet& self = set;
    set = self;  // Copy self-assign (aliased through a reference).
    EXPECT_EQ(set, init);
  }
}

TEST(IntervalSetSboTest, SwapAcrossRepresentationBoundary) {
  for (const IntervalSet& a_init : RepresentationZoo()) {
    for (const IntervalSet& b_init : RepresentationZoo()) {
      IntervalSet a = a_init;
      IntervalSet b = b_init;
      a.Swap(b);
      EXPECT_EQ(a, b_init);
      EXPECT_EQ(b, a_init);
      a.Swap(a);  // Self-swap must hold too.
      EXPECT_EQ(a, b_init);
    }
  }
}

TEST_P(IntervalAlgebraPropertyTest, DestinationPassingOpsMatchAllocating) {
  Rng rng(GetParam() ^ 0x5B05B0);
  // The destination cycles through representations (including spilled ones
  // with leftover garbage capacity) to catch stale-state reuse bugs.
  std::vector<IntervalSet> dests = RepresentationZoo();
  size_t next_dest = 0;
  for (int round = 0; round < 300; ++round) {
    const IntervalSet a = RandomSet(&rng);
    const IntervalSet b = RandomSet(&rng);
    IntervalSet& dst = dests[next_dest++ % dests.size()];
    const std::string ctx = "round " + std::to_string(round) +
                            ": A=" + a.ToString() + " B=" + b.ToString();

    dst.AssignIntersectionOf(a, b);
    EXPECT_EQ(dst, a.Intersect(b)) << ctx;
    AssertCanonical(dst, ctx + " (assign-intersect)");

    dst.AssignUnionOf(a, b);
    EXPECT_EQ(dst, a.Union(b)) << ctx;
    AssertCanonical(dst, ctx + " (assign-union)");

    dst.AssignDifferenceOf(a, b);
    EXPECT_EQ(dst, a.Subtract(b)) << ctx;
    AssertCanonical(dst, ctx + " (assign-difference)");

    // IsCoveredBy is the allocation-free replacement for
    // "Subtract(other).IsEmpty()" on the iterator hot path.
    EXPECT_EQ(a.IsCoveredBy(b), a.Subtract(b).IsEmpty()) << ctx;
  }
}

TEST(IntervalNormalizationTest, ConstructorCanonicalizesAdjacency) {
  // Adjacent and overlapping inputs fuse; ordering is irrelevant.
  const IntervalSet s({Interval(4, 6), Interval(0, 2), Interval(3, 3),
                       Interval(5, 9)});
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], Interval(0, 9));
  const IntervalSet gap({Interval(0, 2), Interval(4, 5)});
  ASSERT_EQ(gap.intervals().size(), 2u);  // Gap at 3 stays a gap.
  EXPECT_EQ(gap.Duration(), 5);
}


// TimeMask agreement. Sets are drawn over the mask's whole capacity with
// endpoints biased towards the word-boundary instants, and every mask
// operation is checked against the same operation on IntervalSet.

/// An instant of [0, 128), a third of the time at a word boundary.
TimePoint RandomMaskInstant(Rng* rng) {
  constexpr TimePoint kBoundaries[] = {0, 1, 62, 63, 64, 65, 126, 127};
  if (rng->Bernoulli(0.3)) {
    return kBoundaries[rng->Uniform(std::size(kBoundaries))];
  }
  return static_cast<TimePoint>(rng->Uniform(TimeMask::kCapacity));
}

/// A set within [0, 128): empty, the full timeline, or 1-6 random
/// intervals.
IntervalSet RandomMaskableSet(Rng* rng) {
  switch (rng->Uniform(10)) {
    case 0:
      return IntervalSet();
    case 1:
      return IntervalSet::All(TimeMask::kCapacity);
    default:
      break;
  }
  std::vector<Interval> intervals;
  const int n = 1 + static_cast<int>(rng->Uniform(6));
  for (int i = 0; i < n; ++i) {
    const TimePoint a = RandomMaskInstant(rng);
    const TimePoint b = RandomMaskInstant(rng);
    intervals.push_back(Interval(std::min(a, b), std::max(a, b)));
  }
  return IntervalSet(std::move(intervals));
}

TEST_P(IntervalAlgebraPropertyTest, TimeMaskAgreesWithIntervalSet) {
  Rng rng(GetParam() ^ 0x3A5C);
  std::vector<IntervalSet> dests = RepresentationZoo();
  size_t next_dest = 0;
  for (int round = 0; round < 300; ++round) {
    const IntervalSet a = RandomMaskableSet(&rng);
    const IntervalSet b = RandomMaskableSet(&rng);
    const TimeMask ma = TimeMask::FromIntervalSet(a);
    const TimeMask mb = TimeMask::FromIntervalSet(b);
    const std::string ctx = "round " + std::to_string(round) +
                            ": A=" + a.ToString() + " B=" + b.ToString();

    // Round trip and rendering.
    EXPECT_EQ(ma.ToIntervalSet(), a) << ctx;
    AssertCanonical(ma.ToIntervalSet(), ctx + " (to-interval-set)");
    EXPECT_EQ(ma.ToString(), a.ToString()) << ctx;
    std::vector<Interval> runs;
    ma.ForEachRun([&runs](Interval iv) { runs.push_back(iv); });
    EXPECT_TRUE(std::equal(runs.begin(), runs.end(), a.intervals().begin(),
                           a.intervals().end()))
        << ctx;

    // Set algebra.
    EXPECT_EQ((ma & mb).ToIntervalSet(), a.Intersect(b)) << ctx;
    EXPECT_EQ((ma | mb).ToIntervalSet(), a.Union(b)) << ctx;
    EXPECT_EQ(ma.Subtract(mb).ToIntervalSet(), a.Subtract(b)) << ctx;
    TimeMask acc = ma;
    acc |= mb;
    EXPECT_EQ(acc, ma | mb) << ctx;
    acc &= mb;
    EXPECT_EQ(acc, mb) << ctx;  // (A ∪ B) ∩ B == B.
    EXPECT_EQ(ma == mb, a == b) << ctx;

    // Predicates and scalar queries.
    EXPECT_EQ(ma.Subsumes(mb), a.Subsumes(b)) << ctx;
    EXPECT_EQ(ma.IsCoveredBy(mb), a.IsCoveredBy(b)) << ctx;
    EXPECT_EQ(ma.Overlaps(mb), a.Overlaps(b)) << ctx;
    EXPECT_EQ(ma.IsEmpty(), a.IsEmpty()) << ctx;
    EXPECT_EQ(ma.Duration(), a.Duration()) << ctx;
    EXPECT_EQ(ma.Start(), a.Start()) << ctx;
    EXPECT_EQ(ma.End(), a.End()) << ctx;
    for (const TimePoint t : {-1, 0, 63, 64, 127, 128}) {
      EXPECT_EQ(ma.Contains(t), a.Contains(t)) << ctx << " t=" << t;
    }
    const TimePoint t = RandomMaskInstant(&rng);
    EXPECT_EQ(ma.Contains(t), a.Contains(t)) << ctx << " t=" << t;

    // The IntervalSet-side mask operations, into destinations of every
    // representation (spilled ones included) to catch stale-state reuse.
    IntervalSet& dst = dests[next_dest++ % dests.size()];
    dst.AssignIntersectionOf(a, mb);
    EXPECT_EQ(dst, a.Intersect(b)) << ctx;
    AssertCanonical(dst, ctx + " (assign-intersect-mask)");
    dst.AssignFromMask(ma);
    EXPECT_EQ(dst, a) << ctx;
    AssertCanonical(dst, ctx + " (assign-from-mask)");
  }
}

TEST(TimeMaskTest, WordBoundaryInstants) {
  for (const TimePoint t : {0, 63, 64, 127}) {
    const TimeMask p = TimeMask::Point(t);
    EXPECT_EQ(p.Duration(), 1) << t;
    EXPECT_EQ(p.Start(), t);
    EXPECT_EQ(p.End(), t);
    EXPECT_TRUE(p.Contains(t));
    EXPECT_EQ(p.ToIntervalSet(), IntervalSet::Point(t));
  }
  // A run across the word boundary is one interval.
  const TimeMask straddle = TimeMask::Range(63, 64);
  EXPECT_EQ(straddle.lo(), uint64_t{1} << 63);
  EXPECT_EQ(straddle.hi(), uint64_t{1});
  EXPECT_EQ(straddle.ToIntervalSet(), (IntervalSet{{63, 64}}));
  EXPECT_EQ(straddle.Duration(), 2);
  // Instants outside [0, 128) are never held.
  EXPECT_TRUE(TimeMask::Point(-1).IsEmpty());
  EXPECT_TRUE(TimeMask::Point(128).IsEmpty());
  EXPECT_FALSE(TimeMask::All(128).Contains(128));
  EXPECT_EQ(TimeMask::Range(-5, 500), TimeMask::All(TimeMask::kCapacity));
  EXPECT_EQ(TimeMask::FromIntervalSet(IntervalSet{{120, 300}}),
            TimeMask::Range(120, 127));
}

TEST(TimeMaskTest, EmptyAndFullTimeline) {
  const TimeMask empty;
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_EQ(empty.Duration(), 0);
  EXPECT_EQ(empty.Start(), temporal::kNoTimePoint);
  EXPECT_EQ(empty.End(), temporal::kNoTimePoint);
  EXPECT_EQ(empty.ToIntervalSet(), IntervalSet());
  EXPECT_EQ(empty.ToString(), IntervalSet().ToString());
  EXPECT_TRUE(TimeMask::Range(5, 4).IsEmpty());
  for (const TimePoint length : {1, 63, 64, 65, 100, 127, 128}) {
    const TimeMask all = TimeMask::All(length);
    EXPECT_EQ(all.ToIntervalSet(), IntervalSet::All(length)) << length;
    EXPECT_EQ(all.Duration(), length);
    EXPECT_EQ(all.Start(), 0);
    EXPECT_EQ(all.End(), length - 1);
    EXPECT_TRUE(all.Subsumes(empty));
    EXPECT_FALSE(empty.Subsumes(all));
    EXPECT_FALSE(all.Overlaps(empty));
  }
  EXPECT_TRUE(TimeMask::Fits(128));
  EXPECT_FALSE(TimeMask::Fits(129));
}

}  // namespace
}  // namespace tgks
