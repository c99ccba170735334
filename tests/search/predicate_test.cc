#include "search/predicate.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace tgks::search {
namespace {

using temporal::IntervalSet;

TEST(PredicateTest, PrecedesRequiresInstantStrictlyBefore) {
  const auto p = PredicateExpr::Atom(PredicateOp::kPrecedes, 5);
  EXPECT_TRUE(p->EvalResultTime(IntervalSet{{0, 3}}));
  EXPECT_TRUE(p->EvalResultTime(IntervalSet{{4, 9}}));  // Starts before 5.
  EXPECT_FALSE(p->EvalResultTime(IntervalSet{{5, 9}}));
  EXPECT_FALSE(p->EvalResultTime(IntervalSet{{6, 9}}));
}

TEST(PredicateTest, FollowsRequiresInstantStrictlyAfter) {
  const auto p = PredicateExpr::Atom(PredicateOp::kFollows, 5);
  EXPECT_TRUE(p->EvalResultTime(IntervalSet{{6, 9}}));
  EXPECT_TRUE(p->EvalResultTime(IntervalSet{{0, 6}}));
  EXPECT_FALSE(p->EvalResultTime(IntervalSet{{0, 5}}));
}

TEST(PredicateTest, MeetsRequiresBoundaryInstant) {
  const auto p = PredicateExpr::Atom(PredicateOp::kMeets, 5);
  EXPECT_TRUE(p->EvalResultTime(IntervalSet{{5, 9}}));   // Starts at 5.
  EXPECT_TRUE(p->EvalResultTime(IntervalSet{{0, 5}}));   // Ends at 5.
  EXPECT_TRUE(p->EvalResultTime(IntervalSet{{5, 5}}));   // Both.
  EXPECT_FALSE(p->EvalResultTime(IntervalSet{{0, 9}}));  // Interior.
  EXPECT_FALSE(p->EvalResultTime(IntervalSet{{6, 9}}));  // Not valid at 5.
  // Gappy set: 5 is the start of a sub-interval but not of the result time.
  EXPECT_FALSE(p->EvalResultTime(IntervalSet{{0, 2}, {5, 9}}));
}

TEST(PredicateTest, PaperExample51MeetsHoldsOnResultNotElements) {
  // val(n) = {1,3,5,7}, val(n') = {2,4,5,7}, result time = {5,7}: the result
  // meets 5 although neither element does.
  const IntervalSet val_n{{1, 1}, {3, 3}, {5, 5}, {7, 7}};
  const IntervalSet val_n2{{2, 2}, {4, 4}, {5, 5}, {7, 7}};
  const IntervalSet result{{5, 5}, {7, 7}};
  const auto meets5 = PredicateExpr::Atom(PredicateOp::kMeets, 5);
  EXPECT_TRUE(meets5->EvalResultTime(result));
  EXPECT_FALSE(meets5->EvalResultTime(val_n));
  EXPECT_FALSE(meets5->EvalResultTime(val_n2));
  // The element-level test is only a necessary condition: both elements
  // contain instant 5, so both may participate.
  EXPECT_TRUE(meets5->ElementMayQualify(val_n));
  EXPECT_TRUE(meets5->ElementMayQualify(val_n2));
}

TEST(PredicateTest, OverlapsAndContainsAndContainedBy) {
  const auto overlaps = PredicateExpr::Atom(PredicateOp::kOverlaps, 3, 6);
  EXPECT_TRUE(overlaps->EvalResultTime(IntervalSet{{6, 9}}));
  EXPECT_FALSE(overlaps->EvalResultTime(IntervalSet{{7, 9}}));

  const auto contains = PredicateExpr::Atom(PredicateOp::kContains, 3, 6);
  EXPECT_TRUE(contains->EvalResultTime(IntervalSet{{0, 9}}));
  EXPECT_TRUE(contains->EvalResultTime(IntervalSet{{3, 6}}));
  EXPECT_FALSE(contains->EvalResultTime(IntervalSet{{3, 5}}));
  EXPECT_FALSE(contains->EvalResultTime(IntervalSet{{0, 4}, {6, 9}}));

  const auto within = PredicateExpr::Atom(PredicateOp::kContainedBy, 3, 6);
  EXPECT_TRUE(within->EvalResultTime(IntervalSet{{3, 6}}));
  EXPECT_TRUE(within->EvalResultTime(IntervalSet{{4, 4}, {6, 6}}));
  EXPECT_FALSE(within->EvalResultTime(IntervalSet{{2, 6}}));
}

TEST(PredicateTest, CombinatorsEvaluate) {
  const auto p = PredicateExpr::And(
      {PredicateExpr::Atom(PredicateOp::kPrecedes, 5),
       PredicateExpr::Not(PredicateExpr::Atom(PredicateOp::kFollows, 5))});
  // Fig. 3 row 1: entirely before 5.
  EXPECT_TRUE(p->EvalResultTime(IntervalSet{{0, 4}}));
  EXPECT_FALSE(p->EvalResultTime(IntervalSet{{0, 6}}));
  EXPECT_FALSE(p->EvalResultTime(IntervalSet{{5, 6}}));

  const auto q = PredicateExpr::Or(
      {PredicateExpr::Atom(PredicateOp::kContains, 0, 1),
       PredicateExpr::Atom(PredicateOp::kContains, 8, 9)});
  EXPECT_TRUE(q->EvalResultTime(IntervalSet{{0, 1}}));
  EXPECT_TRUE(q->EvalResultTime(IntervalSet{{7, 9}}));
  EXPECT_FALSE(q->EvalResultTime(IntervalSet{{3, 5}}));
}

TEST(PredicateTest, ElementPruningNecessaryConditions) {
  const auto precedes = PredicateExpr::Atom(PredicateOp::kPrecedes, 5);
  EXPECT_TRUE(precedes->ElementMayQualify(IntervalSet{{0, 9}}));
  EXPECT_FALSE(precedes->ElementMayQualify(IntervalSet{{5, 9}}));

  const auto follows = PredicateExpr::Atom(PredicateOp::kFollows, 5);
  EXPECT_TRUE(follows->ElementMayQualify(IntervalSet{{0, 6}}));
  EXPECT_FALSE(follows->ElementMayQualify(IntervalSet{{0, 5}}));

  const auto meets = PredicateExpr::Atom(PredicateOp::kMeets, 5);
  EXPECT_TRUE(meets->ElementMayQualify(IntervalSet{{0, 9}}));
  EXPECT_FALSE(meets->ElementMayQualify(IntervalSet{{6, 9}}));

  const auto overlaps = PredicateExpr::Atom(PredicateOp::kOverlaps, 3, 6);
  EXPECT_TRUE(overlaps->ElementMayQualify(IntervalSet{{6, 9}}));
  EXPECT_FALSE(overlaps->ElementMayQualify(IntervalSet{{7, 9}}));

  const auto contains = PredicateExpr::Atom(PredicateOp::kContains, 3, 6);
  EXPECT_TRUE(contains->ElementMayQualify(IntervalSet{{0, 9}}));
  EXPECT_FALSE(contains->ElementMayQualify(IntervalSet{{3, 5}}));
}

TEST(PredicateTest, ContainedByPrunesOnlyWithExtension) {
  const auto within = PredicateExpr::Atom(PredicateOp::kContainedBy, 3, 6);
  // §5: no pruning at all, even for an element disjoint from the window.
  EXPECT_TRUE(within->ElementMayQualify(IntervalSet{{8, 9}}));
}

TEST(PredicateTest, NotIsConservativeForPruning) {
  const auto p =
      PredicateExpr::Not(PredicateExpr::Atom(PredicateOp::kPrecedes, 5));
  EXPECT_TRUE(p->ElementMayQualify(IntervalSet{{0, 0}}));
  EXPECT_TRUE(p->ElementMayQualify(IntervalSet{{9, 9}}));
}

TEST(PredicateTest, OrPruningRequiresSomeBranch) {
  const auto p =
      PredicateExpr::Or({PredicateExpr::Atom(PredicateOp::kContains, 0, 1),
                         PredicateExpr::Atom(PredicateOp::kContains, 8, 9)});
  EXPECT_TRUE(p->ElementMayQualify(IntervalSet{{0, 3}}));
  EXPECT_TRUE(p->ElementMayQualify(IntervalSet{{7, 9}}));
  EXPECT_FALSE(p->ElementMayQualify(IntervalSet{{3, 5}}));
}

TEST(PredicateTest, PruningIsExactOnlyForContainsConjunctions) {
  EXPECT_TRUE(PredicateExpr::Atom(PredicateOp::kContains, 1, 2)->PruningIsExact());
  EXPECT_TRUE(PredicateExpr::And({PredicateExpr::Atom(PredicateOp::kContains, 1, 2),
                                  PredicateExpr::Atom(PredicateOp::kContains, 4, 5)})
                  ->PruningIsExact());
  EXPECT_FALSE(PredicateExpr::Atom(PredicateOp::kPrecedes, 5)->PruningIsExact());
  EXPECT_FALSE(PredicateExpr::Atom(PredicateOp::kMeets, 5)->PruningIsExact());
  EXPECT_FALSE(
      PredicateExpr::Or({PredicateExpr::Atom(PredicateOp::kContains, 1, 2)})
          ->PruningIsExact());
  EXPECT_FALSE(
      PredicateExpr::Not(PredicateExpr::Atom(PredicateOp::kContains, 1, 2))
          ->PruningIsExact());
}

TEST(SnapshotFilterTest, AtomsClipCorrectly) {
  constexpr temporal::TimePoint kHorizon = 10;
  EXPECT_EQ(PredicateExpr::Atom(PredicateOp::kPrecedes, 4)
                ->SnapshotTraversalFilter(kHorizon),
            (IntervalSet{{0, 3}}));
  EXPECT_EQ(PredicateExpr::Atom(PredicateOp::kFollows, 4)
                ->SnapshotTraversalFilter(kHorizon),
            (IntervalSet{{5, 9}}));
  EXPECT_EQ(PredicateExpr::Atom(PredicateOp::kOverlaps, 2, 5)
                ->SnapshotTraversalFilter(kHorizon),
            (IntervalSet{{2, 5}}));
  EXPECT_EQ(PredicateExpr::Atom(PredicateOp::kContains, 2, 5)
                ->SnapshotTraversalFilter(kHorizon),
            (IntervalSet{{2, 5}}));
  // No per-instant necessary condition: traverse everything.
  EXPECT_EQ(PredicateExpr::Atom(PredicateOp::kMeets, 4)
                ->SnapshotTraversalFilter(kHorizon),
            IntervalSet::All(kHorizon));
  EXPECT_EQ(PredicateExpr::Atom(PredicateOp::kContainedBy, 2, 5)
                ->SnapshotTraversalFilter(kHorizon),
            IntervalSet::All(kHorizon));
}

TEST(SnapshotFilterTest, BoundaryClipsToEmpty) {
  constexpr temporal::TimePoint kHorizon = 10;
  EXPECT_TRUE(PredicateExpr::Atom(PredicateOp::kPrecedes, 0)
                  ->SnapshotTraversalFilter(kHorizon)
                  .IsEmpty());
  EXPECT_TRUE(PredicateExpr::Atom(PredicateOp::kFollows, 9)
                  ->SnapshotTraversalFilter(kHorizon)
                  .IsEmpty());
}

TEST(SnapshotFilterTest, AndPicksCheapestConjunct) {
  constexpr temporal::TimePoint kHorizon = 10;
  // A qualifying result satisfies every conjunct, so the cheapest
  // conjunct's filter alone is sound.
  const auto p = PredicateExpr::And(
      {PredicateExpr::Atom(PredicateOp::kPrecedes, 8),    // [0,7]: 8 instants.
       PredicateExpr::Atom(PredicateOp::kContains, 3, 4)});  // [3,4]: 2.
  EXPECT_EQ(p->SnapshotTraversalFilter(kHorizon), (IntervalSet{{3, 4}}));
}

TEST(SnapshotFilterTest, OrUnionsAndNotIsConservative) {
  constexpr temporal::TimePoint kHorizon = 10;
  const auto p =
      PredicateExpr::Or({PredicateExpr::Atom(PredicateOp::kPrecedes, 2),
                         PredicateExpr::Atom(PredicateOp::kFollows, 7)});
  EXPECT_EQ(p->SnapshotTraversalFilter(kHorizon),
            (IntervalSet{{0, 1}, {8, 9}}));
  EXPECT_EQ(PredicateExpr::Not(PredicateExpr::Atom(PredicateOp::kPrecedes, 2))
                ->SnapshotTraversalFilter(kHorizon),
            IntervalSet::All(kHorizon));
}

TEST(SnapshotFilterTest, SoundnessOnRandomResults) {
  // Any result time satisfying the predicate must intersect the filter.
  constexpr temporal::TimePoint kHorizon = 12;
  Rng rng(99);
  std::vector<std::shared_ptr<const PredicateExpr>> predicates = {
      PredicateExpr::Atom(PredicateOp::kPrecedes, 5),
      PredicateExpr::Atom(PredicateOp::kMeets, 6),
      PredicateExpr::Atom(PredicateOp::kContains, 3, 5),
      PredicateExpr::Atom(PredicateOp::kContainedBy, 2, 9),
      PredicateExpr::And({PredicateExpr::Atom(PredicateOp::kFollows, 2),
                          PredicateExpr::Atom(PredicateOp::kOverlaps, 4, 6)}),
      PredicateExpr::Or({PredicateExpr::Atom(PredicateOp::kContains, 1, 2),
                         PredicateExpr::Atom(PredicateOp::kContains, 8, 9)}),
      PredicateExpr::Not(PredicateExpr::Atom(PredicateOp::kFollows, 6)),
  };
  for (const auto& p : predicates) {
    const IntervalSet filter = p->SnapshotTraversalFilter(kHorizon);
    for (int iter = 0; iter < 300; ++iter) {
      const temporal::TimePoint a =
          static_cast<temporal::TimePoint>(rng.Uniform(kHorizon));
      const temporal::TimePoint b =
          static_cast<temporal::TimePoint>(rng.Uniform(kHorizon));
      const IntervalSet result{{std::min(a, b), std::max(a, b)}};
      if (p->EvalResultTime(result)) {
        EXPECT_TRUE(result.Overlaps(filter)) << p->ToString() << " vs "
                                             << result.ToString();
      }
    }
  }
}

TEST(PredicateTest, ToStringRendersSyntax) {
  const auto p = PredicateExpr::And(
      {PredicateExpr::Atom(PredicateOp::kPrecedes, 5),
       PredicateExpr::Not(PredicateExpr::Atom(PredicateOp::kOverlaps, 2, 4))});
  EXPECT_EQ(p->ToString(),
            "(result time precedes 5 and not result time overlaps [2,4])");
  EXPECT_EQ(PredicateExpr::Atom(PredicateOp::kContainedBy, 1, 3)->ToString(),
            "result time contained by [1,3]");
}

}  // namespace
}  // namespace tgks::search
