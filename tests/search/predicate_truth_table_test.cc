// Exhaustive truth tables for the six temporal predicates (Definition 2.1)
// and their AND / OR / NOT compositions.
//
// The timeline is kept small enough (6 instants) to enumerate EVERY
// non-empty result time as a bitmask and every sensible atom parameter, so
// each semantic rule is checked against a first-principles model rather
// than sampled:
//
//   PRECEDES t       — some instant of val(R) is < t
//   FOLLOWS t        — some instant of val(R) is > t
//   MEETS t          — t ∈ val(R) and t is val(R)'s start or end
//   OVERLAPS [a,b]   — val(R) ∩ [a,b] ≠ ∅
//   CONTAINS [a,b]   — val(R) ⊇ [a,b]
//   CONTAINED BY [a,b] — val(R) ⊆ [a,b]
//
// The same enumeration then verifies the §5 element-pruning soundness
// contract: whenever ElementMayQualify(validity) is false, NO non-empty
// result time inside `validity` satisfies the predicate.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "search/predicate.h"
#include "temporal/interval.h"
#include "temporal/interval_set.h"

namespace tgks {
namespace {

using search::PredicateExpr;
using search::PredicateOp;
using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

constexpr TimePoint kTimeline = 6;
constexpr unsigned kNumSets = 1u << kTimeline;  // 64 subsets, 63 non-empty.

IntervalSet SetFromMask(unsigned mask) {
  std::vector<Interval> points;
  for (TimePoint t = 0; t < kTimeline; ++t) {
    if (mask & (1u << t)) points.push_back(Interval::Point(t));
  }
  return IntervalSet(std::move(points));
}

/// First-principles atom semantics over a bitmask result time.
bool ModelAtom(PredicateOp op, TimePoint t1, TimePoint t2, unsigned mask) {
  const auto has = [&](TimePoint t) {
    return t >= 0 && t < kTimeline && (mask & (1u << t));
  };
  TimePoint lo = -1, hi = -1;
  for (TimePoint t = 0; t < kTimeline; ++t) {
    if (has(t)) {
      if (lo < 0) lo = t;
      hi = t;
    }
  }
  switch (op) {
    case PredicateOp::kPrecedes:
      return lo >= 0 && lo < t1;  // Some instant < t1 iff the earliest is.
    case PredicateOp::kFollows:
      return hi > t1;  // Some instant > t1 iff the latest is.
    case PredicateOp::kMeets:
      return has(t1) && (t1 == lo || t1 == hi);
    case PredicateOp::kOverlaps:
      for (TimePoint t = t1; t <= t2; ++t) {
        if (has(t)) return true;
      }
      return false;
    case PredicateOp::kContains:
      for (TimePoint t = t1; t <= t2; ++t) {
        if (!has(t)) return false;
      }
      return true;
    case PredicateOp::kContainedBy:
      for (TimePoint t = 0; t < kTimeline; ++t) {
        if (has(t) && (t < t1 || t > t2)) return false;
      }
      return true;
  }
  return false;
}

std::shared_ptr<const PredicateExpr> MakeAtom(PredicateOp op, TimePoint t1,
                                              TimePoint t2) {
  if (op == PredicateOp::kOverlaps || op == PredicateOp::kContains ||
      op == PredicateOp::kContainedBy) {
    return PredicateExpr::Atom(op, t1, t2);
  }
  return PredicateExpr::Atom(op, t1);
}

struct AtomCase {
  PredicateOp op;
  TimePoint t1;
  TimePoint t2;  // Unused for instant atoms.
};

std::vector<AtomCase> AllAtomCases() {
  std::vector<AtomCase> cases;
  for (const PredicateOp op :
       {PredicateOp::kPrecedes, PredicateOp::kFollows, PredicateOp::kMeets}) {
    for (TimePoint t = 0; t < kTimeline; ++t) cases.push_back({op, t, t});
  }
  for (const PredicateOp op :
       {PredicateOp::kOverlaps, PredicateOp::kContains,
        PredicateOp::kContainedBy}) {
    for (TimePoint a = 0; a < kTimeline; ++a) {
      for (TimePoint b = a; b < kTimeline; ++b) cases.push_back({op, a, b});
    }
  }
  return cases;
}

TEST(PredicateTruthTableTest, AtomsMatchModelOnEveryResultTime) {
  for (const AtomCase& c : AllAtomCases()) {
    const auto expr = MakeAtom(c.op, c.t1, c.t2);
    for (unsigned mask = 1; mask < kNumSets; ++mask) {  // Non-empty only.
      const IntervalSet time = SetFromMask(mask);
      EXPECT_EQ(expr->EvalResultTime(time), ModelAtom(c.op, c.t1, c.t2, mask))
          << expr->ToString() << " on " << time.ToString();
    }
  }
}

TEST(PredicateTruthTableTest, NotNegatesEveryAtomEverywhere) {
  for (const AtomCase& c : AllAtomCases()) {
    const auto atom = MakeAtom(c.op, c.t1, c.t2);
    const auto negated = PredicateExpr::Not(atom);
    for (unsigned mask = 1; mask < kNumSets; ++mask) {
      const IntervalSet time = SetFromMask(mask);
      EXPECT_EQ(negated->EvalResultTime(time), !atom->EvalResultTime(time))
          << negated->ToString() << " on " << time.ToString();
    }
  }
}

TEST(PredicateTruthTableTest, AndOrComposeTruthFunctionally) {
  // Every pair drawn from a representative atom set, all 63 result times.
  const std::vector<std::shared_ptr<const PredicateExpr>> atoms = {
      PredicateExpr::Atom(PredicateOp::kPrecedes, 3),
      PredicateExpr::Atom(PredicateOp::kFollows, 2),
      PredicateExpr::Atom(PredicateOp::kMeets, 1),
      PredicateExpr::Atom(PredicateOp::kOverlaps, 1, 4),
      PredicateExpr::Atom(PredicateOp::kContains, 2, 3),
      PredicateExpr::Atom(PredicateOp::kContainedBy, 0, 4),
  };
  for (const auto& a : atoms) {
    for (const auto& b : atoms) {
      const auto conj = PredicateExpr::And({a, b});
      const auto disj = PredicateExpr::Or({a, b});
      const auto nested =
          PredicateExpr::Or({PredicateExpr::And({a, PredicateExpr::Not(b)}),
                             PredicateExpr::And({PredicateExpr::Not(a), b})});
      for (unsigned mask = 1; mask < kNumSets; ++mask) {
        const IntervalSet time = SetFromMask(mask);
        const bool va = a->EvalResultTime(time);
        const bool vb = b->EvalResultTime(time);
        EXPECT_EQ(conj->EvalResultTime(time), va && vb)
            << conj->ToString() << " on " << time.ToString();
        EXPECT_EQ(disj->EvalResultTime(time), va || vb)
            << disj->ToString() << " on " << time.ToString();
        // XOR through AND/OR/NOT exercises three-deep nesting.
        EXPECT_EQ(nested->EvalResultTime(time), va != vb)
            << nested->ToString() << " on " << time.ToString();
      }
    }
  }
}

TEST(PredicateTruthTableTest, ElementPruningIsSoundForEveryAtom) {
  // §5 soundness: ElementMayQualify(v) == false must imply that NO
  // non-empty result time contained in v satisfies the predicate — a
  // result routed through the element has val(R) ⊆ val(element).
  for (const AtomCase& c : AllAtomCases()) {
    const auto expr = MakeAtom(c.op, c.t1, c.t2);
    for (unsigned vmask = 1; vmask < kNumSets; ++vmask) {
      const IntervalSet validity = SetFromMask(vmask);
      if (expr->ElementMayQualify(validity)) continue;
      for (unsigned rmask = 1; rmask < kNumSets; ++rmask) {
        if ((rmask & ~vmask) != 0) continue;  // val(R) ⊆ validity only.
        EXPECT_FALSE(expr->EvalResultTime(SetFromMask(rmask)))
            << expr->ToString() << ": pruned validity "
            << validity.ToString() << " admits result time "
            << SetFromMask(rmask).ToString();
      }
    }
  }
}

TEST(PredicateTruthTableTest, ElementPruningIsSoundForCompositions) {
  const std::vector<std::shared_ptr<const PredicateExpr>> exprs = {
      PredicateExpr::And({PredicateExpr::Atom(PredicateOp::kContains, 1, 2),
                          PredicateExpr::Atom(PredicateOp::kFollows, 3)}),
      PredicateExpr::Or({PredicateExpr::Atom(PredicateOp::kOverlaps, 0, 1),
                         PredicateExpr::Atom(PredicateOp::kOverlaps, 4, 5)}),
      PredicateExpr::Not(PredicateExpr::Atom(PredicateOp::kMeets, 2)),
      PredicateExpr::And(
          {PredicateExpr::Atom(PredicateOp::kPrecedes, 4),
           PredicateExpr::Or(
               {PredicateExpr::Atom(PredicateOp::kContains, 0, 0),
                PredicateExpr::Not(
                    PredicateExpr::Atom(PredicateOp::kFollows, 1))})}),
  };
  for (const auto& expr : exprs) {
    for (unsigned vmask = 1; vmask < kNumSets; ++vmask) {
      const IntervalSet validity = SetFromMask(vmask);
      if (expr->ElementMayQualify(validity)) continue;
      for (unsigned rmask = 1; rmask < kNumSets; ++rmask) {
        if ((rmask & ~vmask) != 0) continue;
        EXPECT_FALSE(expr->EvalResultTime(SetFromMask(rmask)))
            << expr->ToString() << ": pruned validity " << validity.ToString()
            << " admits " << SetFromMask(rmask).ToString();
      }
    }
  }
}

TEST(PredicateTruthTableTest, PruningIsExactImpliesAcceptance) {
  // Dual contract: when PruningIsExact(), every result whose elements all
  // passed the prune satisfies the predicate. For a pure CONTAINS
  // conjunction, val(R) ⊆ validity is not enough — val(R) must itself pass;
  // exactness means EvalResultTime(validity-passing val(R)) is implied by
  // every element passing. Since val(R) is the intersection of element
  // validities, it suffices to check: validity passes ⇒ every subset that
  // still contains the window passes. Here: the prune keeps only elements
  // whose validity contains [a,b]; an intersection of such sets still
  // contains [a,b].
  const auto contains = PredicateExpr::Atom(PredicateOp::kContains, 2, 4);
  ASSERT_TRUE(contains->PruningIsExact());
  const auto conj = PredicateExpr::And(
      {PredicateExpr::Atom(PredicateOp::kContains, 1, 2),
       PredicateExpr::Atom(PredicateOp::kContains, 4, 4)});
  ASSERT_TRUE(conj->PruningIsExact());
  for (unsigned a = 1; a < kNumSets; ++a) {
    for (unsigned b = 1; b < kNumSets; ++b) {
      const unsigned inter = a & b;
      if (inter == 0) continue;
      for (const auto& expr : {contains, conj}) {
        if (expr->ElementMayQualify(SetFromMask(a)) &&
            expr->ElementMayQualify(SetFromMask(b))) {
          EXPECT_TRUE(expr->EvalResultTime(SetFromMask(inter)))
              << expr->ToString() << " with elements " << SetFromMask(a)
              << " and " << SetFromMask(b);
        }
      }
    }
  }
  // And the factories that are NOT exact say so.
  EXPECT_FALSE(PredicateExpr::Atom(PredicateOp::kPrecedes, 3)->PruningIsExact());
  EXPECT_FALSE(
      PredicateExpr::Not(contains)->PruningIsExact());
}

}  // namespace
}  // namespace tgks
