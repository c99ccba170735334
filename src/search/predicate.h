// Temporal predicates over result time (paper §2.3 and §5).
//
// A predicate constrains val(R), the set of instants in which a result
// exists. Atoms follow TSQL2:
//
//   RESULT TIME PRECEDES t      — some instant of val(R) is < t
//   RESULT TIME FOLLOWS t       — some instant of val(R) is > t
//   RESULT TIME MEETS t         — t ∈ val(R) and t is val(R)'s start or end
//   RESULT TIME OVERLAPS [a,b]  — val(R) ∩ [a,b] ≠ ∅
//   RESULT TIME CONTAINS [a,b]  — val(R) ⊇ [a,b]
//   RESULT TIME CONTAINED BY [a,b] — val(R) ⊆ [a,b]
//
// combinable with AND / OR / NOT. Besides evaluation on a final result time,
// each expression exposes a conservative *element-level* test used to prune
// nodes and edges during backward expansion (§5): if an element's validity
// fails the test, no result through that element can satisfy the predicate.
// Faithful to the paper, CONTAINED BY admits no element pruning (its
// element test is always true); see SearchOptions::containedby_prune for the
// documented extension.

#ifndef TGKS_SEARCH_PREDICATE_H_
#define TGKS_SEARCH_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "temporal/interval_set.h"
#include "temporal/time_mask.h"
#include "temporal/time_point.h"

namespace tgks::search {

/// The atomic predicate operators of Definition 2.1.
enum class PredicateOp {
  kPrecedes,
  kFollows,
  kMeets,
  kOverlaps,
  kContains,
  kContainedBy,
};

/// Stable lowercase operator name ("precedes", "contained by", ...).
std::string_view PredicateOpName(PredicateOp op);

/// An immutable predicate expression tree. Build with the static factories;
/// share via shared_ptr (sub-expressions are shared, never copied deeply).
class PredicateExpr {
 public:
  /// Atom over a single instant (kPrecedes / kFollows / kMeets).
  static std::shared_ptr<const PredicateExpr> Atom(PredicateOp op,
                                                   temporal::TimePoint t);

  /// Atom over an interval (kOverlaps / kContains / kContainedBy).
  static std::shared_ptr<const PredicateExpr> Atom(PredicateOp op,
                                                   temporal::TimePoint t1,
                                                   temporal::TimePoint t2);

  static std::shared_ptr<const PredicateExpr> And(
      std::vector<std::shared_ptr<const PredicateExpr>> children);
  static std::shared_ptr<const PredicateExpr> Or(
      std::vector<std::shared_ptr<const PredicateExpr>> children);
  static std::shared_ptr<const PredicateExpr> Not(
      std::shared_ptr<const PredicateExpr> child);

  /// True iff a result whose time is `result_time` satisfies the predicate.
  /// `result_time` must be non-empty (Definition 2.2 requires it).
  bool EvalResultTime(const temporal::IntervalSet& result_time) const;

  /// Conservative element-level pruning test: false means no result routed
  /// through an element with validity `validity` can satisfy the predicate;
  /// true means "maybe". NOT subtrees and CONTAINED BY atoms are
  /// conservative (always "maybe").
  ///
  /// `containedby_prune` enables the documented extension: a CONTAINED BY
  /// [a,b] atom then requires the element to overlap [a,b] — sound because a
  /// non-empty result time inside [a,b] needs every element valid somewhere
  /// in [a,b] — but off by default for fidelity to §5.
  bool ElementMayQualify(const temporal::IntervalSet& validity,
                         bool containedby_prune = false) const;
  /// The same test on a mask validity (narrow-timeline expansion); equal
  /// to the IntervalSet form on `validity.ToIntervalSet()`.
  bool ElementMayQualify(const temporal::TimeMask& validity,
                         bool containedby_prune = false) const;

  /// True iff generated results are guaranteed to satisfy the predicate
  /// whenever every element passed ElementMayQualify (e.g., a pure
  /// conjunction of CONTAINS atoms); used to skip the final check.
  bool PruningIsExact() const;

  /// Instants whose snapshots a per-snapshot search (BANKS(I)) must
  /// traverse: every result satisfying this predicate is valid at >= 1
  /// instant of the returned set. PRECEDES/FOLLOWS clip the range,
  /// OVERLAPS/CONTAINS keep only their window, MEETS and CONTAINED BY
  /// return the whole timeline (no per-instant necessary condition — the
  /// paper's slow BANKS(I) cases), AND picks its cheapest conjunct, OR
  /// unions, NOT is conservative.
  temporal::IntervalSet SnapshotTraversalFilter(
      temporal::TimePoint timeline_length) const;

  /// Textual form in the query syntax, e.g.
  /// "result time precedes 5 and not result time follows 9".
  std::string ToString() const;

 private:
  enum class Kind { kAtom, kAnd, kOr, kNot };

  PredicateExpr() = default;

  /// ElementMayQualify over either time representation.
  template <typename Set>
  bool MayQualify(const Set& validity, bool containedby_prune) const;

  Kind kind_ = Kind::kAtom;
  // Atom payload.
  PredicateOp op_ = PredicateOp::kPrecedes;
  temporal::TimePoint t1_ = 0;
  temporal::TimePoint t2_ = 0;
  // Combinator payload.
  std::vector<std::shared_ptr<const PredicateExpr>> children_;
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_PREDICATE_H_
