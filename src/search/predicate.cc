#include "search/predicate.h"

#include <cassert>
#include <sstream>

namespace tgks::search {

using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimeMask;
using temporal::TimePoint;

std::string_view PredicateOpName(PredicateOp op) {
  switch (op) {
    case PredicateOp::kPrecedes:
      return "precedes";
    case PredicateOp::kFollows:
      return "follows";
    case PredicateOp::kMeets:
      return "meets";
    case PredicateOp::kOverlaps:
      return "overlaps";
    case PredicateOp::kContains:
      return "contains";
    case PredicateOp::kContainedBy:
      return "contained by";
  }
  return "unknown";
}

std::shared_ptr<const PredicateExpr> PredicateExpr::Atom(PredicateOp op,
                                                         TimePoint t) {
  assert(op == PredicateOp::kPrecedes || op == PredicateOp::kFollows ||
         op == PredicateOp::kMeets);
  auto expr = std::shared_ptr<PredicateExpr>(new PredicateExpr());
  expr->kind_ = Kind::kAtom;
  expr->op_ = op;
  expr->t1_ = t;
  expr->t2_ = t;
  return expr;
}

std::shared_ptr<const PredicateExpr> PredicateExpr::Atom(PredicateOp op,
                                                         TimePoint t1,
                                                         TimePoint t2) {
  assert(op == PredicateOp::kOverlaps || op == PredicateOp::kContains ||
         op == PredicateOp::kContainedBy);
  assert(t1 <= t2);
  auto expr = std::shared_ptr<PredicateExpr>(new PredicateExpr());
  expr->kind_ = Kind::kAtom;
  expr->op_ = op;
  expr->t1_ = t1;
  expr->t2_ = t2;
  return expr;
}

std::shared_ptr<const PredicateExpr> PredicateExpr::And(
    std::vector<std::shared_ptr<const PredicateExpr>> children) {
  assert(!children.empty());
  auto expr = std::shared_ptr<PredicateExpr>(new PredicateExpr());
  expr->kind_ = Kind::kAnd;
  expr->children_ = std::move(children);
  return expr;
}

std::shared_ptr<const PredicateExpr> PredicateExpr::Or(
    std::vector<std::shared_ptr<const PredicateExpr>> children) {
  assert(!children.empty());
  auto expr = std::shared_ptr<PredicateExpr>(new PredicateExpr());
  expr->kind_ = Kind::kOr;
  expr->children_ = std::move(children);
  return expr;
}

std::shared_ptr<const PredicateExpr> PredicateExpr::Not(
    std::shared_ptr<const PredicateExpr> child) {
  assert(child != nullptr);
  auto expr = std::shared_ptr<PredicateExpr>(new PredicateExpr());
  expr->kind_ = Kind::kNot;
  expr->children_.push_back(std::move(child));
  return expr;
}

bool PredicateExpr::EvalResultTime(const IntervalSet& result_time) const {
  switch (kind_) {
    case Kind::kAtom:
      switch (op_) {
        case PredicateOp::kPrecedes:
          return !result_time.IsEmpty() && result_time.Start() < t1_;
        case PredicateOp::kFollows:
          return !result_time.IsEmpty() && result_time.End() > t1_;
        case PredicateOp::kMeets:
          // Valid at t, and t is the first or the last valid instant
          // ("invalid in any time instant before tx, or ... after tx").
          return result_time.Contains(t1_) &&
                 (result_time.Start() == t1_ || result_time.End() == t1_);
        case PredicateOp::kOverlaps:
          return result_time.Overlaps(IntervalSet(Interval(t1_, t2_)));
        case PredicateOp::kContains:
          return result_time.Subsumes(IntervalSet(Interval(t1_, t2_)));
        case PredicateOp::kContainedBy:
          return IntervalSet(Interval(t1_, t2_)).Subsumes(result_time);
      }
      return false;
    case Kind::kAnd:
      for (const auto& child : children_) {
        if (!child->EvalResultTime(result_time)) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& child : children_) {
        if (child->EvalResultTime(result_time)) return true;
      }
      return false;
    case Kind::kNot:
      return !children_[0]->EvalResultTime(result_time);
  }
  return false;
}

namespace {

// Window tests of the element pruning rules, per time representation.
bool OverlapsWindow(const IntervalSet& validity, Interval window) {
  return validity.Overlaps(IntervalSet(window));
}
bool OverlapsWindow(const TimeMask& validity, Interval window) {
  return validity.Overlaps(TimeMask::Of(window));
}
bool CoversWindow(const IntervalSet& validity, Interval window) {
  return validity.Subsumes(IntervalSet(window));
}
bool CoversWindow(const TimeMask& validity, Interval window) {
  if (window.IsEmpty()) return true;
  // A mask holds no instant outside [0, kCapacity).
  if (window.start < 0 || window.end >= TimeMask::kCapacity) return false;
  return validity.Subsumes(TimeMask::Of(window));
}

}  // namespace

bool PredicateExpr::ElementMayQualify(const IntervalSet& validity,
                                      bool containedby_prune) const {
  return MayQualify(validity, containedby_prune);
}

bool PredicateExpr::ElementMayQualify(const TimeMask& validity,
                                      bool containedby_prune) const {
  return MayQualify(validity, containedby_prune);
}

template <typename Set>
bool PredicateExpr::MayQualify(const Set& validity,
                               bool containedby_prune) const {
  switch (kind_) {
    case Kind::kAtom:
      switch (op_) {
        case PredicateOp::kPrecedes:
          // Result time ⊆ element validity, so the result can only have an
          // instant < t if the element does.
          return !validity.IsEmpty() && validity.Start() < t1_;
        case PredicateOp::kFollows:
          return !validity.IsEmpty() && validity.End() > t1_;
        case PredicateOp::kMeets:
          // Necessary condition only: every element must be valid at t
          // (Example 5.1 shows it is not sufficient).
          return validity.Contains(t1_);
        case PredicateOp::kOverlaps:
          return OverlapsWindow(validity, Interval(t1_, t2_));
        case PredicateOp::kContains:
          return CoversWindow(validity, Interval(t1_, t2_));
        case PredicateOp::kContainedBy:
          // §5: "we are not able to prune nodes and edges during backward
          // expansion using this predicate" — unless the extension is on.
          if (containedby_prune) {
            return OverlapsWindow(validity, Interval(t1_, t2_));
          }
          return true;
      }
      return true;
    case Kind::kAnd:
      // A result satisfying the conjunction satisfies every child, so every
      // child's necessary condition applies.
      for (const auto& child : children_) {
        if (!child->MayQualify(validity, containedby_prune)) {
          return false;
        }
      }
      return true;
    case Kind::kOr:
      // A result satisfies some child; the element must pass at least one
      // child's necessary condition.
      for (const auto& child : children_) {
        if (child->MayQualify(validity, containedby_prune)) return true;
      }
      return false;
    case Kind::kNot:
      // Conservative: no pruning through negation.
      return true;
  }
  return true;
}

bool PredicateExpr::PruningIsExact() const {
  switch (kind_) {
    case Kind::kAtom:
      // If every element of a tree contains [t1,t2], the tree's time (the
      // intersection of element validities) also contains it.
      return op_ == PredicateOp::kContains;
    case Kind::kAnd:
      for (const auto& child : children_) {
        if (!child->PruningIsExact()) return false;
      }
      return true;
    case Kind::kOr:
    case Kind::kNot:
      return false;
  }
  return false;
}

temporal::IntervalSet PredicateExpr::SnapshotTraversalFilter(
    TimePoint timeline_length) const {
  const IntervalSet all = IntervalSet::All(timeline_length);
  switch (kind_) {
    case Kind::kAtom:
      switch (op_) {
        case PredicateOp::kPrecedes:
          // A qualifying result's start instant is < t1 and in the result.
          return all.Intersect(Interval(0, t1_ - 1));
        case PredicateOp::kFollows:
          return all.Intersect(Interval(t1_ + 1, timeline_length - 1));
        case PredicateOp::kOverlaps:
          // The overlapping instant itself lies in the window.
          return all.Intersect(Interval(t1_, t2_));
        case PredicateOp::kContains:
          // The result covers the whole window; any window instant finds it.
          return all.Intersect(Interval(t1_, t2_));
        case PredicateOp::kMeets:
        case PredicateOp::kContainedBy:
          // Faithful to §6.2.2: BANKS(I) traverses every snapshot and
          // checks these on the merged result.
          return all;
      }
      return all;
    case Kind::kAnd: {
      // A result satisfies every conjunct, so any single conjunct's filter
      // already covers it; pick the cheapest.
      IntervalSet best = all;
      for (const auto& child : children_) {
        IntervalSet f = child->SnapshotTraversalFilter(timeline_length);
        if (f.Duration() < best.Duration()) best = std::move(f);
      }
      return best;
    }
    case Kind::kOr: {
      IntervalSet acc;
      for (const auto& child : children_) {
        acc = acc.Union(child->SnapshotTraversalFilter(timeline_length));
      }
      return acc;
    }
    case Kind::kNot:
      return all;  // Conservative.
  }
  return all;
}

std::string PredicateExpr::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kAtom:
      os << "result time " << PredicateOpName(op_) << ' ';
      if (op_ == PredicateOp::kOverlaps || op_ == PredicateOp::kContains ||
          op_ == PredicateOp::kContainedBy) {
        os << '[' << t1_ << ',' << t2_ << ']';
      } else {
        os << t1_;
      }
      break;
    case Kind::kAnd:
    case Kind::kOr: {
      const char* joiner = kind_ == Kind::kAnd ? " and " : " or ";
      os << '(';
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) os << joiner;
        os << children_[i]->ToString();
      }
      os << ')';
      break;
    }
    case Kind::kNot:
      os << "not " << children_[0]->ToString();
      break;
  }
  return os.str();
}

}  // namespace tgks::search
