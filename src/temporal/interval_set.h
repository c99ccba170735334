// IntervalSet: a normalized set of time instants, stored as sorted, disjoint,
// non-adjacent closed intervals.
//
// This is the algebra all of tgks runs on. Node/edge validity (val(n),
// val(e)), the T component of NTD triplets, result time val(T), and predicate
// arguments are all IntervalSets. Operations are linear in the number of
// stored intervals, which the paper's datasets keep tiny (append-only DBLP
// has exactly one interval per element).
//
// Storage is a small-buffer optimization: up to kInlineIntervals intervals
// live inline in the object (no heap touch at all — the overwhelmingly
// common case), spilling to a heap buffer beyond that. The destination-
// passing operations (AssignIntersectionOf / AssignUnionOf /
// AssignDifferenceOf) reuse the destination's existing capacity, which is
// what makes the search iterators' steady-state loop allocation-free (see
// docs/performance.md).

#ifndef TGKS_TEMPORAL_INTERVAL_SET_H_
#define TGKS_TEMPORAL_INTERVAL_SET_H_

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "temporal/interval.h"
#include "temporal/time_point.h"

namespace tgks::temporal {

class Bitmap;    // bitmap.h
class TimeMask;  // time_mask.h

/// A set of discrete time instants with interval-based set algebra.
///
/// Invariant: `intervals()` is sorted by start, each interval is non-empty,
/// and consecutive intervals are separated by at least one missing instant
/// (i.e., the representation is canonical). Equal sets compare equal.
class IntervalSet {
 public:
  /// Intervals stored inline before spilling to the heap. Two covers both
  /// the append-only-dataset case (exactly one interval per element) and
  /// the first split a subtraction introduces.
  static constexpr uint32_t kInlineIntervals = 2;

  /// The empty set.
  IntervalSet() : size_(0), capacity_(kInlineIntervals) {}

  /// The set containing exactly `interval` (empty set if it is empty).
  explicit IntervalSet(Interval interval);

  /// Normalizes an arbitrary collection of intervals (any order, overlaps
  /// and adjacency allowed) into canonical form.
  IntervalSet(std::initializer_list<Interval> intervals);
  explicit IntervalSet(const std::vector<Interval>& intervals);

  IntervalSet(const IntervalSet& other);
  /// Copy assignment reuses this set's existing storage when it fits.
  IntervalSet& operator=(const IntervalSet& other);
  /// Moves steal heap buffers; inline contents are copied (trivial).
  IntervalSet(IntervalSet&& other) noexcept;
  /// Move assignment from an inline source copies into this set's existing
  /// storage (keeping its capacity for reuse); a spilled source's buffer is
  /// stolen.
  IntervalSet& operator=(IntervalSet&& other) noexcept;
  ~IntervalSet() { DeallocateIfHeap(); }

  /// The set of every instant in [0, timeline_length).
  static IntervalSet All(TimePoint timeline_length);

  /// The set {t}.
  static IntervalSet Point(TimePoint t);

  /// Builds from the 1-bits of `bitmap` (bit i == instant i).
  static IntervalSet FromBitmap(const Bitmap& bitmap);

  /// True iff the set has no instants.
  bool IsEmpty() const { return size_ == 0; }

  /// Empties the set, keeping allocated capacity for reuse.
  void Clear() { size_ = 0; }

  /// Swaps representations (buffers and all) without allocating.
  void Swap(IntervalSet& other) noexcept;

  /// Number of instants in the set (the paper's "duration").
  int64_t Duration() const;

  /// Earliest instant; kNoTimePoint if empty.
  TimePoint Start() const;

  /// Latest instant; kNoTimePoint if empty.
  TimePoint End() const;

  /// True iff instant `t` is in the set. O(log #intervals).
  bool Contains(TimePoint t) const;

  /// True iff every instant of `other` is in this set.
  bool Subsumes(const IntervalSet& other) const;

  /// True iff every instant of this set is in `other` — i.e. the difference
  /// this \ other is empty. The allocation-free replacement for
  /// `Subtract(other).IsEmpty()` on the iterator hot paths.
  bool IsCoveredBy(const IntervalSet& other) const {
    return other.Subsumes(*this);
  }

  /// True iff the two sets share at least one instant.
  bool Overlaps(const IntervalSet& other) const;

  /// Set intersection.
  IntervalSet Intersect(const IntervalSet& other) const;
  IntervalSet Intersect(const Interval& other) const;

  /// Set union.
  IntervalSet Union(const IntervalSet& other) const;

  /// Set difference (this \ other).
  IntervalSet Subtract(const IntervalSet& other) const;

  /// Destination-passing forms: *this is overwritten with the result,
  /// reusing its capacity. `this` must not alias `a` or `b`.
  void AssignIntersectionOf(const IntervalSet& a, const IntervalSet& b);
  void AssignUnionOf(const IntervalSet& a, const IntervalSet& b);
  void AssignDifferenceOf(const IntervalSet& a, const IntervalSet& b);

  /// Single-interval intersection fast path: equivalent to
  /// AssignIntersectionOf(a, IntervalSet(b)) without materializing the
  /// one-element set. The expansion view's inline-validity edges hit this.
  void AssignIntersectionOf(const IntervalSet& a, Interval b);

  /// Mask intersection: equivalent to AssignIntersectionOf(a,
  /// b.ToIntervalSet()) without materializing the mask's interval list.
  /// Views over narrow timelines serve IntervalSet readers through this.
  void AssignIntersectionOf(const IntervalSet& a, const TimeMask& b);

  /// Overwrites with the instants of `mask`, reusing capacity.
  void AssignFromMask(const TimeMask& mask);

  /// Complement within [0, timeline_length).
  IntervalSet ComplementWithin(TimePoint timeline_length) const;

  /// The canonical interval list.
  std::span<const Interval> intervals() const { return {data(), size_}; }

  /// Materializes every instant, ascending. Intended for tests and small
  /// sets; cost is Duration().
  std::vector<TimePoint> Instants() const;

  /// Writes 1-bits for each instant into a bitmap of `timeline_length` bits.
  Bitmap ToBitmap(TimePoint timeline_length) const;

  /// Destination-passing ToBitmap: resizes `*out` to `timeline_length` bits
  /// (reusing its word storage), zeroes it, and sets this set's instants.
  void ToBitmapInto(TimePoint timeline_length, Bitmap* out) const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b);

  /// "{[0,3] [7,7]}" style rendering.
  std::string ToString() const;

 private:
  bool IsHeap() const { return capacity_ > kInlineIntervals; }
  Interval* data() { return IsHeap() ? heap_ : inline_; }
  const Interval* data() const { return IsHeap() ? heap_ : inline_; }

  /// Grows capacity to at least `cap` (never shrinks), preserving contents.
  void Reserve(uint32_t cap);
  void DeallocateIfHeap() {
    if (IsHeap()) delete[] heap_;
  }

  /// Appends without maintaining canonical form (callers restore it).
  void Append(Interval iv) {
    if (size_ == capacity_) Reserve(size_ + 1);
    data()[size_++] = iv;
  }
  /// Appends `iv` (whose start is >= every stored start), fusing it into
  /// the last interval when overlapping or adjacent — the canonical-form
  /// merge step.
  void AppendMerge(Interval iv);

  /// Overwrites with a copy of [src, src + n); `src` must not point into
  /// this set's storage.
  void AssignSpan(const Interval* src, uint32_t n);

  /// Restores canonical form from arbitrary contents.
  void Normalize();

  // Small-buffer storage: inline_ is live while capacity_ ==
  // kInlineIntervals, heap_ (an array of capacity_) while beyond. Interval
  // is trivially copyable, so switching the active union member is a plain
  // store.
  union {
    Interval inline_[kInlineIntervals];
    Interval* heap_;
  };
  uint32_t size_;
  uint32_t capacity_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

}  // namespace tgks::temporal

#endif  // TGKS_TEMPORAL_INTERVAL_SET_H_
