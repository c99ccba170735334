// TimeMask: a fixed 128-instant bitset, the word-parallel time set of the
// search hot path.
//
// The paper's timelines are short and discrete, and its own Algorithm 2
// already decides subsumption on per-instant bitmaps (Fig. 5). When a
// graph's timeline has at most kCapacity instants, every time set the best
// path iterators touch — element validities, NTD times, per-node claims —
// fits in two 64-bit words. Then ∩ / ∪ / ⊆ are two word
// operations each, and Start / End / Duration are ctz / clz / popcount,
// against an interval-list merge per operation on IntervalSet.
//
// Instant t is bit t % 64 of word t / 64. A mask holds instants in
// [0, kCapacity) only; conversions from wider sets drop the rest. Longer
// timelines keep the IntervalSet representation (see docs/performance.md,
// "Word-parallel time masks").

#ifndef TGKS_TEMPORAL_TIME_MASK_H_
#define TGKS_TEMPORAL_TIME_MASK_H_

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "temporal/interval.h"
#include "temporal/time_point.h"

namespace tgks::temporal {

class IntervalSet;  // interval_set.h

/// A set of instants in [0, 128) stored as two 64-bit words.
class TimeMask {
 public:
  /// Instants a mask can hold.
  static constexpr TimePoint kCapacity = 128;

  /// True iff every instant of a timeline of `timeline_length` instants
  /// fits in a mask.
  static constexpr bool Fits(TimePoint timeline_length) {
    return timeline_length <= kCapacity;
  }

  /// The empty set.
  constexpr TimeMask() = default;

  /// The set whose instants are the 1-bits of `lo` (instants 0-63) and
  /// `hi` (instants 64-127).
  static constexpr TimeMask FromWords(uint64_t lo, uint64_t hi) {
    TimeMask m;
    m.lo_ = lo;
    m.hi_ = hi;
    return m;
  }

  /// Instants [start, end] clipped to [0, kCapacity); empty if start > end.
  static constexpr TimeMask Range(TimePoint start, TimePoint end) {
    if (start < 0) start = 0;
    if (end >= kCapacity) end = kCapacity - 1;
    if (start > end) return TimeMask();
    TimeMask m;
    if (start < 64) m.lo_ = WordRange(start, end < 64 ? end : 63);
    if (end >= 64) m.hi_ = WordRange(start < 64 ? 0 : start - 64, end - 64);
    return m;
  }

  /// Every instant of [0, timeline_length) (clipped to kCapacity).
  static constexpr TimeMask All(TimePoint timeline_length) {
    return Range(0, timeline_length - 1);
  }

  /// The set {t} (empty when t lies outside [0, kCapacity)).
  static constexpr TimeMask Point(TimePoint t) { return Range(t, t); }

  /// The instants of `interval` (clipped).
  static constexpr TimeMask Of(Interval interval) {
    return Range(interval.start, interval.end);
  }

  /// The instants of `set` that lie in [0, kCapacity).
  static TimeMask FromIntervalSet(const IntervalSet& set);

  /// The same instants as a canonical IntervalSet.
  IntervalSet ToIntervalSet() const;

  uint64_t lo() const { return lo_; }
  uint64_t hi() const { return hi_; }

  bool IsEmpty() const { return (lo_ | hi_) == 0; }

  /// Number of instants (the paper's "duration").
  int64_t Duration() const { return std::popcount(lo_) + std::popcount(hi_); }

  /// Earliest instant; kNoTimePoint if empty.
  TimePoint Start() const {
    if (lo_ != 0) return std::countr_zero(lo_);
    if (hi_ != 0) return 64 + std::countr_zero(hi_);
    return kNoTimePoint;
  }

  /// Latest instant; kNoTimePoint if empty.
  TimePoint End() const {
    if (hi_ != 0) return 127 - std::countl_zero(hi_);
    if (lo_ != 0) return 63 - std::countl_zero(lo_);
    return kNoTimePoint;
  }

  /// True iff instant `t` is in the set.
  bool Contains(TimePoint t) const {
    if (t < 0 || t >= kCapacity) return false;
    const uint64_t word = t < 64 ? lo_ : hi_;
    return ((word >> (t & 63)) & 1u) != 0;
  }

  /// True iff every instant of `other` is in this set.
  bool Subsumes(const TimeMask& other) const {
    return ((other.lo_ & ~lo_) | (other.hi_ & ~hi_)) == 0;
  }

  /// True iff every instant of this set is in `other`.
  bool IsCoveredBy(const TimeMask& other) const {
    return other.Subsumes(*this);
  }

  /// True iff the two sets share an instant.
  bool Overlaps(const TimeMask& other) const {
    return ((lo_ & other.lo_) | (hi_ & other.hi_)) != 0;
  }

  /// this \ other.
  TimeMask Subtract(const TimeMask& other) const {
    return FromWords(lo_ & ~other.lo_, hi_ & ~other.hi_);
  }

  TimeMask& operator&=(const TimeMask& other) {
    lo_ &= other.lo_;
    hi_ &= other.hi_;
    return *this;
  }
  TimeMask& operator|=(const TimeMask& other) {
    lo_ |= other.lo_;
    hi_ |= other.hi_;
    return *this;
  }
  /// Intersection and union.
  friend TimeMask operator&(const TimeMask& a, const TimeMask& b) {
    return FromWords(a.lo_ & b.lo_, a.hi_ & b.hi_);
  }
  friend TimeMask operator|(const TimeMask& a, const TimeMask& b) {
    return FromWords(a.lo_ | b.lo_, a.hi_ | b.hi_);
  }

  friend bool operator==(const TimeMask& a, const TimeMask& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

  /// Calls `fn(Interval)` once per maximal run of instants, ascending —
  /// the canonical interval list of the set.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    for (TimePoint t = NextSet(0); t >= 0;) {
      const TimePoint end = NextClear(t);
      fn(Interval(t, end - 1));
      t = end < kCapacity ? NextSet(end) : -1;
    }
  }

  /// "{[0,3] [7,7]}" style rendering, identical to IntervalSet's.
  std::string ToString() const;

 private:
  /// Bits [lo, hi] of one word, 0 <= lo <= hi <= 63.
  static constexpr uint64_t WordRange(TimePoint lo, TimePoint hi) {
    return (~uint64_t{0} >> (63 - hi)) & (~uint64_t{0} << lo);
  }

  /// First instant >= `from` in the set; -1 if none. 0 <= from <= 128.
  TimePoint NextSet(TimePoint from) const {
    if (from < 64) {
      const uint64_t w = lo_ & (~uint64_t{0} << from);
      if (w != 0) return std::countr_zero(w);
      from = 64;
    }
    if (from < kCapacity) {
      const uint64_t w = hi_ & (~uint64_t{0} << (from - 64));
      if (w != 0) return 64 + std::countr_zero(w);
    }
    return -1;
  }

  /// First instant >= `from` NOT in the set; kCapacity if none.
  TimePoint NextClear(TimePoint from) const {
    if (from < 64) {
      const uint64_t w = ~lo_ & (~uint64_t{0} << from);
      if (w != 0) return std::countr_zero(w);
      from = 64;
    }
    if (from < kCapacity) {
      const uint64_t w = ~hi_ & (~uint64_t{0} << (from - 64));
      if (w != 0) return 64 + std::countr_zero(w);
    }
    return kCapacity;
  }

  uint64_t lo_ = 0;  // Instants 0-63.
  uint64_t hi_ = 0;  // Instants 64-127.
};

std::ostream& operator<<(std::ostream& os, const TimeMask& mask);

}  // namespace tgks::temporal

#endif  // TGKS_TEMPORAL_TIME_MASK_H_
