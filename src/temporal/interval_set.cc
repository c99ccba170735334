#include "temporal/interval_set.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <sstream>
#include <utility>

#include "temporal/bitmap.h"
#include "temporal/time_mask.h"

namespace tgks::temporal {

IntervalSet::IntervalSet(Interval interval) : IntervalSet() {
  if (!interval.IsEmpty()) Append(interval);
}

IntervalSet::IntervalSet(std::initializer_list<Interval> intervals)
    : IntervalSet() {
  Reserve(static_cast<uint32_t>(intervals.size()));
  for (const Interval& iv : intervals) Append(iv);
  Normalize();
}

IntervalSet::IntervalSet(const std::vector<Interval>& intervals)
    : IntervalSet() {
  Reserve(static_cast<uint32_t>(intervals.size()));
  for (const Interval& iv : intervals) Append(iv);
  Normalize();
}

IntervalSet::IntervalSet(const IntervalSet& other)
    : size_(other.size_), capacity_(kInlineIntervals) {
  if (other.size_ > kInlineIntervals) {
    heap_ = new Interval[other.size_];
    capacity_ = other.size_;
  }
  std::copy(other.data(), other.data() + other.size_, data());
}

IntervalSet& IntervalSet::operator=(const IntervalSet& other) {
  if (this == &other) return *this;
  AssignSpan(other.data(), other.size_);
  return *this;
}

IntervalSet::IntervalSet(IntervalSet&& other) noexcept
    : size_(other.size_), capacity_(other.capacity_) {
  if (other.IsHeap()) {
    heap_ = other.heap_;
    other.capacity_ = kInlineIntervals;
  } else {
    std::copy(other.inline_, other.inline_ + other.size_, inline_);
  }
  other.size_ = 0;
}

IntervalSet& IntervalSet::operator=(IntervalSet&& other) noexcept {
  if (this == &other) return *this;
  if (other.IsHeap()) {
    DeallocateIfHeap();
    heap_ = other.heap_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.capacity_ = kInlineIntervals;
  } else {
    // Inline source: copy into our existing storage so a pre-grown
    // destination (e.g. a pooled arena slot) keeps its capacity.
    AssignSpan(other.inline_, other.size_);
  }
  other.size_ = 0;
  return *this;
}

void IntervalSet::Swap(IntervalSet& other) noexcept {
  // The union holds only trivially copyable members, so swapping its raw
  // bytes is a representation-level exchange of whichever member is live.
  alignas(Interval) unsigned char tmp[sizeof(inline_)];
  std::memcpy(tmp, &inline_, sizeof(inline_));
  std::memcpy(&inline_, &other.inline_, sizeof(inline_));
  std::memcpy(&other.inline_, tmp, sizeof(inline_));
  std::swap(size_, other.size_);
  std::swap(capacity_, other.capacity_);
}

void IntervalSet::Reserve(uint32_t cap) {
  if (cap <= capacity_) return;
  const uint32_t grown = std::max(cap, capacity_ * 2);
  Interval* buffer = new Interval[grown];
  std::copy(data(), data() + size_, buffer);
  DeallocateIfHeap();
  heap_ = buffer;
  capacity_ = grown;
}

void IntervalSet::AppendMerge(Interval iv) {
  Interval* d = data();
  if (size_ > 0 && iv.start <= d[size_ - 1].end + 1) {
    // Merge overlapping *and adjacent* intervals ([0,2] + [3,5] == [0,5]
    // over discrete instants).
    d[size_ - 1].end = std::max(d[size_ - 1].end, iv.end);
  } else {
    Append(iv);
  }
}

void IntervalSet::AssignSpan(const Interval* src, uint32_t n) {
  assert(src == nullptr || src < data() || src >= data() + capacity_);
  if (n > capacity_) {
    // Content is being replaced wholesale; skip the copying Reserve.
    DeallocateIfHeap();
    capacity_ = kInlineIntervals;  // Restore a valid state before new[].
    heap_ = new Interval[n];
    capacity_ = n;
  }
  std::copy(src, src + n, data());
  size_ = n;
}

IntervalSet IntervalSet::All(TimePoint timeline_length) {
  if (timeline_length <= 0) return IntervalSet();
  return IntervalSet(Interval(0, timeline_length - 1));
}

IntervalSet IntervalSet::Point(TimePoint t) {
  return IntervalSet(Interval::Point(t));
}

void IntervalSet::AssignIntersectionOf(const IntervalSet& a,
                                       const TimeMask& b) {
  assert(this != &a);
  AssignFromMask(TimeMask::FromIntervalSet(a) & b);
}

void IntervalSet::AssignFromMask(const TimeMask& mask) {
  size_ = 0;
  // Runs are already canonical: sorted and separated by missing instants.
  mask.ForEachRun([this](Interval iv) { Append(iv); });
}

IntervalSet IntervalSet::FromBitmap(const Bitmap& bitmap) {
  IntervalSet out;
  int64_t i = bitmap.FindFirstSet(0);
  while (i >= 0) {
    const int64_t end = bitmap.FindFirstClear(i);
    const int64_t run_end = end < 0 ? bitmap.size() : end;
    // Runs are already canonical: sorted and separated by 0-bits.
    out.Append(Interval(static_cast<TimePoint>(i),
                        static_cast<TimePoint>(run_end - 1)));
    if (end < 0) break;
    i = bitmap.FindFirstSet(end);
  }
  return out;
}

void IntervalSet::Normalize() {
  Interval* d = data();
  uint32_t n = 0;
  for (uint32_t i = 0; i < size_; ++i) {
    if (!d[i].IsEmpty()) d[n++] = d[i];
  }
  std::sort(d, d + n, [](const Interval& a, const Interval& b) {
    return a.start < b.start;
  });
  size_ = 0;
  for (uint32_t i = 0; i < n; ++i) AppendMerge(d[i]);
}

int64_t IntervalSet::Duration() const {
  int64_t total = 0;
  for (const Interval& iv : intervals()) total += iv.Length();
  return total;
}

TimePoint IntervalSet::Start() const {
  return size_ == 0 ? kNoTimePoint : data()[0].start;
}

TimePoint IntervalSet::End() const {
  return size_ == 0 ? kNoTimePoint : data()[size_ - 1].end;
}

bool IntervalSet::Contains(TimePoint t) const {
  // First interval with start > t; the candidate container precedes it.
  const std::span<const Interval> ivs = intervals();
  auto it = std::upper_bound(
      ivs.begin(), ivs.end(), t,
      [](TimePoint v, const Interval& iv) { return v < iv.start; });
  if (it == ivs.begin()) return false;
  return std::prev(it)->Contains(t);
}

bool IntervalSet::Subsumes(const IntervalSet& other) const {
  // Each interval of `other` must lie inside a single interval of `this`
  // (canonical form guarantees no split is needed).
  const Interval* d = data();
  uint32_t i = 0;
  for (const Interval& o : other.intervals()) {
    while (i < size_ && d[i].end < o.start) ++i;
    if (i == size_ || !d[i].Subsumes(o)) return false;
  }
  return true;
}

bool IntervalSet::Overlaps(const IntervalSet& other) const {
  const Interval* a = data();
  const Interval* b = other.data();
  uint32_t i = 0, j = 0;
  while (i < size_ && j < other.size_) {
    if (a[i].Overlaps(b[j])) return true;
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

void IntervalSet::AssignIntersectionOf(const IntervalSet& a,
                                       const IntervalSet& b) {
  assert(this != &a && this != &b);
  Clear();
  const Interval* da = a.data();
  const Interval* db = b.data();
  uint32_t i = 0, j = 0;
  while (i < a.size_ && j < b.size_) {
    const Interval common = da[i].Intersect(db[j]);
    if (!common.IsEmpty()) Append(common);
    if (da[i].end < db[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  // Intersection of canonical sets is canonical: pieces inherit sortedness
  // and remain separated by the gaps of the inputs.
}

void IntervalSet::AssignIntersectionOf(const IntervalSet& a, Interval b) {
  assert(this != &a);
  Clear();
  if (b.IsEmpty()) return;
  for (const Interval& iv : a.intervals()) {
    if (iv.start > b.end) break;
    const Interval common = iv.Intersect(b);
    if (!common.IsEmpty()) Append(common);
  }
  // Clipping a canonical set to one window keeps it canonical.
}

void IntervalSet::AssignUnionOf(const IntervalSet& a, const IntervalSet& b) {
  assert(this != &a && this != &b);
  Clear();
  const Interval* da = a.data();
  const Interval* db = b.data();
  uint32_t i = 0, j = 0;
  // Two-pointer merge by start; AppendMerge fuses overlap and adjacency,
  // which is exactly the Normalize() merge step, so the result is canonical.
  while (i < a.size_ || j < b.size_) {
    if (j == b.size_ || (i < a.size_ && da[i].start <= db[j].start)) {
      AppendMerge(da[i++]);
    } else {
      AppendMerge(db[j++]);
    }
  }
}

void IntervalSet::AssignDifferenceOf(const IntervalSet& a,
                                     const IntervalSet& b) {
  assert(this != &a && this != &b);
  Clear();
  const Interval* db = b.data();
  uint32_t j = 0;
  for (const Interval& iv : a.intervals()) {
    // Walk the subtrahend intervals that can affect iv.
    while (j < b.size_ && db[j].end < iv.start) ++j;
    uint32_t k = j;
    TimePoint cursor = iv.start;
    while (k < b.size_ && db[k].start <= iv.end) {
      const Interval& cut = db[k];
      if (cut.start > cursor) Append(Interval(cursor, cut.start - 1));
      cursor = std::max(cursor, static_cast<TimePoint>(cut.end + 1));
      if (cursor > iv.end) break;
      ++k;
    }
    if (cursor <= iv.end) Append(Interval(cursor, iv.end));
  }
  // Pieces of a canonical set minus something remain canonical.
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  IntervalSet out;
  out.AssignIntersectionOf(*this, other);
  return out;
}

IntervalSet IntervalSet::Intersect(const Interval& other) const {
  return Intersect(IntervalSet(other));
}

IntervalSet IntervalSet::Union(const IntervalSet& other) const {
  IntervalSet out;
  out.AssignUnionOf(*this, other);
  return out;
}

IntervalSet IntervalSet::Subtract(const IntervalSet& other) const {
  IntervalSet out;
  out.AssignDifferenceOf(*this, other);
  return out;
}

IntervalSet IntervalSet::ComplementWithin(TimePoint timeline_length) const {
  return All(timeline_length).Subtract(*this);
}

std::vector<TimePoint> IntervalSet::Instants() const {
  std::vector<TimePoint> out;
  out.reserve(static_cast<size_t>(Duration()));
  for (const Interval& iv : intervals()) {
    for (TimePoint t = iv.start; t <= iv.end; ++t) out.push_back(t);
  }
  return out;
}

Bitmap IntervalSet::ToBitmap(TimePoint timeline_length) const {
  Bitmap bm(timeline_length);
  for (const Interval& iv : intervals()) {
    const TimePoint lo = std::max<TimePoint>(iv.start, 0);
    const TimePoint hi = std::min<TimePoint>(iv.end, timeline_length - 1);
    if (lo <= hi) bm.SetRange(lo, hi);
  }
  return bm;
}

void IntervalSet::ToBitmapInto(TimePoint timeline_length, Bitmap* out) const {
  out->ResizeAndClear(timeline_length);
  for (const Interval& iv : intervals()) {
    const TimePoint lo = std::max<TimePoint>(iv.start, 0);
    const TimePoint hi = std::min<TimePoint>(iv.end, timeline_length - 1);
    if (lo <= hi) out->SetRange(lo, hi);
  }
}

bool operator==(const IntervalSet& a, const IntervalSet& b) {
  if (a.size_ != b.size_) return false;
  return std::equal(a.data(), a.data() + a.size_, b.data());
}

std::string IntervalSet::ToString() const {
  std::ostringstream os;
  os << '{';
  const std::span<const Interval> ivs = intervals();
  for (size_t i = 0; i < ivs.size(); ++i) {
    if (i > 0) os << ' ';
    os << ivs[i].ToString();
  }
  os << '}';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  return os << set.ToString();
}

}  // namespace tgks::temporal
