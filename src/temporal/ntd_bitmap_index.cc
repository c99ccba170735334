#include "temporal/ntd_bitmap_index.h"

#include <algorithm>
#include <cassert>

namespace tgks::temporal {

std::unique_ptr<NtdSubsumptionIndex> CreateNtdIndex(
    NtdIndexKind kind, TimePoint timeline_length) {
  switch (kind) {
    case NtdIndexKind::kNaive:
      return std::make_unique<NaiveNtdIndex>(timeline_length);
    case NtdIndexKind::kRowMajor:
      return std::make_unique<RowMajorNtdIndex>(timeline_length);
    case NtdIndexKind::kColumnMajor:
      return std::make_unique<ColumnMajorNtdIndex>(timeline_length);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// NtdSubsumptionIndex: TimeMask forms by conversion

bool NtdSubsumptionIndex::SubsumedByExisting(const TimeMask& t) const {
  mask_buffer_.AssignFromMask(t);
  return SubsumedByExisting(mask_buffer_);
}

std::span<const NtdRowHandle> NtdSubsumptionIndex::CollectSubsumed(
    const TimeMask& t) const {
  mask_buffer_.AssignFromMask(t);
  return CollectSubsumed(mask_buffer_);
}

NtdRowHandle NtdSubsumptionIndex::AddRow(const TimeMask& t) {
  mask_buffer_.AssignFromMask(t);
  return AddRow(mask_buffer_);
}

// ---------------------------------------------------------------------------
// NaiveNtdIndex

NaiveNtdIndex::NaiveNtdIndex(TimePoint timeline_length) {
  (void)timeline_length;  // Interval sets carry their own extent.
}

bool NaiveNtdIndex::SubsumedByExisting(const IntervalSet& t) const {
  for (size_t i = 0; i < num_slots_; ++i) {
    if (live_[i] && rows_[i].Subsumes(t)) return true;
  }
  return false;
}

std::span<const NtdRowHandle> NaiveNtdIndex::CollectSubsumed(
    const IntervalSet& t) const {
  collect_scratch_.clear();
  for (size_t i = 0; i < num_slots_; ++i) {
    if (live_[i] && t.Subsumes(rows_[i])) {
      collect_scratch_.push_back(static_cast<NtdRowHandle>(i));
    }
  }
  return collect_scratch_;
}

NtdRowHandle NaiveNtdIndex::AddRow(const IntervalSet& t) {
  assert(!t.IsEmpty());
  NtdRowHandle h;
  if (!free_list_.empty()) {
    h = free_list_.back();
    free_list_.pop_back();
  } else {
    h = static_cast<NtdRowHandle>(num_slots_++);
    if (static_cast<size_t>(h) == rows_.size()) {
      rows_.emplace_back();
      live_.push_back(0);
    }
  }
  // Copy-assign into the retained slot reuses its interval capacity.
  rows_[static_cast<size_t>(h)] = t;
  live_[static_cast<size_t>(h)] = 1;
  return h;
}

void NaiveNtdIndex::RemoveRow(NtdRowHandle handle) {
  assert(handle >= 0 && static_cast<size_t>(handle) < num_slots_);
  assert(live_[static_cast<size_t>(handle)]);
  live_[static_cast<size_t>(handle)] = 0;
  free_list_.push_back(handle);
}

int64_t NaiveNtdIndex::LiveRows() const {
  return static_cast<int64_t>(num_slots_) -
         static_cast<int64_t>(free_list_.size());
}

void NaiveNtdIndex::Reset() {
  // Keep rows_ (and each row's interval buffer) as retained storage; only
  // the live window restarts, so handle assignment replays a fresh index.
  std::fill(live_.begin(), live_.end(), 0);
  num_slots_ = 0;
  free_list_.clear();
}

// ---------------------------------------------------------------------------
// RowMajorNtdIndex

RowMajorNtdIndex::RowMajorNtdIndex(TimePoint timeline_length)
    : timeline_length_(timeline_length) {}

bool RowMajorNtdIndex::SubsumedByExisting(const IntervalSet& t) const {
  t.ToBitmapInto(timeline_length_, &probe_);
  return ProbeSubsumedByExisting();
}

bool RowMajorNtdIndex::SubsumedByExisting(const TimeMask& t) const {
  probe_.AssignMask(timeline_length_, t);
  return ProbeSubsumedByExisting();
}

bool RowMajorNtdIndex::ProbeSubsumedByExisting() const {
  for (size_t i = 0; i < num_slots_; ++i) {
    if (live_[i] && probe_.IsSubsetOf(rows_[i])) return true;
  }
  return false;
}

std::span<const NtdRowHandle> RowMajorNtdIndex::CollectSubsumed(
    const IntervalSet& t) const {
  t.ToBitmapInto(timeline_length_, &probe_);
  return CollectSubsumedByProbe();
}

std::span<const NtdRowHandle> RowMajorNtdIndex::CollectSubsumed(
    const TimeMask& t) const {
  probe_.AssignMask(timeline_length_, t);
  return CollectSubsumedByProbe();
}

std::span<const NtdRowHandle> RowMajorNtdIndex::CollectSubsumedByProbe()
    const {
  collect_scratch_.clear();
  for (size_t i = 0; i < num_slots_; ++i) {
    if (live_[i] && rows_[i].IsSubsetOf(probe_)) {
      collect_scratch_.push_back(static_cast<NtdRowHandle>(i));
    }
  }
  return collect_scratch_;
}

NtdRowHandle RowMajorNtdIndex::AddRow(const IntervalSet& t) {
  assert(!t.IsEmpty());
  const NtdRowHandle h = AcquireRow();
  // Refill the retained bitmap in place — its word storage is reused.
  t.ToBitmapInto(timeline_length_, &rows_[static_cast<size_t>(h)]);
  return h;
}

NtdRowHandle RowMajorNtdIndex::AddRow(const TimeMask& t) {
  assert(!t.IsEmpty());
  const NtdRowHandle h = AcquireRow();
  rows_[static_cast<size_t>(h)].AssignMask(timeline_length_, t);
  return h;
}

NtdRowHandle RowMajorNtdIndex::AcquireRow() {
  NtdRowHandle h;
  if (!free_list_.empty()) {
    h = free_list_.back();
    free_list_.pop_back();
  } else {
    h = static_cast<NtdRowHandle>(num_slots_++);
    if (static_cast<size_t>(h) == rows_.size()) {
      rows_.emplace_back();
      live_.push_back(0);
    }
  }
  live_[static_cast<size_t>(h)] = 1;
  return h;
}

void RowMajorNtdIndex::RemoveRow(NtdRowHandle handle) {
  assert(handle >= 0 && static_cast<size_t>(handle) < num_slots_);
  assert(live_[static_cast<size_t>(handle)]);
  live_[static_cast<size_t>(handle)] = 0;
  free_list_.push_back(handle);
}

int64_t RowMajorNtdIndex::LiveRows() const {
  return static_cast<int64_t>(num_slots_) -
         static_cast<int64_t>(free_list_.size());
}

void RowMajorNtdIndex::Reset() {
  std::fill(live_.begin(), live_.end(), 0);
  num_slots_ = 0;
  free_list_.clear();
}

// ---------------------------------------------------------------------------
// ColumnMajorNtdIndex

ColumnMajorNtdIndex::ColumnMajorNtdIndex(TimePoint timeline_length)
    : timeline_length_(timeline_length), live_rows_(0) {
  assert(timeline_length >= 0);
  columns_.assign(static_cast<size_t>(timeline_length), Bitmap(0));
}

void ColumnMajorNtdIndex::GrowRowCapacity(int64_t min_capacity) {
  int64_t capacity = row_capacity_ == 0 ? 8 : row_capacity_;
  while (capacity < min_capacity) capacity *= 2;
  if (capacity == row_capacity_) return;
  // Rebuild every column at the wider row capacity from the retained
  // per-row interval sets. Amortized O(1) per AddRow.
  std::vector<Bitmap> wider(columns_.size(), Bitmap(capacity));
  Bitmap live(capacity);
  for (size_t slot = 0; slot < row_intervals_.size(); ++slot) {
    if (!live_rows_.Test(static_cast<int64_t>(slot))) continue;
    live.Set(static_cast<int64_t>(slot));
    for (const Interval& iv : row_intervals_[slot].intervals()) {
      for (TimePoint t = iv.start; t <= iv.end; ++t) {
        if (t >= 0 && t < timeline_length_) {
          wider[static_cast<size_t>(t)].Set(static_cast<int64_t>(slot));
        }
      }
    }
  }
  columns_ = std::move(wider);
  live_rows_ = std::move(live);
  row_capacity_ = capacity;
}

bool ColumnMajorNtdIndex::SubsumedByExisting(const IntervalSet& t) const {
  assert(!t.IsEmpty());
  if (LiveRows() == 0) return false;
  // AND of the columns selected by the instants of t, over live rows only
  // (Fig. 5: "extract the columns that correspond to the time instants in
  // T∩ and perform an AND"). The accumulator is pooled scratch: copy-assign
  // reuses its word storage.
  acc_scratch_ = live_rows_;
  for (const Interval& iv : t.intervals()) {
    for (TimePoint instant = iv.start; instant <= iv.end; ++instant) {
      if (instant < 0 || instant >= timeline_length_) return false;
      acc_scratch_.And(columns_[static_cast<size_t>(instant)]);
      if (acc_scratch_.None()) return false;
    }
  }
  return acc_scratch_.Any();
}

std::span<const NtdRowHandle> ColumnMajorNtdIndex::CollectSubsumed(
    const IntervalSet& t) const {
  collect_scratch_.clear();
  if (LiveRows() == 0) return collect_scratch_;
  // OR of the columns *outside* t; live rows left at 0 have every instant
  // inside t and are therefore subsumed by it.
  acc_scratch_.ResizeAndClear(row_capacity_);
  outside_scratch_.AssignDifferenceOf(IntervalSet::All(timeline_length_), t);
  for (const Interval& iv : outside_scratch_.intervals()) {
    for (TimePoint instant = iv.start; instant <= iv.end; ++instant) {
      acc_scratch_.Or(columns_[static_cast<size_t>(instant)]);
    }
  }
  zero_rows_scratch_ = live_rows_;
  zero_rows_scratch_.AndNot(acc_scratch_);
  for (int64_t slot = zero_rows_scratch_.FindFirstSet(0); slot >= 0;
       slot = zero_rows_scratch_.FindFirstSet(slot + 1)) {
    collect_scratch_.push_back(static_cast<NtdRowHandle>(slot));
  }
  return collect_scratch_;
}

NtdRowHandle ColumnMajorNtdIndex::AddRow(const IntervalSet& t) {
  assert(!t.IsEmpty());
  NtdRowHandle slot;
  if (!free_list_.empty()) {
    slot = free_list_.back();
    free_list_.pop_back();
  } else {
    slot = static_cast<NtdRowHandle>(row_intervals_.size());
    if (slot >= row_capacity_) GrowRowCapacity(slot + 1);
    row_intervals_.emplace_back();
  }
  row_intervals_[static_cast<size_t>(slot)] = t;
  live_rows_.Set(slot);
  for (const Interval& iv : t.intervals()) {
    for (TimePoint instant = iv.start; instant <= iv.end; ++instant) {
      if (instant >= 0 && instant < timeline_length_) {
        columns_[static_cast<size_t>(instant)].Set(slot);
      }
    }
  }
  return slot;
}

void ColumnMajorNtdIndex::RemoveRow(NtdRowHandle handle) {
  assert(handle >= 0 && handle < row_capacity_);
  assert(live_rows_.Test(handle));
  live_rows_.Clear(handle);
  const IntervalSet& t = row_intervals_[static_cast<size_t>(handle)];
  for (const Interval& iv : t.intervals()) {
    for (TimePoint instant = iv.start; instant <= iv.end; ++instant) {
      if (instant >= 0 && instant < timeline_length_) {
        columns_[static_cast<size_t>(instant)].Clear(handle);
      }
    }
  }
  row_intervals_[static_cast<size_t>(handle)] = IntervalSet();
  free_list_.push_back(handle);
}

int64_t ColumnMajorNtdIndex::LiveRows() const { return live_rows_.Count(); }

void ColumnMajorNtdIndex::Reset() {
  // Back to the constructed state: zero row capacity, empty columns. A
  // fresh index regrows capacity on the first AddRow, so a reset one must
  // too for handle assignment to match a fresh index exactly.
  row_capacity_ = 0;
  columns_.assign(static_cast<size_t>(timeline_length_), Bitmap(0));
  live_rows_ = Bitmap(0);
  row_intervals_.clear();
  free_list_.clear();
}

}  // namespace tgks::temporal
