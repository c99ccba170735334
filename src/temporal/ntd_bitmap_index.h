// Subsumption indexes over the NTD triplets of one node (paper §3.3, Fig. 5).
//
// When ranking by duration, Algorithm 2 must answer, for a freshly computed
// surviving interval set T∩ and the NTD triplets already recorded at a
// neighbor node n':
//
//   (a) is T∩ subsumed by the time interval of some NTD of n'?  -> skip T∩
//   (b) which NTDs of n' are subsumed by T∩?                    -> delete them
//
// The paper stores the NTDs of a node as a bitmap whose rows are NTD interval
// sets and whose columns are time instants, answering (a) by ANDing the
// columns selected by T∩ and (b) by ORing the columns outside T∩. We provide
// that column-major structure verbatim, plus a word-parallel row-major
// equivalent and a naive interval-scan baseline; bench_ablation_bitmap
// compares the three.

#ifndef TGKS_TEMPORAL_NTD_BITMAP_INDEX_H_
#define TGKS_TEMPORAL_NTD_BITMAP_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "temporal/bitmap.h"
#include "temporal/interval_set.h"
#include "temporal/time_mask.h"
#include "temporal/time_point.h"

namespace tgks::temporal {

/// Opaque handle of a row (one NTD) inside a subsumption index.
using NtdRowHandle = int32_t;

/// Answers subsumption queries over the interval sets of one node's NTDs.
///
/// Rows are added as NTDs are created and removed when Algorithm 2 prunes
/// them. Handles are stable until removed and may be reused afterwards.
class NtdSubsumptionIndex {
 public:
  virtual ~NtdSubsumptionIndex() = default;

  /// True iff some live row's interval set is a superset of `t`.
  /// `t` must be non-empty.
  virtual bool SubsumedByExisting(const IntervalSet& t) const = 0;

  /// Handles of all live rows whose interval sets are subsets of `t`, in
  /// ascending slot order. The span points into scratch owned by the index:
  /// it is invalidated by the next CollectSubsumed or Reset, but AddRow and
  /// RemoveRow leave it intact — Algorithm 2 evicts rows while iterating the
  /// collected victims. Returning a view instead of a fresh vector keeps the
  /// duration-ranking hot path allocation-free (see bench_micro_alloc).
  virtual std::span<const NtdRowHandle> CollectSubsumed(
      const IntervalSet& t) const = 0;

  /// Registers a row for `t`; returns its handle. `t` must be non-empty.
  virtual NtdRowHandle AddRow(const IntervalSet& t) = 0;

  /// Unregisters the row; `handle` must be live.
  virtual void RemoveRow(NtdRowHandle handle) = 0;

  /// Number of live rows.
  virtual int64_t LiveRows() const = 0;

  /// Drops every row, restoring the freshly-constructed state (the same
  /// timeline; handle assignment restarts at 0 in construction order) while
  /// keeping container capacity where possible. Lets pooled per-node scratch
  /// reuse an index across queries with behavior identical to a new one.
  virtual void Reset() = 0;

  /// TimeMask forms of the queries and AddRow, for iterators on timelines
  /// of at most TimeMask::kCapacity instants. Each equals its IntervalSet
  /// form on `t.ToIntervalSet()`. These defaults convert through a reused
  /// buffer; the row-major index fills its bitmaps straight from the mask.
  virtual bool SubsumedByExisting(const TimeMask& t) const;
  virtual std::span<const NtdRowHandle> CollectSubsumed(
      const TimeMask& t) const;
  virtual NtdRowHandle AddRow(const TimeMask& t);

 private:
  mutable IntervalSet mask_buffer_;  // Conversion target of the defaults.
};

/// Strategy selector for CreateNtdIndex.
enum class NtdIndexKind {
  kNaive,        ///< Linear scan over stored IntervalSets.
  kRowMajor,     ///< One Bitmap per row; word-parallel subset tests.
  kColumnMajor,  ///< The paper's Fig.-5 layout: one Bitmap per time instant.
};

/// Creates an index over a timeline of `timeline_length` instants.
std::unique_ptr<NtdSubsumptionIndex> CreateNtdIndex(
    NtdIndexKind kind, TimePoint timeline_length);

/// Naive reference implementation: scans every live IntervalSet.
class NaiveNtdIndex final : public NtdSubsumptionIndex {
 public:
  explicit NaiveNtdIndex(TimePoint timeline_length);

  using NtdSubsumptionIndex::AddRow;
  using NtdSubsumptionIndex::CollectSubsumed;
  using NtdSubsumptionIndex::SubsumedByExisting;

  bool SubsumedByExisting(const IntervalSet& t) const override;
  std::span<const NtdRowHandle> CollectSubsumed(
      const IntervalSet& t) const override;
  NtdRowHandle AddRow(const IntervalSet& t) override;
  void RemoveRow(NtdRowHandle handle) override;
  int64_t LiveRows() const override;
  void Reset() override;

 private:
  // Slot storage outlives row lifetimes: rows_[i] keeps its IntervalSet
  // buffer (and live_[i] goes to 0) when row i is removed, so re-adding into
  // the slot reuses capacity. num_slots_ is the high-water slot count since
  // Reset; slots beyond it are retained storage from earlier queries.
  std::vector<IntervalSet> rows_;
  std::vector<uint8_t> live_;
  size_t num_slots_ = 0;
  std::vector<NtdRowHandle> free_list_;
  mutable std::vector<NtdRowHandle> collect_scratch_;
};

/// Row-major bitmaps: subset tests are word-parallel over the timeline.
class RowMajorNtdIndex final : public NtdSubsumptionIndex {
 public:
  explicit RowMajorNtdIndex(TimePoint timeline_length);

  bool SubsumedByExisting(const IntervalSet& t) const override;
  std::span<const NtdRowHandle> CollectSubsumed(
      const IntervalSet& t) const override;
  NtdRowHandle AddRow(const IntervalSet& t) override;
  bool SubsumedByExisting(const TimeMask& t) const override;
  std::span<const NtdRowHandle> CollectSubsumed(
      const TimeMask& t) const override;
  NtdRowHandle AddRow(const TimeMask& t) override;
  void RemoveRow(NtdRowHandle handle) override;
  int64_t LiveRows() const override;
  void Reset() override;

 private:
  // The queries run on probe_, filled by the public overloads; rows are
  // handed out by AcquireRow and filled by the caller.
  bool ProbeSubsumedByExisting() const;
  std::span<const NtdRowHandle> CollectSubsumedByProbe() const;
  NtdRowHandle AcquireRow();

  TimePoint timeline_length_;
  // Same slot-recycling layout as NaiveNtdIndex: row bitmaps keep their word
  // storage across RemoveRow/Reset and are refilled in place (ToBitmapInto
  // or AssignMask), so the steady state never allocates.
  std::vector<Bitmap> rows_;
  std::vector<uint8_t> live_;
  size_t num_slots_ = 0;
  std::vector<NtdRowHandle> free_list_;
  mutable Bitmap probe_;
  mutable std::vector<NtdRowHandle> collect_scratch_;
};

/// The paper's column-major bitmap (Fig. 5): column j is a bitset over row
/// slots whose NTD interval set contains instant j.
///
/// Query (a): AND together the columns selected by the 1-instants of T∩,
/// restricted to live rows; any surviving 1-bit names a subsuming row.
/// Query (b): OR together the columns *outside* T∩; live rows that remain 0
/// have no instant outside T∩ and are therefore subsumed by it.
class ColumnMajorNtdIndex final : public NtdSubsumptionIndex {
 public:
  explicit ColumnMajorNtdIndex(TimePoint timeline_length);

  using NtdSubsumptionIndex::AddRow;
  using NtdSubsumptionIndex::CollectSubsumed;
  using NtdSubsumptionIndex::SubsumedByExisting;

  bool SubsumedByExisting(const IntervalSet& t) const override;
  std::span<const NtdRowHandle> CollectSubsumed(
      const IntervalSet& t) const override;
  NtdRowHandle AddRow(const IntervalSet& t) override;
  void RemoveRow(NtdRowHandle handle) override;
  int64_t LiveRows() const override;
  void Reset() override;

 private:
  void GrowRowCapacity(int64_t min_capacity);

  TimePoint timeline_length_;
  int64_t row_capacity_ = 0;
  std::vector<Bitmap> columns_;             // One per time instant.
  Bitmap live_rows_;                        // Live row slots.
  std::vector<IntervalSet> row_intervals_;  // For capacity regrowth.
  std::vector<NtdRowHandle> free_list_;
  // Per-query scratch (copy-assignment reuses capacity); mutable because the
  // const queries own their intermediate accumulators.
  mutable Bitmap acc_scratch_;
  mutable Bitmap zero_rows_scratch_;
  mutable IntervalSet outside_scratch_;
  mutable std::vector<NtdRowHandle> collect_scratch_;
};

}  // namespace tgks::temporal

#endif  // TGKS_TEMPORAL_NTD_BITMAP_INDEX_H_
