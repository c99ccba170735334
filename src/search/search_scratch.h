// Pooled per-iterator scratch state: flat epoch tables, block NTD arenas,
// and reusable heap storage.
//
// A BestPathIterator (and its label-correcting sibling) used to allocate
// its entire working state per query: hash maps per node, a vector arena
// that reallocated as it grew, a priority queue rebuilt from nothing. The
// scratch objects here own all of that as flat epoch-versioned hash tables
// (common/epoch_table.h) plus a block-reserving NTD arena, and are recycled
// through a thread-local ScratchPool — an iterator acquires a warm scratch
// in its constructor, bumps the epochs, and runs allocation-free in steady
// state. The QueryExecutor's persistent workers (src/exec) make this
// recycling automatic across the queries of a batch.
//
// A BestPathIterator is a keyword frontier over many sources, and its
// scratch is two-level: one shared NTD arena and heap of sources, plus one
// BestPathOrigin slot per source holding that source's own queue and
// per-node tables. The engine builds one frontier per keyword, so a query
// holds one BestPathScratch per keyword, acquired from the running
// thread's pool (see common/scratch_pool.h). See docs/performance.md for
// layout and measurements.

#ifndef TGKS_SEARCH_SEARCH_SCRATCH_H_
#define TGKS_SEARCH_SEARCH_SCRATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/epoch_table.h"
#include "common/scratch_pool.h"
#include "search/ntd.h"
#include "search/quad_heap.h"
#include "search/ranking.h"
#include "temporal/interval_set.h"
#include "temporal/ntd_bitmap_index.h"
#include "temporal/time_mask.h"

namespace tgks::search {

/// Block-reserving arena, holding the NTD triplets and, on wide timelines,
/// their IntervalSet times (index-aligned with the NTDs).
///
/// Blocks give two properties a plain vector lacks: element addresses are
/// stable (expansion can hold a reference to the parent NTD across pushes),
/// and rewinding keeps every slot object alive, so a reused IntervalSet
/// slot retains its spill capacity from earlier queries.
template <typename T>
class BlockArena {
 public:
  // Power of two so operator[] compiles to shift + mask; small enough that
  // the light frontiers of a query (a few NTDs per source) stay cheap.
  static constexpr size_t kBlockSize = 64;

  size_t size() const { return size_; }

  T& operator[](size_t i) { return blocks_[i / kBlockSize][i % kBlockSize]; }
  const T& operator[](size_t i) const {
    return blocks_[i / kBlockSize][i % kBlockSize];
  }

  /// Returns the next slot. Its contents are STALE (possibly from a prior
  /// query); the caller must assign every field.
  T& EmplaceBack() {
    if (size_ == blocks_.size() * kBlockSize) {
      blocks_.push_back(std::make_unique<T[]>(kBlockSize));
    }
    T& slot = (*this)[size_];
    ++size_;
    return slot;
  }

  /// Forgets the contents but keeps every block (and each slot's interval
  /// capacity) for the next query.
  void Rewind() { size_ = 0; }

 private:
  std::vector<std::unique_ptr<T[]>> blocks_;
  size_t size_ = 0;
};

using NtdArena = BlockArena<Ntd>;

/// Per-node state of the duration-subsumption semantics: the pluggable
/// index plus the row-handle -> NTD id mapping (dense: handles are small
/// integers that indexes recycle).
struct NodeSubsumption {
  std::unique_ptr<temporal::NtdSubsumptionIndex> index;
  temporal::NtdIndexKind kind = temporal::NtdIndexKind::kRowMajor;
  temporal::TimePoint timeline = -1;
  std::vector<NtdId> row_to_ntd;  // kInvalidNtd marks a dead slot.
  /// The source has popped an NTD here. The entry itself is activated
  /// earlier, by the first push to the node.
  bool popped = false;

  /// Returns the index, reset for a fresh use — recycled when the cached
  /// one matches `kind`/`timeline`, rebuilt otherwise.
  temporal::NtdSubsumptionIndex& Fresh(temporal::NtdIndexKind want_kind,
                                       temporal::TimePoint want_timeline) {
    if (index == nullptr || kind != want_kind || timeline != want_timeline) {
      index = temporal::CreateNtdIndex(want_kind, want_timeline);
      kind = want_kind;
      timeline = want_timeline;
    } else {
      index->Reset();
    }
    row_to_ntd.clear();
    popped = false;
    return *index;
  }

  /// Records `ntd` under `row`, growing the dense map as handles appear.
  void BindRow(temporal::NtdRowHandle row, NtdId ntd) {
    const size_t slot = static_cast<size_t>(row);
    if (row_to_ntd.size() <= slot) row_to_ntd.resize(slot + 1, kInvalidNtd);
    row_to_ntd[slot] = ntd;
  }
};

/// Queue entry of the best path iterator: inline score key + arena id.
struct BestPathQueueEntry {
  ScoreKey score;
  NtdId id;
};
struct BestPathQueueBetter {
  // True iff `a` pops first: best score, with older NTDs (smaller id)
  // winning ties. A strict total order — the pop sequence is unique, so any
  // heap (binary, 4-ary) pops identically.
  bool operator()(const BestPathQueueEntry& a,
                  const BestPathQueueEntry& b) const {
    if (!(a.score == b.score)) return ScoreBetter(a.score, b.score);
    return a.id < b.id;
  }
};

/// Queue entry of lazy successor generation (pure-relevance partition
/// frontiers; docs/algorithms.md, "Lazy successor generation"): the next
/// not-yet-created child of popped NTD `parent`, at reader slot `slot`, and
/// the `remaining - 1` slots after it in the same uniform run, whose
/// children all have distance `dist`. `order` is the child's place in eager
/// creation order, (parent's per-source pop sequence << 32) | slot ordinal,
/// so score ties break exactly as BestPathQueueBetter's NtdId order did.
struct LazyQueueEntry {
  double dist;
  uint64_t order;
  int64_t slot;
  NtdId parent;
  int32_t remaining;
};
struct LazyQueueBetter {
  // True iff `a` creates its child first: smaller distance (the relevance
  // score is -dist), then earlier eager creation order. A strict total
  // order, like BestPathQueueBetter.
  bool operator()(const LazyQueueEntry& a, const LazyQueueEntry& b) const {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.order < b.order;
  }
};

/// One source's slot in a frontier's scratch: its own queue and per-node
/// tables. Keeping each source's state apart (rather than one merged queue
/// and (source, node)-keyed tables) keeps a heavy source's probes within
/// its own small tables, and makes every source pop exactly as a
/// one-source iterator would.
struct BestPathOrigin {
  QuadHeap<BestPathQueueEntry, BestPathQueueBetter> queue;
  // Lazy mode: the source's next pop, created but held outside any heap,
  // and the continuations that will create the pops after it.
  QuadHeap<LazyQueueEntry, LazyQueueBetter> lazy_queue;
  NtdId head = kInvalidNtd;
  ScoreKey head_score;
  uint32_t pops = 0;  ///< Pop sequence number of the next pop (lazy order).
  // Partition claims, in the frontier's time representation.
  common::FlatEpochMap<temporal::TimeMask> visited_masks;
  common::FlatEpochMap<temporal::IntervalSet> visited;
  common::FlatEpochMap<NodeSubsumption> subsumption;  // Duration ranking.
  graph::NodeId source = graph::kInvalidNode;
  int64_t ntds = 0;           ///< NTDs this source created.
  int64_t nodes_reached = 0;  ///< Distinct nodes it popped.

  void Reset(graph::NodeId new_source) {
    queue.clear();
    lazy_queue.clear();
    head = kInvalidNtd;
    pops = 0;
    visited_masks.Clear();
    visited.Clear();
    subsumption.Clear();
    source = new_source;
    ntds = 0;
    nodes_reached = 0;
  }
};

/// Heap-of-sources entry: a source's next pop score and the source's index
/// in the frontier.
struct BestPathSourceEntry {
  ScoreKey score;
  int32_t origin;
};
struct BestPathSourceBetter {
  // True iff `a` pops first: best score, with the smaller source index
  // winning ties — a strict total order, like BestPathQueueBetter.
  bool operator()(const BestPathSourceEntry& a,
                  const BestPathSourceEntry& b) const {
    if (!(a.score == b.score)) return ScoreBetter(a.score, b.score);
    return a.origin < b.origin;
  }
};

/// Everything a BestPathIterator allocates, pooled per thread.
struct BestPathScratch {
  NtdArena arena;  // Shared by all sources; NTDs carry their origin.
  /// Wide timelines: the time of NTD i. Unused on mask timelines.
  BlockArena<temporal::IntervalSet> wide_times;
  /// Slot i serves source i. Slots past the current frontier's width keep
  /// their capacity for the next wide frontier.
  std::vector<BestPathOrigin> origins;
  QuadHeap<BestPathSourceEntry, BestPathSourceBetter> sources;
  // Wide timelines: per-edge intersection buffer and union double-buffer
  // for visited claims.
  temporal::IntervalSet tmp;
  temporal::IntervalSet tmp2;

  /// Readies the scratch for a frontier over `num_sources` sources; the
  /// iterator then resets each slot (O(1) epoch bumps) as it binds the
  /// slot's source. Table capacity and arena blocks from previous uses are
  /// retained.
  void Reset(size_t num_sources) {
    if (origins.size() < num_sources) origins.resize(num_sources);
    arena.Rewind();
    wide_times.Rewind();
    sources.clear();
  }
};

/// Everything a LabelCorrectingIterator allocates, pooled per thread.
struct LabelCorrectingScratch {
  common::FlatEpochMap<NodeSubsumption> states;
  temporal::IntervalSet tmp;   // Per-edge intersection buffer.
  temporal::IntervalSet tmp2;  // Coverage accumulator in TryKeep.
  temporal::IntervalSet tmp3;  // Subtraction double-buffer for tmp2.

  void Reset() { states.Clear(); }
};

// Pool park limits sized to peak concurrency per thread. A query holds one
// BestPathScratch per keyword, so a handful of parked scratches serves any
// query warm; each one grows to the widest and heaviest frontier it has
// served, so a deeper park list would only pin the memory of past heavy
// queries. A LabelCorrectingIterator still runs one per match node (several
// thousand on the DBLP workload), and its scratches are sized by one
// iterator's touched-node set, so its full park list stays in the tens of
// megabytes.
using BestPathScratchPool = common::ScratchPool<BestPathScratch, 8>;
using LabelCorrectingScratchPool =
    common::ScratchPool<LabelCorrectingScratch, 8192>;

}  // namespace tgks::search

#endif  // TGKS_SEARCH_SEARCH_SCRATCH_H_
