// Cache-friendly 4-ary max-heap replacing std::priority_queue on the
// search hot path.
//
// A 4-ary heap halves the tree depth of a binary heap, so sift-down — the
// dominant operation under Dijkstra-style workloads (every pop sifts, most
// pushes stop after one level) — touches half as many cache lines; the four
// children of node i are contiguous at 4i+1..4i+4. The backing vector is
// exposed for reuse (clear() keeps capacity), letting the per-iterator
// scratch pool hand back a pre-grown heap.
//
// Pop-order determinism: the iterator's comparator is a strict total order
// (score, then NTD id breaks ties), so the max element is unique at every
// pop and the pop sequence is independent of heap shape or arity — the
// 4-ary heap pops bit-identically to std::priority_queue (see
// quad_heap_test.cc for the differential check).

#ifndef TGKS_SEARCH_QUAD_HEAP_H_
#define TGKS_SEARCH_QUAD_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace tgks::search {

/// Max-heap: `Better(a, b)` true iff `a` must pop before `b`.
/// `Better` must be a strict weak order; a strict TOTAL order additionally
/// guarantees arity-independent pop order.
template <typename Entry, typename Better>
class QuadHeap {
 public:
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  const Entry& top() const {
    assert(!entries_.empty());
    return entries_.front();
  }

  void push(Entry entry) {
    entries_.push_back(std::move(entry));
    SiftUp(entries_.size() - 1);
  }

  void pop() {
    assert(!entries_.empty());
    if (entries_.size() > 1) entries_.front() = std::move(entries_.back());
    entries_.pop_back();
    if (!entries_.empty()) SiftDown(0);
  }

  /// Replaces the top entry with `entry` and restores heap order with one
  /// sift-down: a pop followed by a push at the cost of the pop alone.
  /// Under a strict total order the resulting pop sequence is the same.
  void replace_top(Entry entry) {
    assert(!entries_.empty());
    entries_.front() = std::move(entry);
    SiftDown(0);
  }

  /// Empties the heap but keeps the backing storage for reuse.
  void clear() { entries_.clear(); }

 private:
  static constexpr size_t kArity = 4;

  // Both sifts move a hole instead of swapping: once the first comparison
  // proves movement is needed, the displaced entry is held in a local,
  // parents/children shift one move each, and the entry lands with a single
  // final write — one third of the swap version's traffic on multi-level
  // sifts, and zero moves in the common push-stays-put case. The comparison
  // sequence and the resulting array are identical to the swap formulation,
  // so pop order is unchanged.
  void SiftUp(size_t i) {
    if (i == 0) return;
    size_t parent = (i - 1) / kArity;
    if (!better_(entries_[i], entries_[parent])) return;
    Entry e = std::move(entries_[i]);
    do {
      entries_[i] = std::move(entries_[parent]);
      i = parent;
      parent = (i - 1) / kArity;
    } while (i > 0 && better_(e, entries_[parent]));
    entries_[i] = std::move(e);
  }

  void SiftDown(size_t i) {
    const size_t n = entries_.size();
    size_t best = BestChild(i, n);
    if (best == 0 || !better_(entries_[best], entries_[i])) return;
    Entry e = std::move(entries_[i]);
    do {
      entries_[i] = std::move(entries_[best]);
      i = best;
      best = BestChild(i, n);
    } while (best != 0 && better_(entries_[best], e));
    entries_[i] = std::move(e);
  }

  /// Index of the better_-best child of `i`, or 0 when `i` is a leaf (index
  /// 0 is the root and never anyone's child).
  size_t BestChild(size_t i, size_t n) const {
    const size_t first_child = kArity * i + 1;
    if (first_child >= n) return 0;
    const size_t last_child = std::min(first_child + kArity, n);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (better_(entries_[c], entries_[best])) best = c;
    }
    return best;
  }

  std::vector<Entry> entries_;
  Better better_;
};

}  // namespace tgks::search

#endif  // TGKS_SEARCH_QUAD_HEAP_H_
