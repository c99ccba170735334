// Flat epoch-versioned hash tables with O(1) bulk reset.
//
// The search iterators need per-NodeId state (visited instants, subsumption
// indexes) that is written for a small working set of nodes per query but
// must be conceptually empty at the start of every query. node-based hash maps pay an allocation per insert and a pointer
// chase per probe; a dense NodeId-indexed array cannot work either, because
// the engine runs thousands of expansions per query concurrently (one per
// match node, each with its own tables) and each would pin O(num_nodes)
// memory. These tables are the middle ground: open-addressing flat arrays
// keyed by hashed NodeId, sized by one expansion's *touched* node set, with
// a parallel epoch stamp whose bump invalidates every slot in O(1).
// Recycled slots keep their payload's heap capacity (vectors keep buffers,
// IntervalSets keep spill storage) across epochs — the core of the
// zero-steady-state-allocation design (see docs/performance.md).

#ifndef TGKS_COMMON_EPOCH_TABLE_H_
#define TGKS_COMMON_EPOCH_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tgks::common {

namespace internal {

/// Fibonacci multiplicative hash; the high bits (taken by the caller's
/// shift) are well mixed even for consecutive keys.
inline uint32_t HashKey(uint32_t key) { return key * 2654435769u; }

}  // namespace internal

/// An open-addressing map from uint32 keys to `V` slots, invalidated as a
/// whole in O(1) by Clear().
///
/// A slot is *live* once Activate() touches its key in the current epoch.
/// Activation of a stale slot runs a caller-supplied reset on the value
/// left behind by a previous epoch (typically `clear()`), so the value's
/// allocated capacity is reused instead of reallocated. Linear probing with
/// a load factor <= 7/8; pointers and references are invalidated by any
/// Activate() that grows the table (Find never grows).
template <typename V>
class FlatEpochMap {
 public:
  /// Live entries in the current epoch.
  uint32_t size() const { return size_; }
  uint32_t capacity() const { return capacity_; }

  /// Invalidates every entry in O(1) (O(capacity) only when the 32-bit
  /// epoch counter wraps, once per ~4 billion clears).
  void Clear() {
    size_ = 0;
    if (++epoch_ == 0) {
      std::fill(epochs_.begin(), epochs_.end(), 0u);
      epoch_ = 1;
    }
  }

  /// Pre-sizes the table for `n` live entries without rehash churn.
  void Reserve(uint32_t n) {
    uint32_t want = capacity_ == 0 ? kMinCapacity : capacity_;
    while (static_cast<uint64_t>(n) * 8 > static_cast<uint64_t>(want) * 7) {
      want *= 2;
    }
    if (want > capacity_) Rehash(want);
  }

  /// The value for `key` if live this epoch, else nullptr.
  const V* Find(uint32_t key) const {
    if (capacity_ == 0) return nullptr;
    uint32_t i = Home(key);
    while (epochs_[i] == epoch_) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & (capacity_ - 1);
    }
    return nullptr;
  }
  V* Find(uint32_t key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }

  /// The value for `key`, inserting it if needed. On the stale -> live
  /// transition, `reset(value)` is invoked with whatever previous-epoch
  /// value occupies the claimed slot, so the caller can clear it while
  /// keeping its capacity.
  template <typename Reset>
  V& Activate(uint32_t key, Reset&& reset) {
    if (capacity_ == 0 ||
        static_cast<uint64_t>(size_ + 1) * 8 > static_cast<uint64_t>(capacity_) * 7) {
      Rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
    }
    uint32_t i = Home(key);
    while (epochs_[i] == epoch_) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & (capacity_ - 1);
    }
    keys_[i] = key;
    epochs_[i] = epoch_;
    ++size_;
    reset(values_[i]);
    return values_[i];
  }

 private:
  static constexpr uint32_t kMinCapacity = 16;

  uint32_t Home(uint32_t key) const {
    return internal::HashKey(key) >> shift_;
  }

  static uint32_t ShiftFor(uint32_t capacity) {
    uint32_t shift = 32;
    while (capacity > 1) {
      capacity >>= 1;
      --shift;
    }
    return shift;
  }

  void Rehash(uint32_t new_capacity) {
    std::vector<uint32_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_epochs = std::move(epochs_);
    std::vector<V> old_values = std::move(values_);
    const uint32_t old_capacity = capacity_;
    keys_.assign(new_capacity, 0u);
    epochs_.assign(new_capacity, 0u);
    values_ = std::vector<V>(new_capacity);
    capacity_ = new_capacity;
    shift_ = ShiftFor(new_capacity);
    for (uint32_t i = 0; i < old_capacity; ++i) {
      if (old_epochs[i] != epoch_) continue;
      uint32_t j = Home(old_keys[i]);
      while (epochs_[j] == epoch_) j = (j + 1) & (capacity_ - 1);
      keys_[j] = old_keys[i];
      epochs_[j] = epoch_;
      values_[j] = std::move(old_values[i]);
    }
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
  uint32_t shift_ = 32;
  uint32_t epoch_ = 1;
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> epochs_;
  std::vector<V> values_;
};

}  // namespace tgks::common

#endif  // TGKS_COMMON_EPOCH_TABLE_H_
