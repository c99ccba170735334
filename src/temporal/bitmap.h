// Bitmap: a word-parallel dynamic bitset over the dataset timeline.
//
// Used for visited(n, t) bookkeeping in the best path iterator and as the
// row representation of the Algorithm-2 NTD bitmap index.

#ifndef TGKS_TEMPORAL_BITMAP_H_
#define TGKS_TEMPORAL_BITMAP_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tgks::temporal {

class TimeMask;  // time_mask.h

/// Fixed-size bitset with bulk boolean operations.
///
/// Bits beyond `size()` in the last word are kept zero (the class maintains
/// this invariant so popcounts and reductions need no masking).
class Bitmap {
 public:
  /// All-zero bitmap of `size` bits. `size` may be 0.
  explicit Bitmap(int64_t size = 0);

  Bitmap(const Bitmap&) = default;
  Bitmap& operator=(const Bitmap&) = default;
  Bitmap(Bitmap&&) noexcept = default;
  Bitmap& operator=(Bitmap&&) noexcept = default;

  /// Number of bits.
  int64_t size() const { return size_; }

  /// Sets bit i to 1.
  void Set(int64_t i);

  /// Sets bits [lo, hi] (inclusive) to 1.
  void SetRange(int64_t lo, int64_t hi);

  /// Clears bit i.
  void Clear(int64_t i);

  /// Reads bit i.
  bool Test(int64_t i) const;

  /// Sets all bits to 0.
  void Reset();

  /// Resizes to `size` bits, all zero, reusing the existing word storage
  /// when it is large enough (the destination-passing partner of the sized
  /// constructor — no allocation once the bitmap has reached its high-water
  /// capacity).
  void ResizeAndClear(int64_t size);

  /// Resizes to `size` <= 128 bits holding the instants of `mask` below
  /// `size`: a two-word fill, reusing the word storage like ResizeAndClear.
  void AssignMask(int64_t size, const TimeMask& mask);

  /// Sets all bits to 1.
  void Fill();

  /// this &= other. Sizes must match.
  void And(const Bitmap& other);

  /// this |= other. Sizes must match.
  void Or(const Bitmap& other);

  /// this &= ~other. Sizes must match.
  void AndNot(const Bitmap& other);

  /// True iff at least one bit is 1.
  bool Any() const;

  /// True iff no bit is 1.
  bool None() const { return !Any(); }

  /// True iff every bit is 1.
  bool All() const;

  /// Number of 1-bits.
  int64_t Count() const;

  /// True iff every 1-bit of this is also set in `other` (this ⊆ other).
  bool IsSubsetOf(const Bitmap& other) const;

  /// True iff the two bitmaps share a 1-bit.
  bool Intersects(const Bitmap& other) const;

  /// Index of the first 1-bit at or after `from`; -1 if none.
  int64_t FindFirstSet(int64_t from) const;

  /// Index of the first 0-bit at or after `from`; -1 if none.
  int64_t FindFirstClear(int64_t from) const;

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// "0101..." rendering, bit 0 first. Intended for tests.
  std::string ToString() const;

 private:
  static constexpr int64_t kWordBits = 64;

  int64_t NumWords() const { return static_cast<int64_t>(words_.size()); }
  void ClearPadding();

  int64_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace tgks::temporal

#endif  // TGKS_TEMPORAL_BITMAP_H_
