#include "temporal/bitmap.h"

#include <bit>
#include <cassert>

#include "temporal/time_mask.h"

namespace tgks::temporal {

Bitmap::Bitmap(int64_t size) : size_(size) {
  assert(size >= 0);
  words_.assign(static_cast<size_t>((size + kWordBits - 1) / kWordBits), 0);
}

void Bitmap::Set(int64_t i) {
  assert(i >= 0 && i < size_);
  words_[static_cast<size_t>(i / kWordBits)] |= uint64_t{1}
                                                << (i % kWordBits);
}

void Bitmap::SetRange(int64_t lo, int64_t hi) {
  assert(lo >= 0 && hi < size_ && lo <= hi);
  const int64_t first_word = lo / kWordBits;
  const int64_t last_word = hi / kWordBits;
  const uint64_t lo_mask = ~uint64_t{0} << (lo % kWordBits);
  const uint64_t hi_mask = ~uint64_t{0} >> (kWordBits - 1 - hi % kWordBits);
  if (first_word == last_word) {
    words_[static_cast<size_t>(first_word)] |= lo_mask & hi_mask;
    return;
  }
  words_[static_cast<size_t>(first_word)] |= lo_mask;
  for (int64_t w = first_word + 1; w < last_word; ++w) {
    words_[static_cast<size_t>(w)] = ~uint64_t{0};
  }
  words_[static_cast<size_t>(last_word)] |= hi_mask;
}

void Bitmap::Clear(int64_t i) {
  assert(i >= 0 && i < size_);
  words_[static_cast<size_t>(i / kWordBits)] &=
      ~(uint64_t{1} << (i % kWordBits));
}

bool Bitmap::Test(int64_t i) const {
  assert(i >= 0 && i < size_);
  return (words_[static_cast<size_t>(i / kWordBits)] >> (i % kWordBits)) & 1;
}

void Bitmap::Reset() { words_.assign(words_.size(), 0); }

void Bitmap::ResizeAndClear(int64_t size) {
  assert(size >= 0);
  size_ = size;
  // vector::assign reuses capacity, so repeated calls at or below the
  // high-water size never allocate.
  words_.assign(static_cast<size_t>((size + kWordBits - 1) / kWordBits), 0);
}

void Bitmap::AssignMask(int64_t size, const TimeMask& mask) {
  assert(size <= TimeMask::kCapacity);
  ResizeAndClear(size);
  if (!words_.empty()) words_[0] = mask.lo();
  if (words_.size() > 1) words_[1] = mask.hi();
  ClearPadding();
}

void Bitmap::Fill() {
  words_.assign(words_.size(), ~uint64_t{0});
  ClearPadding();
}

void Bitmap::ClearPadding() {
  const int64_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= ~uint64_t{0} >> (kWordBits - tail);
  }
}

void Bitmap::And(const Bitmap& other) {
  assert(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void Bitmap::Or(const Bitmap& other) {
  assert(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

void Bitmap::AndNot(const Bitmap& other) {
  assert(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
}

bool Bitmap::Any() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

bool Bitmap::All() const {
  if (size_ == 0) return true;
  const int64_t full_words = size_ / kWordBits;
  for (int64_t w = 0; w < full_words; ++w) {
    if (words_[static_cast<size_t>(w)] != ~uint64_t{0}) return false;
  }
  const int64_t tail = size_ % kWordBits;
  if (tail != 0) {
    const uint64_t mask = ~uint64_t{0} >> (kWordBits - tail);
    if ((words_.back() & mask) != mask) return false;
  }
  return true;
}

int64_t Bitmap::Count() const {
  int64_t total = 0;
  for (uint64_t w : words_) total += std::popcount(w);
  return total;
}

bool Bitmap::IsSubsetOf(const Bitmap& other) const {
  assert(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  }
  return true;
}

bool Bitmap::Intersects(const Bitmap& other) const {
  assert(size_ == other.size_);
  for (size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] & other.words_[w]) != 0) return true;
  }
  return false;
}

int64_t Bitmap::FindFirstSet(int64_t from) const {
  if (from < 0) from = 0;
  if (from >= size_) return -1;
  int64_t word = from / kWordBits;
  uint64_t current =
      words_[static_cast<size_t>(word)] & (~uint64_t{0} << (from % kWordBits));
  while (true) {
    if (current != 0) {
      const int64_t bit = word * kWordBits + std::countr_zero(current);
      return bit < size_ ? bit : -1;
    }
    if (++word >= NumWords()) return -1;
    current = words_[static_cast<size_t>(word)];
  }
}

int64_t Bitmap::FindFirstClear(int64_t from) const {
  if (from < 0) from = 0;
  if (from >= size_) return -1;
  int64_t word = from / kWordBits;
  // Pretend padding bits are 1 so they are never reported as clear.
  auto effective = [&](int64_t w) {
    uint64_t v = words_[static_cast<size_t>(w)];
    if (w == NumWords() - 1) {
      const int64_t tail = size_ % kWordBits;
      if (tail != 0) v |= ~uint64_t{0} << tail;
    }
    return v;
  };
  uint64_t current = effective(word) | ((uint64_t{1} << (from % kWordBits)) - 1);
  while (true) {
    if (current != ~uint64_t{0}) {
      const int64_t bit = word * kWordBits + std::countr_zero(~current);
      return bit < size_ ? bit : -1;
    }
    if (++word >= NumWords()) return -1;
    current = effective(word);
  }
}

std::string Bitmap::ToString() const {
  std::string out;
  out.reserve(static_cast<size_t>(size_));
  for (int64_t i = 0; i < size_; ++i) out.push_back(Test(i) ? '1' : '0');
  return out;
}

}  // namespace tgks::temporal
