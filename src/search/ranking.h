// Ranking factors and score algebra (paper §2.3, §3).
//
// Every supported factor is monotonically non-increasing under edge
// expansion (Corollary 3.3): extending a path grows its weighted size and
// shrinks its valid time, so relevance drops, end time cannot grow, start
// time cannot shrink, duration cannot grow. That monotonicity is what lets
// one Dijkstra-style iterator serve all of them.
//
// Scores are represented as vectors of doubles normalized so that LARGER IS
// BETTER in every component (relevance -> -weight, end time -> end,
// start time -> -start, duration -> duration); lexicographic comparison
// implements combined ranking functions ("<RF>*" in the grammar).

#ifndef TGKS_SEARCH_RANKING_H_
#define TGKS_SEARCH_RANKING_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "temporal/interval_set.h"

namespace tgks::search {

/// The ranking factors of Definition 2.1.
enum class RankFactor {
  kRelevance,     ///< Descending relevance = ascending weighted tree size.
  kEndTimeDesc,   ///< Descending result end time.
  kStartTimeAsc,  ///< Ascending result start time.
  kDurationDesc,  ///< Descending result duration.
};

/// Stable name ("relevance", "end-time", "start-time", "duration").
std::string_view RankFactorName(RankFactor factor);

/// Fixed-capacity, allocation-free list of distinct ranking factors.
///
/// Duplicate pushes are dropped, keeping the first occurrence. That is
/// comparison-invariant: MakeScoreKey applies the identical dedup, because
/// in a lexicographic comparison a repeated component can only differ where
/// its first occurrence already differed. With only distinct factors stored,
/// the four-slot capacity can never overflow, and copying a RankingSpec —
/// which happens once per spawned iterator, thousands of times per query —
/// touches no heap.
class FactorList {
 public:
  static constexpr size_t kCapacity = 4;  // Distinct RankFactor values.

  constexpr FactorList() = default;
  constexpr FactorList(std::initializer_list<RankFactor> factors) {
    for (const RankFactor f : factors) push_back(f);
  }

  constexpr void push_back(RankFactor f) {
    for (size_t i = 0; i < size_; ++i) {
      if (factors_[i] == f) return;  // Duplicate: ranking-equivalent drop.
    }
    factors_[size_++] = f;
  }
  constexpr void clear() { size_ = 0; }

  constexpr bool empty() const { return size_ == 0; }
  constexpr size_t size() const { return size_; }
  constexpr RankFactor operator[](size_t i) const {
    assert(i < size_);
    return factors_[i];
  }
  constexpr RankFactor front() const {
    assert(size_ > 0);
    return factors_[0];
  }
  constexpr const RankFactor* begin() const { return factors_.data(); }
  constexpr const RankFactor* end() const { return factors_.data() + size_; }

  friend constexpr bool operator==(const FactorList& a, const FactorList& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.factors_[i] != b.factors_[i]) return false;
    }
    return true;
  }

 private:
  std::array<RankFactor, kCapacity> factors_{};
  size_t size_ = 0;
};

/// An ordered list of factors; earlier factors dominate. Defaults to pure
/// relevance, the classic keyword-search ranking.
struct RankingSpec {
  FactorList factors = {RankFactor::kRelevance};

  /// The dominating factor.
  RankFactor primary() const { return factors.front(); }

  /// True iff the primary factor is temporal, which switches the engine to
  /// keyword round-robin iterator scheduling (§4.1).
  bool PrimaryIsTemporal() const {
    return primary() != RankFactor::kRelevance;
  }

  /// "rank by descending order of duration, ..." rendering.
  std::string ToString() const;
};

/// A larger-is-better score vector under some RankingSpec.
using ScoreVec = std::vector<double>;

/// A ScoreVec with inline storage — the priority-queue key of the search
/// hot path (no heap allocation per NTD push).
///
/// Capacity is the number of DISTINCT RankFactors; MakeScoreKey dedups the
/// spec's factor list (keeping first occurrences), which never fits fewer
/// specs: repeated factors produce repeated components, and in a
/// lexicographic comparison a repeated component can only differ where its
/// first occurrence already differed, so dedup preserves both the order and
/// equality that MakeScore's full vectors define.
class ScoreKey {
 public:
  static constexpr uint32_t kMaxFactors = 4;

  ScoreKey() = default;

  uint32_t size() const { return size_; }
  double operator[](size_t i) const {
    assert(i < size_);
    return values_[i];
  }

  void Append(double value) {
    assert(size_ < kMaxFactors);
    values_[size_++] = value;
  }

  friend bool operator==(const ScoreKey& a, const ScoreKey& b) {
    if (a.size_ != b.size_) return false;
    for (uint32_t i = 0; i < a.size_; ++i) {
      if (a.values_[i] != b.values_[i]) return false;
    }
    return true;
  }

 private:
  std::array<double, kMaxFactors> values_{};
  uint32_t size_ = 0;
};

/// Score of a path/result with total weight `weight` and valid time `time`.
/// `time` may be empty only for pure-relevance specs (temporal components
/// then score -inf).
ScoreVec MakeScore(const RankingSpec& spec, double weight,
                   const temporal::IntervalSet& time);

/// Larger-is-better component value of one factor. `Time` is IntervalSet
/// or TimeMask (any set with IsEmpty / Start / End / Duration); both give
/// identical values for the same instants.
template <typename Time>
inline double RankFactorValue(RankFactor factor, double weight,
                              const Time& time) {
  constexpr double kWorst = -std::numeric_limits<double>::infinity();
  switch (factor) {
    case RankFactor::kRelevance:
      return -weight;
    case RankFactor::kEndTimeDesc:
      return time.IsEmpty() ? kWorst : static_cast<double>(time.End());
    case RankFactor::kStartTimeAsc:
      return time.IsEmpty() ? kWorst : -static_cast<double>(time.Start());
    case RankFactor::kDurationDesc:
      return time.IsEmpty() ? kWorst : static_cast<double>(time.Duration());
  }
  return kWorst;
}

/// ScoreKey variant of MakeScore: same comparison semantics (see ScoreKey),
/// no allocation. Inline — this runs once per NTD push, the hottest call
/// site in the engine, and inlining lets the compiler collapse the factor
/// switch against the iterator's fixed spec.
template <typename Time>
inline ScoreKey MakeScoreKey(const RankingSpec& spec, double weight,
                             const Time& time) {
  // Dedup repeated factors (the grammar allows "duration, duration") so
  // every spec fits the inline capacity of one-per-distinct-factor; see
  // ScoreKey for why this preserves comparison semantics.
  ScoreKey key;
  uint32_t seen = 0;
  for (const RankFactor factor : spec.factors) {
    const uint32_t bit = 1u << static_cast<uint32_t>(factor);
    if (seen & bit) continue;
    seen |= bit;
    key.Append(RankFactorValue(factor, weight, time));
  }
  return key;
}

/// Lexicographic comparison; true iff `a` is strictly better than `b`.
bool ScoreBetter(const ScoreVec& a, const ScoreVec& b);
/// Inline: the source and queue heap comparators call it on every sift.
inline bool ScoreBetter(const ScoreKey& a, const ScoreKey& b) {
  assert(a.size() == b.size());
  for (uint32_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return false;
}

/// The best conceivable score (+inf everywhere), useful as an initial bound.
ScoreVec BestPossibleScore(const RankingSpec& spec);

/// Renders the score in user units: relevance back to 1/weight, start/end
/// times un-negated.
std::string FormatScore(const RankingSpec& spec, const ScoreVec& score);

}  // namespace tgks::search

#endif  // TGKS_SEARCH_RANKING_H_
