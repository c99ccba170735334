#include "search/ranking.h"

#include <cassert>
#include <sstream>

namespace tgks::search {

using temporal::IntervalSet;

std::string_view RankFactorName(RankFactor factor) {
  switch (factor) {
    case RankFactor::kRelevance:
      return "relevance";
    case RankFactor::kEndTimeDesc:
      return "end-time";
    case RankFactor::kStartTimeAsc:
      return "start-time";
    case RankFactor::kDurationDesc:
      return "duration";
  }
  return "unknown";
}

std::string RankingSpec::ToString() const {
  std::ostringstream os;
  os << "rank by ";
  for (size_t i = 0; i < factors.size(); ++i) {
    if (i > 0) os << ", ";
    switch (factors[i]) {
      case RankFactor::kRelevance:
        os << "descending order of relevance";
        break;
      case RankFactor::kEndTimeDesc:
        os << "descending order of result end time";
        break;
      case RankFactor::kStartTimeAsc:
        os << "ascending order of result start time";
        break;
      case RankFactor::kDurationDesc:
        os << "descending order of duration";
        break;
    }
  }
  return os.str();
}

ScoreVec MakeScore(const RankingSpec& spec, double weight,
                   const IntervalSet& time) {
  ScoreVec score;
  score.reserve(spec.factors.size());
  for (const RankFactor factor : spec.factors) {
    score.push_back(RankFactorValue(factor, weight, time));
  }
  return score;
}

bool ScoreBetter(const ScoreVec& a, const ScoreVec& b) {
  assert(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return false;
}

ScoreVec BestPossibleScore(const RankingSpec& spec) {
  return ScoreVec(spec.factors.size(),
                  std::numeric_limits<double>::infinity());
}

std::string FormatScore(const RankingSpec& spec, const ScoreVec& score) {
  assert(score.size() == spec.factors.size());
  std::ostringstream os;
  for (size_t i = 0; i < score.size(); ++i) {
    if (i > 0) os << ", ";
    os << RankFactorName(spec.factors[i]) << '=';
    switch (spec.factors[i]) {
      case RankFactor::kRelevance:
        // Display as the paper's 1 / weighted-tree-size.
        os << (score[i] == 0 ? std::numeric_limits<double>::infinity()
                             : 1.0 / -score[i]);
        break;
      case RankFactor::kStartTimeAsc:
        os << -score[i];
        break;
      default:
        os << score[i];
        break;
    }
  }
  return os.str();
}

}  // namespace tgks::search
