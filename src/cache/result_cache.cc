#include "cache/result_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace tgks::cache {

namespace {

const obs::LabelSet& ResultLevel() {
  static const obs::LabelSet labels = {{"level", "result"}};
  return labels;
}

/// Whether two sorted word lists share a word (each holds a query's
/// keywords or one publish's label words: a handful).
bool WordsIntersect(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  for (const std::string& word : a) {
    if (std::binary_search(b.begin(), b.end(), word)) return true;
  }
  return false;
}

int64_t WordBytes(const std::vector<std::string>& words) {
  int64_t bytes = 0;
  for (const std::string& word : words) {
    bytes += static_cast<int64_t>(sizeof(std::string) + word.size());
  }
  return bytes;
}

/// 64-bit words of a bitmap over the sorted ids [front, back].
size_t BitmapWords(const std::vector<int32_t>& nodes) {
  return nodes.empty()
             ? 0
             : static_cast<size_t>(nodes.back() - nodes.front()) / 64 + 1;
}

/// The stored code of an infinite slack; codes below it count steps.
constexpr uint8_t kInfiniteSlack = 255;
constexpr double kMaxSlackSteps = kInfiniteSlack - 1;

/// Whether `read_set` stores a slack byte per node: it has a value per
/// node and some value is finite. Otherwise every node's slack is +inf.
bool StoresSlack(const ReadSet& read_set) {
  return read_set.values.size() == read_set.nodes.size() &&
         std::any_of(read_set.values.begin(), read_set.values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

int64_t ResultCache::StoredReadSet::Bytes(const ReadSet& read_set) {
  const size_t words = BitmapWords(read_set.nodes);
  int64_t bytes = static_cast<int64_t>(words * sizeof(uint64_t));
  if (StoresSlack(read_set)) {
    bytes += static_cast<int64_t>(words * sizeof(uint32_t) +
                                  read_set.nodes.size());
  }
  return bytes + WordBytes(read_set.words);
}

ResultCache::StoredReadSet::StoredReadSet(ReadSet read_set)
    : bits_(BitmapWords(read_set.nodes), 0),
      words_(std::move(read_set.words)) {
  if (read_set.nodes.empty()) return;
  first_ = read_set.nodes.front();
  for (const int32_t node : read_set.nodes) {
    const uint32_t bit = static_cast<uint32_t>(node - first_);
    bits_[bit / 64] |= uint64_t{1} << (bit % 64);
  }
  if (!StoresSlack(read_set)) return;
  ranks_.resize(bits_.size());
  uint32_t before = 0;
  for (size_t w = 0; w < bits_.size(); ++w) {
    ranks_[w] = before;
    before += static_cast<uint32_t>(std::popcount(bits_[w]));
  }
  // The grid spans the largest finite slack in kMaxSlackSteps steps. Each
  // slack rounds UP to the grid, so a stored slack is never below the
  // true one and rounding can only turn a carry into an eviction.
  double largest = 0;
  for (const double v : read_set.values) {
    if (std::isfinite(v)) largest = std::max(largest, v);
  }
  step_ = largest / kMaxSlackSteps;
  if (step_ * kMaxSlackSteps < largest) {
    step_ = std::nextafter(step_, std::numeric_limits<double>::infinity());
  }
  slack_.reserve(read_set.values.size());
  for (const double v : read_set.values) {
    uint8_t code = kInfiniteSlack;
    if (!std::isfinite(v)) {
      // Stays infinite.
    } else if (v <= 0) {  // Every finite slack, when step_ is 0.
      code = 0;
    } else {
      double steps = std::min(std::ceil(v / step_), kMaxSlackSteps);
      // The division may have rounded down; the top step covers `largest`.
      while (steps * step_ < v && steps < kMaxSlackSteps) ++steps;
      code = static_cast<uint8_t>(steps);
    }
    slack_.push_back(code);
  }
}

int64_t ResultCache::StoredReadSet::bytes() const {
  return static_cast<int64_t>(bits_.size() * sizeof(uint64_t) +
                              ranks_.size() * sizeof(uint32_t) +
                              slack_.size()) +
         WordBytes(words_);
}

double ResultCache::StoredReadSet::Slack(uint64_t bit) const {
  if (slack_.empty()) return std::numeric_limits<double>::infinity();
  const uint64_t word = bits_[bit / 64];
  const uint64_t below = word & ((uint64_t{1} << (bit % 64)) - 1);
  const uint8_t code =
      slack_[ranks_[bit / 64] + static_cast<uint32_t>(std::popcount(below))];
  return code == kInfiniteSlack ? std::numeric_limits<double>::infinity()
                                : code * step_;
}

ResultCache::StoredReadSet::Overlap ResultCache::StoredReadSet::Check(
    const ReadSet& changes) const {
  if (WordsIntersect(words_, changes.words)) return Overlap::kChanged;
  const bool increments = changes.values.size() == changes.nodes.size();
  Overlap overlap = Overlap::kNone;
  for (size_t i = 0; i < changes.nodes.size(); ++i) {
    const int32_t node = changes.nodes[i];
    if (node < first_) continue;
    const uint64_t bit = static_cast<uint64_t>(node - first_);
    if (bit / 64 >= bits_.size() ||
        ((bits_[bit / 64] >> (bit % 64)) & 1) == 0) {
      continue;
    }
    // A new child at the node's distance + increment lies beyond every
    // frontier's final top only when the increment exceeds the slack.
    if (!increments || changes.values[i] <= Slack(bit)) {
      return Overlap::kChanged;
    }
    overlap = Overlap::kPastSlack;
  }
  return overlap;
}

ResultCache::ResultCache(int64_t byte_budget)
    : byte_budget_(byte_budget),
      hits_(obs::GlobalMetrics().GetCounter(
          "tgks_cache_hits_total",
          "Cache lookups served from the cache, by level.", ResultLevel())),
      misses_(obs::GlobalMetrics().GetCounter(
          "tgks_cache_misses_total", "Cache lookups that missed, by level.",
          ResultLevel())),
      insertions_(obs::GlobalMetrics().GetCounter(
          "tgks_cache_insertions_total", "Entries inserted, by level.",
          ResultLevel())),
      evictions_(obs::GlobalMetrics().GetCounter(
          "tgks_cache_evictions_total",
          "Entries evicted by the byte budget, by level.", ResultLevel())),
      bytes_gauge_(obs::GlobalMetrics().GetGauge(
          "tgks_cache_bytes", "Resident accounted bytes, by level.",
          ResultLevel())),
      log_(kPublishLogLength) {}

ResultCache::Validity ResultCache::ValidateLocked(Entry& entry,
                                                  uint64_t snapshot) {
  if (snapshot <= entry.validated_through) return Validity::kValid;
  // The publish hook runs just after the snapshot swap, so a request can
  // pin a generation the log has not recorded yet.
  if (snapshot > log_last_) return Validity::kUnknown;
  if (entry.validated_through + 1 < log_first_) return Validity::kChanged;
  int64_t past_slack = 0;
  for (uint64_t g = entry.validated_through + 1; g <= snapshot; ++g) {
    switch (entry.read_set.Check(log_[g % kPublishLogLength])) {
      case StoredReadSet::Overlap::kChanged:
        return Validity::kChanged;
      case StoredReadSet::Overlap::kPastSlack:
        ++past_slack;
        break;
      case StoredReadSet::Overlap::kNone:
        break;
    }
  }
  entry.validated_through = snapshot;
  stats_.carried_past_touch += past_slack;
  return Validity::kValid;
}

void ResultCache::EraseLocked(EntryMap::iterator it) {
  bytes_ -= it->second.bytes;
  read_set_bytes_ -= it->second.read_set.bytes();
  lru_.erase(it->second.recency);
  entries_.erase(it);
}

ResultCache::Body ResultCache::Lookup(const std::string& key,
                                      uint64_t snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  Validity validity = Validity::kUnknown;
  if (it != entries_.end() && snapshot >= it->second.from_gen) {
    validity = ValidateLocked(it->second, snapshot);
    if (validity == Validity::kChanged) {
      EraseLocked(it);
      bytes_gauge_->Set(bytes_);
    }
  }
  if (validity != Validity::kValid) {
    ++stats_.misses;
    misses_->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.recency);
  ++stats_.hits;
  if (it->second.from_gen < snapshot) ++stats_.carried_hits;
  hits_->Increment();
  return it->second.body;
}

void ResultCache::Insert(const std::string& key, Body body, uint64_t snapshot,
                         ReadSet read_set) {
  const int64_t bytes = EntryBytes(key, *body, read_set);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& resident = it->second;
    if (snapshot < resident.from_gen) return;  // Keep the newer one.
    if (ValidateLocked(resident, snapshot) == Validity::kValid) {
      lru_.splice(lru_.begin(), lru_, resident.recency);
      return;
    }
    EraseLocked(it);  // Superseded by this newer answer.
  }
  if (bytes > byte_budget_) {
    ++stats_.oversized;
    bytes_gauge_->Set(bytes_);
    return;
  }
  const auto [inserted, fresh] = entries_.emplace(
      key, Entry{body, StoredReadSet(std::move(read_set)), bytes, snapshot,
                 snapshot, {}});
  lru_.push_front(&inserted->first);
  inserted->second.recency = lru_.begin();
  read_set_bytes_ += inserted->second.read_set.bytes();
  bytes_ += bytes;
  ++stats_.insertions;
  insertions_->Increment();
  while (bytes_ > byte_budget_ && lru_.size() > 1) {
    EraseLocked(entries_.find(*lru_.back()));
    ++stats_.evictions;
    evictions_->Increment();
  }
  bytes_gauge_->Set(bytes_);
}

void ResultCache::Publish(uint64_t snapshot, ReadSet changes) {
  std::lock_guard<std::mutex> lock(mu_);
  // A gap leaves generations unaccounted for: forget everything before it,
  // so no entry validates across the gap.
  if (snapshot != log_last_ + 1) log_first_ = snapshot;
  log_last_ = snapshot;
  if (log_last_ - log_first_ + 1 > kPublishLogLength) {
    log_first_ = log_last_ - kPublishLogLength + 1;
  }
  log_[snapshot % kPublishLogLength] = std::move(changes);
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats out = stats_;
  out.entries = static_cast<int64_t>(entries_.size());
  out.bytes = bytes_;
  out.read_set_bytes = read_set_bytes_;
  return out;
}

}  // namespace tgks::cache
