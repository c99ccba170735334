// The result cache (docs/caching.md): normalized request fingerprint ->
// serialized response body, for the serving layer.
//
// The value is the exact byte string the router would have written for an
// uncached request (stats excluded — those bodies carry per-run wall
// times), so a hit is bit-identical to a miss by construction. Keys are the
// router's canonical fingerprint of everything that can affect the answer:
// canonical query text, effective k and bound, and any explicit match
// lists. Deadlines are deliberately NOT in the key — only complete
// responses are cached, and a complete answer is a valid answer under any
// deadline.
//
// Storage is a byte-budget LRU: each entry costs EntryBytes(key, body,
// read set), and Insert evicts least-recently-used entries until the budget
// holds. Bodies are immutable and shared, so a Lookup's pointer stays valid
// after the entry is evicted and readers never race eviction.
//
// Live graphs (docs/caching.md, "Read sets"): every entry records the
// snapshot generation its search was pinned to and the newest generation
// it is known to be valid at, plus its read set — the nodes the search
// expanded, each with its slack, and its keywords. Publish() logs each
// publish's change set in a ring of the last kPublishLogLength publishes.
// A lookup pinned at a later generation checks only the logged change sets
// since the entry was last validated: if none touches the read set the
// entry is carried forward, else it is erased. A change set touches it by
// sharing a word, or by naming an expanded node with an increment no
// larger than the node's slack. A lookup pinned before the entry's own
// generation never hits. A touching change set is the only way an entry
// goes stale: the graph model only adds elements and validity. On a static
// graph every entry and lookup sits at generation 0, nothing is ever
// published, and an entry leaves only through the byte budget.
//
// Every operation takes one mutex: the cache is probed once per request,
// not per pop, so the lock is cheap next to the search a hit saves, and it
// keeps the map, the recency list, the publish log and the stats coherent.

#ifndef TGKS_CACHE_RESULT_CACHE_H_
#define TGKS_CACHE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/read_set.h"

namespace tgks::obs {
class Counter;
class Gauge;
}  // namespace tgks::obs

namespace tgks::cache {

/// Point-in-time snapshot of the cache's activity.
struct CacheStats {
  int64_t hits = 0;
  /// Hits on an entry first stored at an earlier snapshot generation than
  /// the lookup's: answers carried across publishes.
  int64_t carried_hits = 0;
  /// Change sets an entry was carried past although they named one of its
  /// nodes: every increment there exceeded the node's slack.
  int64_t carried_past_touch = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t oversized = 0;       ///< Bodies too large to store at all.
  int64_t entries = 0;         ///< Current resident entries.
  int64_t bytes = 0;           ///< Current accounted bytes.
  int64_t read_set_bytes = 0;  ///< The part of `bytes` read sets hold.

  int64_t lookups() const { return hits + misses; }
  double HitRate() const {
    const int64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

class ResultCache {
 public:
  /// One cached HTTP response body.
  using Body = std::shared_ptr<const std::string>;

  /// How many publishes' change sets the cache remembers. An entry last
  /// validated before the oldest of them is dropped at its next lookup.
  /// On social-http-live no carried hit reaches back more than 128
  /// publishes (docs/caching.md, "The log's length").
  static constexpr size_t kPublishLogLength = 256;

  /// `byte_budget` <= 0 stores nothing (every Insert is oversized); lookups
  /// are still counted, so the miss traffic stays observable.
  explicit ResultCache(int64_t byte_budget);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Accounted cost of one entry: the body, the key, the read set as
  /// stored, and a fixed estimate of the map, list and shared_ptr overhead.
  static int64_t EntryBytes(const std::string& key, const std::string& body,
                            const ReadSet& read_set = {}) {
    return static_cast<int64_t>(sizeof(std::string) + 96 + key.size() +
                                body.size()) +
           StoredReadSet::Bytes(read_set);
  }

  /// Returns the body cached under `key` that is valid at snapshot
  /// generation `snapshot`, refreshing its recency, or nullptr. An entry
  /// the publish log shows a change to is erased.
  Body Lookup(const std::string& key, uint64_t snapshot = 0);

  /// Stores `body`, computed on snapshot generation `snapshot` after
  /// reading `read_set`, evicting LRU entries until the budget holds.
  /// These cases leave the map as it was: a body whose cost alone exceeds
  /// the budget (counted as oversized), and a key whose resident entry is
  /// valid at `snapshot` or newer than it. A resident entry the publish log
  /// shows a change to is replaced.
  void Insert(const std::string& key, Body body, uint64_t snapshot = 0,
              ReadSet read_set = {});

  /// Publish-hook entry: logs what the publish of snapshot generation
  /// `snapshot` changed. O(change set); entries are checked lazily, at
  /// lookup. Generations are expected in order; a gap forgets the log.
  void Publish(uint64_t snapshot, ReadSet changes);

  CacheStats stats() const;

 private:
  /// An entry's read set as stored: its nodes as a bitmap over [first id,
  /// last id], so one probe per changed node is a bit test. A bitmap costs
  /// at most the graph's node count in bits (1.9 KB on the 15,000-node
  /// social graph), against 10.6 KB of ids for a social-http-live query's
  /// 2,650 expanded nodes. When some slack is finite, each node also keeps
  /// one byte: its slack rounded up to a multiple of the entry's step,
  /// found through a count of the set bits before each bitmap word.
  class StoredReadSet {
   public:
    /// `read_set.nodes` must be sorted and unique.
    explicit StoredReadSet(ReadSet read_set);
    /// Accounted bytes of `read_set` in its stored form.
    static int64_t Bytes(const ReadSet& read_set);
    int64_t bytes() const;

    /// How a change set meets the stored set.
    enum class Overlap {
      kNone,       ///< No shared word or node.
      kPastSlack,  ///< Shared nodes only, each beyond its slack.
      kChanged,    ///< A shared word, or a shared node within its slack.
    };
    Overlap Check(const ReadSet& changes) const;

   private:
    /// The stored slack of the node at bitmap bit `bit`: +inf, or its slack
    /// rounded up, never below it.
    double Slack(uint64_t bit) const;

    int32_t first_ = 0;  ///< The id of bit 0 of bits_.
    std::vector<uint64_t> bits_;
    /// Per word of bits_: the set bits before it. Empty with slack_.
    std::vector<uint32_t> ranks_;
    /// Per node, in id order: its slack in steps of step_, or
    /// kInfiniteSlack. Empty when no slack is finite.
    std::vector<uint8_t> slack_;
    double step_ = 0;
    std::vector<std::string> words_;
  };

  struct Entry {
    Body body;
    StoredReadSet read_set;
    int64_t bytes = 0;
    uint64_t from_gen = 0;           ///< Snapshot the search ran on.
    uint64_t validated_through = 0;  ///< Newest snapshot known valid.
    std::list<const std::string*>::iterator recency;
  };
  using EntryMap = std::unordered_map<std::string, Entry>;

  /// Whether `entry` is valid at `snapshot` >= its from_gen, extending its
  /// validated range when the log shows no change to its read set.
  enum class Validity { kValid, kChanged, kUnknown };
  Validity ValidateLocked(Entry& entry, uint64_t snapshot);
  void EraseLocked(EntryMap::iterator it);

  const int64_t byte_budget_;
  // Registry instruments, {level="result"}; the registry owns them.
  obs::Counter* const hits_;
  obs::Counter* const misses_;
  obs::Counter* const insertions_;
  obs::Counter* const evictions_;
  obs::Gauge* const bytes_gauge_;

  mutable std::mutex mu_;
  EntryMap entries_;
  /// Keys of entries_ (which owns them), front = most recently used.
  std::list<const std::string*> lru_;
  int64_t bytes_ = 0;
  int64_t read_set_bytes_ = 0;
  CacheStats stats_;
  /// Change sets of publishes log_first_..log_last_, at generation %
  /// kPublishLogLength; empty while log_last_ < log_first_.
  std::vector<ReadSet> log_;
  uint64_t log_first_ = 1;
  uint64_t log_last_ = 0;
};

}  // namespace tgks::cache

#endif  // TGKS_CACHE_RESULT_CACHE_H_
