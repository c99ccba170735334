// ResultCache tests: the byte-budget LRU (eviction order, recency
// promotion, oversized rejection, insert-keeps-existing convergence,
// eviction safety for outstanding readers), the stats snapshot, the
// generational invalidation contract — a producer that started under
// generation G must not be able to resurrect its answer once InvalidateAll
// has moved the cache past G, on one thread or many — and read-set
// validation across publishes (docs/caching.md, "Read sets"): an entry is
// carried to a later snapshot only while no logged change set touches its
// read set — shares a word, or names a node with an increment no larger
// than the node's slack.

#include "cache/result_cache.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tgks::cache {
namespace {

std::shared_ptr<const std::string> Val(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

// A body whose entry under `key` costs exactly `bytes` (bytes must exceed
// ResultCache::EntryBytes(key, "")).
std::shared_ptr<const std::string> Sized(const std::string& key,
                                         int64_t bytes) {
  return Val(std::string(
      static_cast<size_t>(bytes - ResultCache::EntryBytes(key, "")), 'x'));
}

// One budget unit: every sized entry below costs a multiple of it.
constexpr int64_t kUnit = 200;

TEST(ResultCacheTest, LookupMissThenHit) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", Val("alpha"), cache.generation());
  const auto got = cache.Lookup("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "alpha");

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, ResultCache::EntryBytes("a", "alpha"));
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedToHoldBudget) {
  ResultCache cache(3 * kUnit);
  cache.Insert("a", Sized("a", kUnit), 0);
  cache.Insert("b", Sized("b", kUnit), 0);
  cache.Insert("c", Sized("c", kUnit), 0);
  // Budget full at three units; inserting d must evict a (the oldest).
  cache.Insert("d", Sized("d", kUnit), 0);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.bytes, 3 * kUnit);
}

TEST(ResultCacheTest, LookupPromotesRecency) {
  ResultCache cache(3 * kUnit);
  cache.Insert("a", Sized("a", kUnit), 0);
  cache.Insert("b", Sized("b", kUnit), 0);
  cache.Insert("c", Sized("c", kUnit), 0);
  // Touch a so b becomes the LRU victim.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("d", Sized("d", kUnit), 0);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
}

TEST(ResultCacheTest, OneInsertCanEvictSeveral) {
  ResultCache cache(4 * kUnit);
  cache.Insert("a", Sized("a", kUnit), 0);
  cache.Insert("b", Sized("b", kUnit), 0);
  cache.Insert("c", Sized("c", kUnit), 0);
  cache.Insert("big", Sized("big", 7 * kUnit / 2), 0);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("big"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 3);
  EXPECT_EQ(cache.stats().bytes, 7 * kUnit / 2);
}

TEST(ResultCacheTest, OversizedValueIsReturnedButNotStored) {
  ResultCache cache(2 * kUnit);
  cache.Insert("a", Sized("a", kUnit), 0);
  const auto body = Sized("huge", 100 * kUnit);
  const auto huge = cache.Insert("huge", body, 0);
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(huge, body);  // Caller still gets its value back.
  EXPECT_EQ(cache.Lookup("huge"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);  // Nothing was evicted for it.
  EXPECT_EQ(cache.stats().oversized, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(ResultCacheTest, ZeroBudgetStoresNothingButCountsTraffic) {
  ResultCache cache(0);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", Val("a"), 0);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().oversized, 1);
}

TEST(ResultCacheTest, DuplicateInsertKeepsExistingValue) {
  // Two racers compute the same key; the first insert must win so both end
  // up sharing one object (and accounted bytes don't double).
  ResultCache cache(1 << 20);
  const auto first = cache.Insert("k", Val("first"), 0);
  const auto second = cache.Insert("k", Val("second"), 0);
  EXPECT_EQ(*second, "first");
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().insertions, 1);
  EXPECT_EQ(cache.stats().bytes, ResultCache::EntryBytes("k", "first"));
}

TEST(ResultCacheTest, EvictedValueStaysValidForHolders) {
  ResultCache cache(kUnit);
  const auto alpha = Sized("a", kUnit);
  const auto held = cache.Insert("a", alpha, 0);
  cache.Insert("b", Sized("b", kUnit), 0);  // Evicts a.
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*held, *alpha);  // The shared_ptr keeps the value alive.
}

TEST(ResultCacheTest, InvalidateAllDropsEverything) {
  ResultCache cache(1 << 20);
  cache.Insert("a", Val("a"), 0);
  cache.Insert("b", Val("b"), 0);
  cache.InvalidateAll();
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(ResultCacheTest, StatsHitRate) {
  CacheStats stats;
  EXPECT_EQ(stats.HitRate(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.75);
}

TEST(ResultCacheTest, InsertThenLookup) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup("fp"), nullptr);
  cache.Insert("fp", Val("{\"status\":\"ok\"}"), cache.generation());
  const auto got = cache.Lookup("fp");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "{\"status\":\"ok\"}");
}

TEST(ResultCacheTest, InvalidateAllClearsAndBumpsGeneration) {
  ResultCache cache(1 << 20);
  cache.Insert("fp", Val("old"), cache.generation());
  EXPECT_EQ(cache.generation(), 0u);
  EXPECT_EQ(cache.InvalidateAll(), 1u);
  EXPECT_EQ(cache.generation(), 1u);
  EXPECT_EQ(cache.invalidations(), 1);
  EXPECT_EQ(cache.Lookup("fp"), nullptr);
}

TEST(ResultCacheTest, StaleProducerCannotResurrectOldAnswer) {
  ResultCache cache(1 << 20);
  // A slow search began under generation 0...
  const uint64_t started_at = cache.generation();
  // ...the graph advanced an epoch while it ran...
  cache.InvalidateAll();
  // ...so its insert must be dropped on the floor.
  cache.Insert("fp", Val("pre-invalidation"), started_at);
  EXPECT_EQ(cache.Lookup("fp"), nullptr);

  // A search started under the NEW generation inserts fine.
  cache.Insert("fp", Val("fresh"), cache.generation());
  const auto got = cache.Lookup("fp");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "fresh");
}

TEST(ResultCacheTest, RepeatedInvalidationKeepsCounting) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.InvalidateAll(), 1u);
  EXPECT_EQ(cache.InvalidateAll(), 2u);
  EXPECT_EQ(cache.InvalidateAll(), 3u);
  EXPECT_EQ(cache.invalidations(), 3);
}

TEST(ResultCacheTest, ByteBudgetEvictsBodies) {
  // Each 64-byte body under a one-byte key costs about 190 bytes; a
  // 256-byte budget holds one such entry but not two.
  ResultCache cache(256);
  cache.Insert("a", Val(std::string(64, 'a')), 0);
  cache.Insert("b", Val(std::string(64, 'b')), 0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 2);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_LE(stats.bytes, 256);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
}

// Producers stamp each body with the generation they started under, while
// one thread invalidates. Whatever a Lookup returns must come from a
// generation no older than the one current just before that Lookup: an
// insert from before an invalidation never survives it.
TEST(ResultCacheTest, ConcurrentInsertsNeverSurviveInvalidation) {
  ResultCache cache(1 << 20);
  constexpr int kProducers = 3;
  constexpr int kRounds = 2000;
  constexpr int kKeys = 16;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> stale_hits{0};
  std::atomic<int64_t> fresh_hits{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&cache, &stale_hits, &fresh_hits, p] {
      for (int i = 0; i < kRounds; ++i) {
        const std::string key = "k" + std::to_string((i * 7 + p) % kKeys);
        const uint64_t before = cache.generation();
        if (const auto hit = cache.Lookup(key)) {
          if (std::stoull(*hit) < before) {
            stale_hits.fetch_add(1);
          } else {
            fresh_hits.fetch_add(1);
          }
          continue;
        }
        // A miss: "compute" the answer under the generation seen now, then
        // insert it — possibly after an invalidation has moved on.
        const uint64_t started_at = cache.generation();
        std::this_thread::yield();
        cache.Insert(key, Val(std::to_string(started_at)), started_at);
      }
    });
  }
  threads.emplace_back([&cache, &stop] {
    while (!stop.load()) {
      cache.InvalidateAll();
      std::this_thread::yield();
    }
  });
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  stop.store(true);
  threads.back().join();

  EXPECT_EQ(stale_hits.load(), 0);
  // Every resident body was stamped with the final generation.
  const uint64_t final_generation = cache.generation();
  for (int k = 0; k < kKeys; ++k) {
    if (const auto hit = cache.Lookup("k" + std::to_string(k))) {
      EXPECT_EQ(std::stoull(*hit), final_generation);
    }
  }
  // Every Lookup was counted once, as a hit or a miss.
  EXPECT_EQ(cache.stats().lookups(), kProducers * kRounds + kKeys);
  EXPECT_GE(cache.stats().hits, fresh_hits.load());
}

ReadSet Nodes(std::vector<int32_t> nodes) {
  ReadSet set;
  set.nodes = std::move(nodes);
  return set;
}

ReadSet Words(std::vector<std::string> words) {
  ReadSet set;
  set.words = std::move(words);
  return set;
}

// Every id from `first` to `last` in steps of `step`.
std::vector<int32_t> Ids(int32_t first, int32_t last, int32_t step) {
  std::vector<int32_t> ids;
  for (int32_t id = first; id <= last; id += step) ids.push_back(id);
  return ids;
}

// A read set is checked against a change set by node, at both ends of its
// bitmap, between and beyond them, and by word.
TEST(ResultCacheTest, ReadSetIntersection) {
  const ReadSet read{Ids(1000, 3000, 2), {"john", "mary"}, {}};
  const auto expect = [&](const ReadSet& changes, bool touches) {
    ResultCache cache(1 << 20);
    cache.Insert("q", Val("body"), 0, 0, read);
    cache.Publish(1, changes);
    EXPECT_EQ(cache.Lookup("q", 1) == nullptr, touches);
  };
  expect(Nodes({3000}), true);
  expect(Nodes({1000}), true);
  expect(Nodes({1, 3, 1002, 1 << 20}), true);
  expect(Nodes({1, 3, 1001, 2999, 3001, 1 << 20}), false);
  expect(Nodes({999}), false);
  expect(Words({"mary"}), true);
  expect(Words({"ann", "maryann"}), false);
  expect(ReadSet{}, false);
}

TEST(ResultCacheTest, ReadSetIsChargedAsABitmapOverItsRange) {
  const ReadSet wide{Ids(0, 99000, 1000), {}, {}};
  const ReadSet narrow{Ids(1000, 3000, 2), {"w"}, {}};
  const int64_t base = ResultCache::EntryBytes("k", "b");
  // 99,001 ids span 1,547 words of 64 bits; 2,001 ids span 32.
  EXPECT_EQ(ResultCache::EntryBytes("k", "b", wide) - base,
            static_cast<int64_t>(1547 * sizeof(uint64_t)));
  EXPECT_EQ(ResultCache::EntryBytes("k", "b", narrow) - base,
            static_cast<int64_t>(32 * sizeof(uint64_t) + sizeof(std::string) +
                                 1));
  EXPECT_EQ(ResultCache::EntryBytes("k", "b", Words({})), base);
}

TEST(ResultCacheTest, PublishThatMissesTheReadSetCarriesTheEntry) {
  ResultCache cache(1 << 20);
  cache.Insert("q", Val("body"), cache.generation(), 0, ReadSet{{3, 4}, {}, {}});
  cache.Publish(1, Nodes({7}));  // An in-edge to a node the search never popped.
  cache.Publish(2, ReadSet{});   // A compaction.
  const auto got = cache.Lookup("q", 2);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "body");
  // Validated through 2 now: a request still pinned at 1 hits too.
  EXPECT_NE(cache.Lookup("q", 1), nullptr);
  EXPECT_NE(cache.Lookup("q", 0), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.carried_hits, 2);  // At 2 and at 1; the hit at 0 is not.
}

TEST(ResultCacheTest, PublishThatTouchesTheReadSetErasesTheEntry) {
  ResultCache cache(1 << 20);
  cache.Insert("nodes", Val("a"), 0, 0, ReadSet{{3, 4}, {}, {}});
  cache.Insert("words", Val("b"), 0, 0, ReadSet{{3}, {"mary"}, {}});
  cache.Publish(1, ReadSet{{4}, {"perfbench"}, {}});
  EXPECT_EQ(cache.Lookup("nodes", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 1);  // Erased, not just missed.
  ASSERT_NE(cache.Lookup("words", 1), nullptr);
  cache.Publish(2, Words({"mary"}));
  EXPECT_EQ(cache.Lookup("words", 2), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  EXPECT_EQ(cache.stats().read_set_bytes, 0);
}

TEST(ResultCacheTest, OlderPinnedRequestNeverHitsNewerEntry) {
  ResultCache cache(1 << 20);
  cache.Publish(1, Nodes({1}));
  cache.Publish(2, Nodes({2}));
  // A search pinned at generation 2 stored its answer...
  cache.Insert("q", Val("at 2"), 0, 2, Nodes({5}));
  // ...which may hold the writes of 1 and 2: a request pinned at 1 misses,
  // and its own insert does not displace the newer entry.
  EXPECT_EQ(cache.Lookup("q", 1), nullptr);
  const auto kept = cache.Insert("q", Val("at 1"), 0, 1, Nodes({5}));
  EXPECT_EQ(*kept, "at 1");
  const auto got = cache.Lookup("q", 2);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "at 2");
  EXPECT_EQ(cache.stats().carried_hits, 0);
}

TEST(ResultCacheTest, InsertAfterLaterPublishesIsValidatedThroughTheLog) {
  ResultCache cache(1 << 20);
  // A search pinned at 0 runs while generations 1..3 publish; its insert
  // lands last, stamped with the generation it read.
  cache.Publish(1, Nodes({10}));
  cache.Publish(2, Words({"fresh"}));
  cache.Publish(3, ReadSet{});
  cache.Insert("clean", Val("c"), 0, 0, ReadSet{{1, 2}, {"old"}, {}});
  cache.Insert("dirty", Val("d"), 0, 0, ReadSet{{1, 10}, {}, {}});
  EXPECT_NE(cache.Lookup("clean", 3), nullptr);
  EXPECT_EQ(cache.Lookup("dirty", 3), nullptr);
  EXPECT_EQ(cache.stats().carried_hits, 1);
}

TEST(ResultCacheTest, LookupAheadOfTheLogMissesButKeepsTheEntry) {
  // The publish hook runs just after the snapshot swap: a request can pin
  // generation 1 before the log has its change set.
  ResultCache cache(1 << 20);
  cache.Insert("q", Val("at 0"), 0, 0, Nodes({3}));
  EXPECT_EQ(cache.Lookup("q", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 1);
  cache.Publish(1, Nodes({4}));
  EXPECT_NE(cache.Lookup("q", 1), nullptr);
}

TEST(ResultCacheTest, EntryOlderThanTheLogTailIsDropped) {
  ResultCache cache(1 << 20);
  cache.Insert("q", Val("at 0"), 0, 0, Nodes({3}));
  const uint64_t last = ResultCache::kPublishLogLength + 1;
  for (uint64_t g = 1; g <= last; ++g) cache.Publish(g, Nodes({4}));
  // Generation 1's change set has left the log: nothing vouches for it.
  EXPECT_EQ(cache.Lookup("q", last), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);

  // An entry validated within the log's reach still carries.
  cache.Insert("r", Val("at last"), 0, last, Nodes({3}));
  for (uint64_t g = last + 1; g <= last + ResultCache::kPublishLogLength;
       ++g) {
    cache.Publish(g, Nodes({4}));
  }
  EXPECT_NE(cache.Lookup("r", last + ResultCache::kPublishLogLength),
            nullptr);
}

TEST(ResultCacheTest, PublishGapForgetsTheLog) {
  ResultCache cache(1 << 20);
  cache.Insert("q", Val("at 0"), 0, 0, Nodes({3}));
  cache.Publish(1, Nodes({4}));
  cache.Publish(3, Nodes({4}));  // Generation 2's changes are unknown.
  EXPECT_EQ(cache.Lookup("q", 3), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(ResultCacheTest, ReadSetBytesAreChargedToTheBudget) {
  const ReadSet big{Ids(0, 99000, 1000), {"keyword"}, {}};
  const int64_t read_set_bytes = static_cast<int64_t>(
      1547 * sizeof(uint64_t) + sizeof(std::string) + 7);
  const int64_t with = ResultCache::EntryBytes("a", "x", big);
  EXPECT_EQ(with, ResultCache::EntryBytes("a", "x") + read_set_bytes);

  // Room for one entry with its read set, not two.
  ResultCache cache(with + with / 2);
  cache.Insert("a", Val("x"), 0, 0, big);
  EXPECT_EQ(cache.stats().bytes, with);
  EXPECT_EQ(cache.stats().read_set_bytes, read_set_bytes);
  cache.Insert("b", Val("x"), 0, 0, big);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().read_set_bytes, read_set_bytes);

  // A read set alone can make an entry oversized.
  ResultCache small(ResultCache::EntryBytes("a", "x") + 1);
  small.Insert("a", Val("x"), 0, 0, big);
  EXPECT_EQ(small.stats().oversized, 1);
  EXPECT_EQ(small.stats().entries, 0);
}

// Nodes with a value each: a search's slack, or a publish's increment.
ReadSet Valued(std::vector<int32_t> nodes, std::vector<double> values) {
  ReadSet set;
  set.nodes = std::move(nodes);
  set.values = std::move(values);
  return set;
}

// Whether a publish of `changes` evicts an entry that read `read`; counts
// the carries past a touch into `*past`.
bool Evicts(const ReadSet& read, const ReadSet& changes,
            int64_t* past = nullptr) {
  ResultCache cache(1 << 20);
  cache.Insert("q", Val("body"), 0, 0, read);
  cache.Publish(1, changes);
  const bool evicted = cache.Lookup("q", 1) == nullptr;
  if (past != nullptr) *past = cache.stats().carried_past_touch;
  return evicted;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// A new in-edge whose increment equals the node's slack could make a child
// at exactly the frontier's final top: it evicts. One above it carries.
TEST(ResultCacheTest, SlackEqualIncrementEvicts) {
  int64_t past = -1;
  EXPECT_TRUE(Evicts(Valued({5, 6}, {3.0, 1.0}), Valued({5}, {3.0}), &past));
  EXPECT_EQ(past, 0);
  EXPECT_TRUE(Evicts(Valued({5, 6}, {3.0, 1.0}), Valued({6}, {1.0})));
  EXPECT_TRUE(Evicts(Valued({5}, {0.0}), Valued({5}, {0.0})));
}

TEST(ResultCacheTest, SlackBelowIncrementCarries) {
  int64_t past = -1;
  EXPECT_FALSE(Evicts(Valued({5, 6}, {3.0, 1.0}), Valued({5}, {3.5}), &past));
  EXPECT_EQ(past, 1);
  EXPECT_FALSE(Evicts(Valued({5, 6}, {3.0, 1.0}), Valued({6}, {1.5})));
  EXPECT_FALSE(Evicts(Valued({5}, {0.0}), Valued({5}, {0.25})));
  // A change set that misses the read set is no carry past a touch.
  EXPECT_FALSE(Evicts(Valued({5}, {3.0}), Valued({7}, {0.0}), &past));
  EXPECT_EQ(past, 0);
}

TEST(ResultCacheTest, SlackInfiniteEvictsOnAnyTouch) {
  EXPECT_TRUE(Evicts(Valued({5, 6}, {kInf, 1.0}), Valued({5}, {1e300})));
  EXPECT_FALSE(Evicts(Valued({5, 6}, {kInf, 1.0}), Valued({6}, {1e300})));
  // No finite slack at all: no slack bytes are stored, and every node
  // evicts.
  EXPECT_TRUE(Evicts(Valued({5, 6}, {kInf, kInf}), Valued({6}, {1e300})));
  EXPECT_EQ(ResultCache::EntryBytes("k", "b", Valued({5, 6}, {kInf, kInf})),
            ResultCache::EntryBytes("k", "b", Nodes({5, 6})));
}

// Without values on either side, a shared node is a change.
TEST(ResultCacheTest, SlackMissingKeepsThePlainIntersection) {
  EXPECT_TRUE(Evicts(Nodes({5, 6}), Valued({5}, {1e300})));
  EXPECT_TRUE(Evicts(Valued({5, 6}, {3.0, 1.0}), Nodes({5})));
  EXPECT_FALSE(Evicts(Valued({5, 6}, {3.0, 1.0}), Nodes({7})));
  // A shared word is a change whatever the increments.
  ReadSet keyword = Valued({5}, {3.0});
  keyword.words = {"mary"};
  ReadSet labelled = Valued({5}, {100.0});
  labelled.words = {"mary"};
  EXPECT_TRUE(Evicts(keyword, labelled));
}

TEST(ResultCacheTest, SlackOneSmallIncrementAmongLargeEvicts) {
  const ReadSet read = Valued({1, 2, 3}, {5.0, 5.0, 5.0});
  EXPECT_FALSE(Evicts(read, Valued({1, 2, 3}, {100.0, 6.0, 100.0})));
  EXPECT_TRUE(Evicts(read, Valued({1, 2, 3}, {100.0, 4.0, 100.0})));
  EXPECT_TRUE(Evicts(read, Valued({0, 3, 9}, {0.0, 5.0, 0.0})));
  // Every logged change set must pass: one small increment among many
  // publishes evicts.
  ResultCache cache(1 << 20);
  cache.Insert("q", Val("body"), 0, 0, read);
  cache.Publish(1, Valued({1}, {50.0}));
  cache.Publish(2, Valued({2}, {2.0}));
  cache.Publish(3, Valued({3}, {50.0}));
  EXPECT_EQ(cache.Lookup("q", 3), nullptr);
  EXPECT_EQ(cache.stats().carried_past_touch, 0);
}

// Each node's slack is found through the rank counts, across many bitmap
// words, and rounding on the entry's grid only ever evicts more.
TEST(ResultCacheTest, SlackIsFoundPerNodeAcrossBitmapWords) {
  const std::vector<int32_t> ids = Ids(1000, 3000, 3);
  std::vector<double> slack;
  for (size_t i = 0; i < ids.size(); ++i) {
    slack.push_back(i % 11 == 0 ? kInf : static_cast<double>(i % 97) * 0.75);
  }
  ResultCache cache(1 << 20);
  cache.Insert("q", Val("body"), 0, 0, Valued(ids, slack));
  uint64_t generation = 0;
  for (size_t i = 0; i < ids.size(); i += 7) {
    const double above = slack[i] + 0.75;  // Past any rounding up.
    cache.Publish(++generation, Valued({ids[i]}, {above}));
    EXPECT_EQ(cache.Lookup("q", generation) == nullptr, slack[i] == kInf)
        << "node " << ids[i];
    if (slack[i] == kInf) {
      cache.Insert("q", Val("body"), 0, generation, Valued(ids, slack));
    }
  }
  for (size_t i = 1; i < ids.size(); i += 13) {
    cache.Publish(++generation, Valued({ids[i]}, {slack[i]}));
    EXPECT_EQ(cache.Lookup("q", generation), nullptr) << "node " << ids[i];
    cache.Insert("q", Val("body"), 0, generation, Valued(ids, slack));
  }
}

TEST(ResultCacheTest, SlackBytesAreCharged) {
  const std::vector<int32_t> ids = Ids(1000, 3000, 2);
  const std::vector<double> slack(ids.size(), 2.0);
  const int64_t bitmap = ResultCache::EntryBytes("k", "b", Nodes(ids));
  // 2,001 ids span 32 words: a 4-byte rank per word and a byte per node.
  const int64_t with = ResultCache::EntryBytes("k", "b", Valued(ids, slack));
  EXPECT_EQ(with - bitmap,
            static_cast<int64_t>(32 * sizeof(uint32_t) + ids.size()));
  ResultCache cache(1 << 20);
  cache.Insert("q", Val("b"), 0, 0, Valued(ids, slack));
  EXPECT_EQ(cache.stats().bytes, ResultCache::EntryBytes("q", "b",
                                                         Valued(ids, slack)));
  EXPECT_EQ(cache.stats().read_set_bytes,
            static_cast<int64_t>(32 * sizeof(uint64_t) +
                                 32 * sizeof(uint32_t) + ids.size()));
}

TEST(ResultCacheTest, InvalidateAllEmptiesEntriesOfEveryGeneration) {
  ResultCache cache(1 << 20);
  cache.Insert("a", Val("a"), 0, 0, Nodes({1}));
  cache.Publish(1, Nodes({9}));
  ASSERT_NE(cache.Lookup("a", 1), nullptr);  // Carried to 1.
  cache.Insert("b", Val("b"), 0, 1, Nodes({2}));
  EXPECT_EQ(cache.InvalidateAll(), 1u);
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  EXPECT_EQ(cache.stats().read_set_bytes, 0);
  // A search that started before the invalidation cannot refill it, at any
  // snapshot; the log survives, so new entries still carry.
  cache.Insert("a", Val("stale"), 0, 1, Nodes({1}));
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  cache.Insert("a", Val("fresh"), 1, 1, Nodes({1}));
  cache.Publish(2, Nodes({9}));
  EXPECT_NE(cache.Lookup("a", 2), nullptr);
}

// Publishes race lookups and inserts pinned at whatever generation each
// reader last saw. Every change set touches node (generation % 4); a body
// is the generation its producer read, and its read set is that one node.
// A hit for key k at generation G is sound only if no generation in
// (body, G] touched node k.
TEST(ResultCacheTest, ConcurrentPublishesNeverServeAChangedEntry) {
  ResultCache cache(1 << 20);
  constexpr int kReaders = 3;
  constexpr int kRounds = 3000;
  std::atomic<uint64_t> published{0};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> unsound{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cache, &published, &unsound, r] {
      for (int i = 0; i < kRounds; ++i) {
        const int32_t node = (i + r) % 4;
        const std::string key = "k" + std::to_string(node);
        const uint64_t pinned = published.load();
        if (const auto hit = cache.Lookup(key, pinned)) {
          for (uint64_t g = std::stoull(*hit) + 1; g <= pinned; ++g) {
            if (static_cast<int32_t>(g % 4) == node) unsound.fetch_add(1);
          }
          continue;
        }
        cache.Insert(key, Val(std::to_string(pinned)), 0, pinned,
                     Nodes({node}));
      }
    });
  }
  threads.emplace_back([&cache, &published, &stop] {
    for (uint64_t g = 1; !stop.load(); ++g) {
      // The hook runs after the swap: readers may pin g before it is logged.
      published.store(g);
      cache.Publish(g, Nodes({static_cast<int32_t>(g % 4)}));
      std::this_thread::yield();
    }
  });
  for (int r = 0; r < kReaders; ++r) threads[static_cast<size_t>(r)].join();
  stop.store(true);
  threads.back().join();

  EXPECT_EQ(unsound.load(), 0);
  EXPECT_EQ(cache.stats().lookups(), kReaders * kRounds);
}

}  // namespace
}  // namespace tgks::cache
