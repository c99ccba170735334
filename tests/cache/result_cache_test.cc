// ResultCache tests: the byte-budget LRU (eviction order, recency
// promotion, oversized rejection, insert-keeps-existing convergence,
// eviction safety for outstanding readers), the stats snapshot, and the
// generational invalidation contract — a producer that started under
// generation G must not be able to resurrect its answer once InvalidateAll
// has moved the cache past G, on one thread or many.

#include "cache/result_cache.h"

#include <atomic>
#include <cstdint>
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

}  // namespace
}  // namespace tgks::cache
