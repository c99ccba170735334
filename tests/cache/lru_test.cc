// LruCache unit tests: byte-budget eviction order, recency promotion,
// oversized rejection, insert-keeps-existing convergence, and eviction
// safety for outstanding readers.

#include "cache/lru.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

namespace tgks::cache {
namespace {

std::shared_ptr<const std::string> Val(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(LruCacheTest, LookupMissThenHit) {
  LruCache<std::string, std::string> cache(1024);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", Val("alpha"), 10);
  const auto got = cache.Lookup("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "alpha");

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, 10);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedToHoldBudget) {
  LruCache<std::string, std::string> cache(30);
  cache.Insert("a", Val("a"), 10);
  cache.Insert("b", Val("b"), 10);
  cache.Insert("c", Val("c"), 10);
  // Budget full at 30 bytes; inserting d must evict a (the oldest).
  cache.Insert("d", Val("d"), 10);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.bytes, 30);
}

TEST(LruCacheTest, LookupPromotesRecency) {
  LruCache<std::string, std::string> cache(30);
  cache.Insert("a", Val("a"), 10);
  cache.Insert("b", Val("b"), 10);
  cache.Insert("c", Val("c"), 10);
  // Touch a so b becomes the LRU victim.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("d", Val("d"), 10);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
}

TEST(LruCacheTest, OneInsertCanEvictSeveral) {
  LruCache<std::string, std::string> cache(40);
  cache.Insert("a", Val("a"), 10);
  cache.Insert("b", Val("b"), 10);
  cache.Insert("c", Val("c"), 10);
  cache.Insert("big", Val("big"), 35);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("big"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 3);
  EXPECT_EQ(cache.stats().bytes, 35);
}

TEST(LruCacheTest, OversizedValueIsReturnedButNotStored) {
  LruCache<std::string, std::string> cache(20);
  cache.Insert("a", Val("a"), 10);
  const auto huge = cache.Insert("huge", Val("huge"), 1000);
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(*huge, "huge");  // Caller still gets its value back.
  EXPECT_EQ(cache.Lookup("huge"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);  // Nothing was evicted for it.
  EXPECT_EQ(cache.stats().oversized, 1);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(LruCacheTest, ZeroBudgetStoresNothingButCountsTraffic) {
  LruCache<std::string, std::string> cache(0);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", Val("a"), 1);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().oversized, 1);
}

TEST(LruCacheTest, DuplicateInsertKeepsExistingValue) {
  // Two racers compute the same key; the first insert must win so both end
  // up sharing one object (and accounted bytes don't double).
  LruCache<std::string, std::string> cache(100);
  const auto first = cache.Insert("k", Val("first"), 10);
  const auto second = cache.Insert("k", Val("second"), 10);
  EXPECT_EQ(*second, "first");
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().insertions, 1);
  EXPECT_EQ(cache.stats().bytes, 10);
}

TEST(LruCacheTest, EvictedValueStaysValidForHolders) {
  LruCache<std::string, std::string> cache(10);
  const auto held = cache.Insert("a", Val("alpha"), 10);
  cache.Insert("b", Val("beta"), 10);  // Evicts a.
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*held, "alpha");  // The shared_ptr keeps the value alive.
}

TEST(LruCacheTest, ClearDropsEverything) {
  LruCache<std::string, std::string> cache(100);
  cache.Insert("a", Val("a"), 10);
  cache.Insert("b", Val("b"), 10);
  cache.Clear();
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(CacheStatsTest, HitRateAndToString) {
  CacheStats stats;
  EXPECT_EQ(stats.HitRate(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.75);
}

}  // namespace
}  // namespace tgks::cache
