// QuadHeap: differential check against std::priority_queue.
//
// The iterators rely on a strong property: with a strict TOTAL order
// comparator, the 4-ary heap's pop sequence is bit-identical to
// std::priority_queue's, because the max element is unique at every pop
// regardless of internal heap shape. The differential tests interleave
// random push/pop traffic and require identical observable behavior at
// every step, with comparators matching the search and Dijkstra queues.

#include <cstdint>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "search/quad_heap.h"

namespace tgks::search {
namespace {

struct Entry {
  double score;
  int64_t id;
};

/// The search-queue shape: better score first, then smaller id — a strict
/// total order when ids are unique.
struct EntryBetter {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }
};

/// std::priority_queue wants "less" (worse-first) ordering.
struct EntryWorse {
  bool operator()(const Entry& a, const Entry& b) const {
    return EntryBetter()(b, a);
  }
};

TEST(QuadHeapTest, BasicPushPopOrder) {
  QuadHeap<Entry, EntryBetter> heap;
  EXPECT_TRUE(heap.empty());
  heap.push({1.0, 3});
  heap.push({5.0, 1});
  heap.push({5.0, 0});  // Ties break toward the smaller id.
  heap.push({2.0, 2});
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.top().id, 0);
  heap.pop();
  EXPECT_EQ(heap.top().id, 1);
  heap.pop();
  EXPECT_EQ(heap.top().id, 2);
  heap.pop();
  EXPECT_EQ(heap.top().id, 3);
  heap.pop();
  EXPECT_TRUE(heap.empty());
}

TEST(QuadHeapTest, ClearKeepsNothingLive) {
  QuadHeap<Entry, EntryBetter> heap;
  for (int i = 0; i < 100; ++i) heap.push({static_cast<double>(i), i});
  heap.clear();
  EXPECT_TRUE(heap.empty());
  heap.push({-1.0, 7});
  EXPECT_EQ(heap.top().id, 7);
}

TEST(QuadHeapTest, DifferentialAgainstPriorityQueue) {
  Rng rng(987654321);
  for (int trial = 0; trial < 20; ++trial) {
    QuadHeap<Entry, EntryBetter> ours;
    std::priority_queue<Entry, std::vector<Entry>, EntryWorse> ref;
    int64_t next_id = 0;
    for (int op = 0; op < 2000; ++op) {
      ASSERT_EQ(ours.empty(), ref.empty());
      ASSERT_EQ(ours.size(), ref.size());
      if (!ours.empty()) {
        // Identical top at EVERY step, not just at drain time.
        ASSERT_EQ(ours.top().score, ref.top().score) << "trial " << trial;
        ASSERT_EQ(ours.top().id, ref.top().id) << "trial " << trial;
      }
      if (ref.empty() || rng.Bernoulli(0.6)) {
        // Coarse scores force plenty of ties onto the id tie-break.
        const Entry e{static_cast<double>(rng.Uniform(8)), next_id++};
        ours.push(e);
        ref.push(e);
      } else {
        ours.pop();
        ref.pop();
      }
    }
    while (!ref.empty()) {
      ASSERT_FALSE(ours.empty());
      ASSERT_EQ(ours.top().id, ref.top().id);
      ours.pop();
      ref.pop();
    }
    EXPECT_TRUE(ours.empty());
  }
}

TEST(QuadHeapTest, ReplaceTopMatchesPopThenPush) {
  // The heap-of-sources shape: a popped source re-enters with a worse (or
  // equal) score under its own id.
  Rng rng(2468);
  for (int trial = 0; trial < 20; ++trial) {
    QuadHeap<Entry, EntryBetter> ours;
    std::priority_queue<Entry, std::vector<Entry>, EntryWorse> ref;
    const int64_t sources = 1 + static_cast<int64_t>(rng.Uniform(300));
    for (int64_t id = 0; id < sources; ++id) {
      const Entry e{static_cast<double>(rng.Uniform(8)), id};
      ours.push(e);
      ref.push(e);
    }
    while (!ref.empty()) {
      ASSERT_EQ(ours.size(), ref.size());
      ASSERT_EQ(ours.top().score, ref.top().score) << "trial " << trial;
      ASSERT_EQ(ours.top().id, ref.top().id) << "trial " << trial;
      const Entry top = ref.top();
      ref.pop();
      if (rng.Bernoulli(0.2)) {
        ours.pop();
        continue;
      }
      const Entry next{top.score - static_cast<double>(rng.Uniform(3)),
                       top.id};
      ours.replace_top(next);
      ref.push(next);
    }
    EXPECT_TRUE(ours.empty());
  }
}

TEST(QuadHeapTest, DifferentialWithDijkstraShapedComparator) {
  // Smallest (dist, node) pops first — the baseline Dijkstra queue.
  struct Dist {
    double dist;
    int32_t node;
  };
  struct DistBetter {
    bool operator()(const Dist& a, const Dist& b) const {
      if (a.dist != b.dist) return a.dist < b.dist;
      return a.node < b.node;
    }
  };
  struct DistWorse {
    bool operator()(const Dist& a, const Dist& b) const {
      return DistBetter()(b, a);
    }
  };
  Rng rng(13);
  QuadHeap<Dist, DistBetter> ours;
  std::priority_queue<Dist, std::vector<Dist>, DistWorse> ref;
  for (int op = 0; op < 5000; ++op) {
    if (ref.empty() || rng.Bernoulli(0.55)) {
      const Dist d{static_cast<double>(rng.Uniform(50)) * 0.5,
                   static_cast<int32_t>(rng.Uniform(1000))};
      ours.push(d);
      ref.push(d);
    } else {
      ASSERT_EQ(ours.top().dist, ref.top().dist);
      // Duplicate (dist, node) pairs are possible here, so the order is a
      // strict weak order only; dist equality is still guaranteed.
      ours.pop();
      ref.pop();
    }
  }
}

}  // namespace
}  // namespace tgks::search
