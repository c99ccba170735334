// Unit tests for the QueryTrace ring buffer and the SearchStats payload
// helpers, plus trace-shape regression checks against a real iterator.

#include <string>

#include <gtest/gtest.h>

#include "obs/query_trace.h"
#include "obs/search_stats.h"
#include "search/best_path_iterator.h"
#include "testutil/paper_graphs.h"

namespace tgks::obs {
namespace {

TEST(QueryTraceTest, RecordsInOrderBelowCapacity) {
  QueryTrace trace(8);
  trace.Record(TraceEventKind::kPop, 3, 0, 1.5);
  trace.Record(TraceEventKind::kExpand, 4, 0, 2.5);
  trace.Record(TraceEventKind::kDedupHit, 4, -1);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0);
  EXPECT_EQ(events[0].kind, TraceEventKind::kPop);
  EXPECT_EQ(events[0].node, 3);
  EXPECT_EQ(events[0].iter, 0);
  EXPECT_EQ(events[0].value, 1.5);
  EXPECT_EQ(events[1].kind, TraceEventKind::kExpand);
  EXPECT_EQ(events[2].iter, -1);
  EXPECT_EQ(trace.total_recorded(), 3);
  EXPECT_EQ(trace.dropped(), 0);
}

TEST(QueryTraceTest, OverwritesOldestWhenFull) {
  QueryTrace trace(4);
  for (int i = 0; i < 10; ++i) {
    trace.Record(TraceEventKind::kPop, i, 0, static_cast<double>(i));
  }
  EXPECT_EQ(trace.total_recorded(), 10);
  EXPECT_EQ(trace.dropped(), 6);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the newest four survive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].seq, 6 + i);
    EXPECT_EQ(events[static_cast<size_t>(i)].node, 6 + i);
  }
}

TEST(QueryTraceTest, ResetClearsForReuse) {
  QueryTrace trace(4);
  trace.Record(TraceEventKind::kPrune, 1, 2);
  trace.Reset();
  EXPECT_EQ(trace.total_recorded(), 0);
  EXPECT_EQ(trace.dropped(), 0);
  EXPECT_TRUE(trace.Events().empty());
  trace.Record(TraceEventKind::kKeywordHit, 5, -1, 3.0);
  ASSERT_EQ(trace.Events().size(), 1u);
  EXPECT_EQ(trace.Events()[0].seq, 0);  // Sequence restarts.
}

TEST(QueryTraceTest, EventRenderingIsStable) {
  TraceEvent ev;
  ev.seq = 12;
  ev.kind = TraceEventKind::kPop;
  ev.node = 4;
  ev.iter = 0;
  ev.value = 2.5;
  EXPECT_EQ(ev.ToString(), "seq=12 pop node=4 iter=0 value=2.5");
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kDedupHit), "dedup-hit");
  EXPECT_EQ(TraceEventKindName(TraceEventKind::kKeywordHit), "keyword-hit");
}

TEST(QueryTraceTest, ToStringReportsDrops) {
  QueryTrace trace(2);
  trace.Record(TraceEventKind::kPop, 0, 0);
  trace.Record(TraceEventKind::kPop, 1, 0);
  trace.Record(TraceEventKind::kPop, 2, 0);
  const std::string text = trace.ToString();
  EXPECT_NE(text.find("2 events"), std::string::npos);
  EXPECT_NE(text.find("1 older events dropped"), std::string::npos);
}

TEST(QueryTraceTest, SourceNtdRecordsNoExpandEvent) {
  // Regression: the iterator used to log a kExpand event for the source NTD
  // it seeds itself with, making traces claim an expansion that never
  // happened. Constructing an iterator must record nothing, and over a full
  // drain every kExpand must correspond to an NTD created by expansion —
  // ntds_pushed minus the seed.
  testutil::SocialNetworkIds ids;
  const graph::TemporalGraph g = testutil::MakeSocialNetworkGraph(&ids);
  QueryTrace trace(4096);
  search::BestPathIterator::Options options;
  options.trace = &trace;
  options.trace_iter = 0;
  search::BestPathIterator iter(g, ids.mary, options);
  EXPECT_TRUE(trace.Events().empty())
      << "construction must not record events; got "
      << trace.Events()[0].ToString();

  while (iter.Next() != search::kInvalidNtd) {
  }
  const auto events = trace.Events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, TraceEventKind::kPop)
      << "the first event must be the source pop, got "
      << events[0].ToString();
  int64_t expands = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEventKind::kExpand) ++expands;
  }
  EXPECT_EQ(expands, iter.stats().ntds_pushed - 1);
}

TEST(SearchStatsTest, MergeSumsAndTakesHighWaterMax) {
  SearchStats a;
  a.prunes = 10;
  a.interval_ops = 20;
  a.heap_high_water = 7;
  SearchStats b;
  b.prunes = 5;
  b.interval_ops = 2;
  b.heap_high_water = 3;
  a.Merge(b);
  EXPECT_EQ(a.prunes, 15);
  EXPECT_EQ(a.interval_ops, 22);
  EXPECT_EQ(a.heap_high_water, 7);  // Max, not sum.
  // Max flows the other way too.
  SearchStats c;
  c.heap_high_water = 11;
  a.Merge(c);
  EXPECT_EQ(a.heap_high_water, 11);
}

TEST(SearchStatsTest, ToStringMentionsEveryField) {
  SearchStats s;
  s.prunes = 1;
  s.interval_ops = 2;
  const std::string text = s.ToString();
  EXPECT_NE(text.find("prunes=1"), std::string::npos);
  EXPECT_NE(text.find("interval_ops=2"), std::string::npos);
  EXPECT_NE(text.find("heap_high_water=0"), std::string::npos);
}

}  // namespace
}  // namespace tgks::obs
