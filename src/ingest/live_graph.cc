#include "ingest/live_graph.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/timer.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/search_stats.h"

namespace tgks::ingest {

using graph::EdgeId;
using graph::NodeId;
using temporal::IntervalSet;

namespace {

struct IngestMetrics {
  obs::Counter* batches;
  obs::Counter* nodes;
  obs::Counter* edges;
  obs::Counter* rejected;
  obs::Counter* publishes;
  obs::Counter* compactions;
  obs::Gauge* generation;
  obs::Gauge* delta_bytes;
  obs::Histogram* apply_micros;
  obs::Histogram* lock_wait_micros;
  obs::Histogram* compact_micros;

  static IngestMetrics& Get() {
    static IngestMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::GlobalMetrics();
      auto* out = new IngestMetrics;
      out->batches = reg.GetCounter("tgks_ingest_batches_total",
                                    "Ingest batches applied.");
      out->nodes = reg.GetCounter("tgks_ingest_nodes_total",
                                  "Nodes appended through ingest.");
      out->edges = reg.GetCounter("tgks_ingest_edges_total",
                                  "Edges appended through ingest.");
      out->rejected = reg.GetCounter(
          "tgks_ingest_rejected_total",
          "Ingest batches rejected by semantic validation.");
      out->publishes = reg.GetCounter(
          "tgks_snapshot_publishes_total",
          "Snapshot publications (ingest batches plus compactions).");
      out->compactions = reg.GetCounter("tgks_compactions_total",
                                        "Delta-folding compaction runs.");
      out->generation = reg.GetGauge("tgks_snapshot_generation",
                                     "Current snapshot generation.");
      out->delta_bytes = reg.GetGauge(
          "tgks_delta_bytes",
          "Approximate footprint of the uncompacted delta overlay.");
      out->apply_micros = reg.GetHistogram(
          "tgks_ingest_apply_micros",
          "Ingest batch apply+publish time once the writer mutex is held "
          "(microseconds).");
      out->lock_wait_micros = reg.GetHistogram(
          "tgks_ingest_lock_wait_micros",
          "Time an ingest batch waited for the writer mutex, e.g. behind a "
          "compaction rebuild (microseconds).");
      out->compact_micros = reg.GetHistogram(
          "tgks_compaction_rebuild_micros",
          "Compaction rebuild+publish time (microseconds).");
      return out;
    }();
    return *m;
  }
};

void FillError(IngestErrorDetail* error, IngestErrorCode code, int64_t offset,
               std::string message) {
  error->code = code;
  error->field = "edges";
  error->offset = offset;
  error->message = std::move(message);
}

}  // namespace

LiveGraph::LiveGraph(graph::TemporalGraph base, CompactionPolicy policy)
    : policy_(policy) {
  auto snapshot = std::make_shared<GraphSnapshot>();
  snapshot->generation = 0;
  snapshot->graph =
      std::make_shared<const graph::TemporalGraph>(std::move(base));
  snapshot->index =
      std::make_shared<const graph::InvertedIndex>(*snapshot->graph);
  snapshot->overlay = nullptr;
  head_ = std::move(snapshot);
  if (policy_.background) {
    compactor_ = std::thread([this] { BackgroundLoop(); });
  }
}

LiveGraph::~LiveGraph() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

GraphSnapshotHandle LiveGraph::Acquire() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_;
}

uint64_t LiveGraph::generation() const {
  std::lock_guard<std::mutex> lock(head_mu_);
  return head_->generation;
}

temporal::TimePoint LiveGraph::timeline_length() const {
  return Acquire()->graph->timeline_length();
}

CompactionStats LiveGraph::compaction_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compaction_stats_;
}

IngestStats LiveGraph::ingest_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ingest_stats_;
}

size_t LiveGraph::delta_bytes() const {
  const GraphSnapshotHandle snap = Acquire();
  return snap->overlay != nullptr ? snap->overlay->ApproxBytes() : 0;
}

void LiveGraph::Publish(std::shared_ptr<const GraphSnapshot> next,
                        cache::ReadSet changes) {
  const uint64_t generation = next->generation;
  {
    std::lock_guard<std::mutex> lock(head_mu_);
    head_ = std::move(next);
  }
  if (on_publish_) on_publish_(generation, std::move(changes));
}

Result<uint64_t> LiveGraph::Apply(const IngestBatch& batch,
                                  IngestErrorDetail* error) {
  Stopwatch lock_wait;
  lock_wait.Start();
  std::lock_guard<std::mutex> lock(mu_);
  lock_wait.Stop();
  IngestMetrics::Get().lock_wait_micros->Observe(
      static_cast<int64_t>(lock_wait.seconds() * 1e6));
  Stopwatch timer;
  timer.Start();
  GraphSnapshotHandle snap;
  {
    std::lock_guard<std::mutex> head_lock(head_mu_);
    snap = head_;
  }
  const graph::GraphView view = snap->view();
  const NodeId base_total = view.num_nodes();

  // Resolve and clamp edges against the snapshot + this batch. All
  // validation completes before anything is published: a rejected batch
  // leaves the live graph untouched (all-or-nothing).
  std::vector<graph::Node> new_nodes;
  new_nodes.reserve(batch.nodes.size());
  for (const IngestNode& node : batch.nodes) {
    graph::Node out;
    out.label = node.label;
    out.weight = node.weight;
    out.validity = node.validity;
    new_nodes.push_back(std::move(out));
  }

  const auto validity_of = [&](NodeId id) -> const IntervalSet& {
    if (id >= base_total) {
      return new_nodes[static_cast<size_t>(id - base_total)].validity;
    }
    return view.node(id).validity;
  };

  std::vector<graph::Edge> new_edges;
  new_edges.reserve(batch.edges.size());
  for (size_t i = 0; i < batch.edges.size(); ++i) {
    const IngestEdge& edge = batch.edges[i];
    const int64_t offset = static_cast<int64_t>(i);
    graph::Edge out;
    out.src = edge.src_new >= 0
                  ? base_total + static_cast<NodeId>(edge.src_new)
                  : edge.src;
    out.dst = edge.dst_new >= 0
                  ? base_total + static_cast<NodeId>(edge.dst_new)
                  : edge.dst;
    // Absolute references must name nodes that already exist; clients
    // cannot know the ids of nodes they are concurrently inserting, which
    // is exactly what the batch-relative form is for.
    if (edge.src_new < 0 && (out.src < 0 || out.src >= base_total)) {
      std::ostringstream msg;
      msg << "\"src\" " << out.src << " does not exist (have " << base_total
          << " nodes)";
      FillError(error, IngestErrorCode::kBadNodeRef, offset, msg.str());
      IngestMetrics::Get().rejected->Increment();
      return Status::InvalidArgument(error->message);
    }
    if (edge.dst_new < 0 && (out.dst < 0 || out.dst >= base_total)) {
      std::ostringstream msg;
      msg << "\"dst\" " << out.dst << " does not exist (have " << base_total
          << " nodes)";
      FillError(error, IngestErrorCode::kBadNodeRef, offset, msg.str());
      IngestMetrics::Get().rejected->Increment();
      return Status::InvalidArgument(error->message);
    }
    out.weight = edge.weight;
    // GraphBuilder kClamp semantics: omitted validity defaults to the
    // endpoint intersection, explicit validity is clamped to it, and an
    // edge that could never exist is rejected.
    const IntervalSet endpoint_common =
        validity_of(out.src).Intersect(validity_of(out.dst));
    out.validity = edge.validity.has_value()
                       ? edge.validity->Intersect(endpoint_common)
                       : endpoint_common;
    if (out.validity.IsEmpty()) {
      std::ostringstream msg;
      msg << "edge " << out.src << "->" << out.dst
          << " is never valid within its endpoints' lifetimes";
      FillError(error, IngestErrorCode::kEdgeNeverValid, offset, msg.str());
      IngestMetrics::Get().rejected->Increment();
      return Status::InvalidArgument(error->message);
    }
    new_edges.push_back(std::move(out));
  }

  cache::ReadSet changes;
  if (on_publish_) {
    // A frontier that popped `dst` at distance d would reach the new edge's
    // source at d + edge weight + source weight: each `dst` keeps the least
    // such increment of the batch.
    std::vector<std::pair<NodeId, double>> increments;
    increments.reserve(new_edges.size());
    for (const graph::Edge& edge : new_edges) {
      const double src_weight =
          edge.src >= base_total
              ? new_nodes[static_cast<size_t>(edge.src - base_total)].weight
              : view.node(edge.src).weight;
      increments.emplace_back(edge.dst, edge.weight + src_weight);
    }
    std::sort(increments.begin(), increments.end());
    for (const auto& [dst, increment] : increments) {
      if (!changes.nodes.empty() && changes.nodes.back() == dst) continue;
      changes.nodes.push_back(dst);
      changes.values.push_back(increment);
    }
    for (const graph::Node& node : new_nodes) {
      for (std::string& word : TokenizeWords(node.label)) {
        changes.words.push_back(std::move(word));
      }
    }
    cache::SortUnique(&changes.words);
  }

  auto next = std::make_shared<GraphSnapshot>();
  next->generation = ++generation_;
  next->graph = snap->graph;
  next->index = snap->index;
  next->overlay =
      graph::DeltaOverlay::Extend(*snap->graph, snap->overlay.get(),
                                  std::move(new_nodes), std::move(new_edges));
  if (view.overlay() == nullptr) {  // The first publish since a compaction.
    first_uncompacted_publish_ = std::chrono::steady_clock::now();
  }
  ingest_stats_.batches += 1;
  ingest_stats_.nodes_added += static_cast<int64_t>(batch.nodes.size());
  ingest_stats_.edges_added += static_cast<int64_t>(batch.edges.size());
  {
    IngestMetrics& m = IngestMetrics::Get();
    m.batches->Increment();
    m.nodes->Increment(static_cast<int64_t>(batch.nodes.size()));
    m.edges->Increment(static_cast<int64_t>(batch.edges.size()));
    m.publishes->Increment();
    m.generation->Set(static_cast<int64_t>(next->generation));
    m.delta_bytes->Set(static_cast<int64_t>(next->overlay->ApproxBytes()));
  }
  const uint64_t generation = next->generation;
  Publish(std::move(next), std::move(changes));
  timer.Stop();
  IngestMetrics::Get().apply_micros->Observe(
      static_cast<int64_t>(timer.seconds() * 1e6));
  stop_cv_.notify_all();  // Wake the compactor to re-check the size policy.
  return generation;
}

Result<uint64_t> LiveGraph::Compact(bool manual) {
  std::lock_guard<std::mutex> lock(mu_);
  return CompactLocked(manual);
}

Result<uint64_t> LiveGraph::CompactLocked(bool manual) {
  GraphSnapshotHandle snap;
  {
    std::lock_guard<std::mutex> head_lock(head_mu_);
    snap = head_;
  }
  const graph::GraphView view = snap->view();
  if (view.overlay() == nullptr) return snap->generation;  // Nothing to fold.
  Stopwatch rebuild;
  rebuild.Start();

  // Full rebuild: every element re-enters the builder in id order, so the
  // compacted graph assigns identical ids and its CSR enumerates edges in
  // the identical order — a query cannot tell a compacted snapshot from a
  // graph that was built with the data from day one.
  graph::GraphBuilder builder(view.timeline_length());
  for (NodeId n = 0; n < view.num_nodes(); ++n) {
    const graph::Node& node = view.node(n);
    builder.AddNode(node.label, node.validity, node.weight);
  }
  for (EdgeId e = 0; e < view.num_edges(); ++e) {
    const graph::Edge& edge = view.edge(e);
    builder.AddEdge(edge.src, edge.dst, edge.validity, edge.weight);
  }
  Result<graph::TemporalGraph> rebuilt = builder.Build();
  if (!rebuilt.ok()) {
    // Unreachable in practice: every element was validated at ingest.
    return rebuilt.status();
  }

  auto next = std::make_shared<GraphSnapshot>();
  next->generation = ++generation_;
  next->graph =
      std::make_shared<const graph::TemporalGraph>(*std::move(rebuilt));
  next->index =
      std::make_shared<const graph::InvertedIndex>(*next->graph);
  next->overlay = nullptr;
  rebuild.Stop();

  Stopwatch swap;
  swap.Start();
  const uint64_t generation = next->generation;
  Publish(std::move(next), cache::ReadSet{});
  swap.Stop();

  compaction_stats_.runs += 1;
  if (manual) compaction_stats_.manual_runs += 1;
  compaction_stats_.nodes_folded += view.overlay()->num_delta_nodes();
  compaction_stats_.edges_folded += view.overlay()->num_delta_edges();
  compaction_stats_.last_rebuild_seconds = rebuild.seconds();
  compaction_stats_.last_swap_seconds = swap.seconds();
  {
    IngestMetrics& m = IngestMetrics::Get();
    m.compactions->Increment();
    m.publishes->Increment();
    m.generation->Set(static_cast<int64_t>(generation));
    m.delta_bytes->Set(0);
    m.compact_micros->Observe(
        static_cast<int64_t>(rebuild.seconds() * 1e6));
  }
  return generation;
}

bool LiveGraph::ShouldCompactLocked() const {
  GraphSnapshotHandle snap;
  {
    std::lock_guard<std::mutex> head_lock(head_mu_);
    snap = head_;
  }
  if (snap->view().overlay() == nullptr) return false;
  if (policy_.max_delta_bytes > 0 &&
      snap->overlay->ApproxBytes() >= policy_.max_delta_bytes) {
    return true;
  }
  if (policy_.max_delta_age_ms > 0) {
    const auto age = std::chrono::steady_clock::now() -
                     first_uncompacted_publish_;
    if (age >= std::chrono::milliseconds(policy_.max_delta_age_ms)) {
      return true;
    }
  }
  return false;
}

void LiveGraph::BackgroundLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    stop_cv_.wait_for(lock,
                      std::chrono::milliseconds(policy_.poll_interval_ms));
    if (stopping_) return;
    if (ShouldCompactLocked()) {
      // Errors are unreachable for validated data; ignore defensively (the
      // delta stays in place and the next poll retries).
      (void)CompactLocked(/*manual=*/false);
    }
  }
}

}  // namespace tgks::ingest
