#include "server/request_router.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "graph/expansion_view.h"
#include "ingest/ingest_batch.h"
#include "ingest/live_graph.h"
#include "obs/metrics.h"
#include "obs/search_stats.h"
#include "server/json_io.h"

namespace tgks::server {

namespace {

/// Path component of the request target (strips any query string).
std::string_view PathOf(const std::string& target) {
  const size_t q = target.find('?');
  return q == std::string::npos ? std::string_view(target)
                                : std::string_view(target).substr(0, q);
}

HttpResponse TextResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "text/plain; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

/// Appends `value` as a base-128 varint: seven bits a byte, low bits
/// first, the high bit set on every byte but the last.
void AppendVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>(value | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

/// Canonical result-cache key (docs/caching.md): everything that can change
/// the response bytes. The query contributes its canonical text (parsed,
/// deduplicated, ToString-normalized), then effective k, the bound
/// override, and any explicit match lists. Deadlines are deliberately
/// excluded — only complete responses are cached, and a complete answer is
/// valid under any deadline. An unset bound encodes as '-' (inherit the
/// executor default) so a request that spells the bound and one that
/// inherits it never alias.
///
/// The engine sorts and deduplicates every match list before reading it,
/// so a list is keyed as its sorted distinct ids, exactly: their count,
/// then each id's gap from the previous one (the first from 0), all as
/// varints. The count ends the list, so two list sequences share a key
/// only if they hold the same ids.
std::string CacheFingerprint(const exec::SingleQuery& single) {
  std::string fp = single.query.query.ToString();
  fp += "\x1f k=";
  fp += std::to_string(single.k);
  fp += "\x1f bound=";
  if (single.bound.has_value()) {
    fp += search::UpperBoundKindName(*single.bound);
  } else {
    fp += '-';
  }
  fp += "\x1f matches=";
  std::vector<graph::NodeId> ids;
  for (const auto& list : single.query.matches) {
    ids.assign(list.begin(), list.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    AppendVarint(ids.size(), &fp);
    graph::NodeId previous = 0;
    for (const graph::NodeId id : ids) {  // Ids are validated non-negative.
      AppendVarint(static_cast<uint64_t>(id - previous), &fp);
      previous = id;
    }
  }
  return fp;
}

/// Writes one table field (obs/search_stats.h) as a member of the object
/// being built: a kSeconds phase time as micros_<phase>, rounded; a kMean
/// not at all.
template <obs::FieldKind kKind, typename T>
void WriteField(std::string_view name, T value, JsonWriter* w) {
  if constexpr (kKind == obs::FieldKind::kSeconds) {
    w->Key("micros_" + std::string(obs::PhaseName(name)));
    w->Int(std::llround(value * 1e6));
  } else if constexpr (kKind != obs::FieldKind::kMean) {
    w->Key(name);
    w->Int(value);
  }
}

/// The "counters" object: the SearchCounters table's counts.
void WriteCounters(const search::SearchCounters& counters, JsonWriter* w) {
  w->BeginObject();
  counters.ForEachField([w]<obs::FieldKind kKind>(std::string_view name,
                                                  auto value) {
    if constexpr (kKind != obs::FieldKind::kSeconds) {
      WriteField<kKind>(name, value, w);
    }
  });
  w->EndObject();
}

/// The "stats" object: SearchStats plus the counters' phase times.
void WriteStats(const search::SearchResponse& response, JsonWriter* w) {
  w->BeginObject();
  response.stats.ForEachField(
      [w]<obs::FieldKind kKind>(std::string_view name, auto value) {
        WriteField<kKind>(name, value, w);
      });
  response.counters.ForEachField(
      [w]<obs::FieldKind kKind>(std::string_view name, auto value) {
        if constexpr (kKind == obs::FieldKind::kSeconds) {
          WriteField<kKind>(name, value, w);
        }
      });
  w->EndObject();
}

bool ParseBoundName(std::string_view name, search::UpperBoundKind* out) {
  if (name == "accurate") {
    *out = search::UpperBoundKind::kAccurate;
  } else if (name == "empirical") {
    *out = search::UpperBoundKind::kEmpirical;
  } else if (name == "average") {
    *out = search::UpperBoundKind::kAverage;
  } else {
    return false;
  }
  return true;
}

}  // namespace

cache::ReadSet SearchReadSet(const exec::BatchQuery& query,
                             std::vector<graph::NodeId> expanded_nodes,
                             std::vector<double> expanded_slack) {
  cache::ReadSet read_set;
  read_set.nodes = std::move(expanded_nodes);
  read_set.values = std::move(expanded_slack);
  if (query.matches.empty()) {
    for (const std::string& keyword : query.query.keywords) {
      read_set.words.push_back(AsciiToLower(keyword));
    }
    cache::SortUnique(&read_set.words);
  }
  return read_set;
}

std::string JsonErrorBody(std::string_view type, std::string_view message) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Key("type");
  w.String(type);
  w.Key("message");
  w.String(message);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string JsonParseErrorBody(const search::ParseErrorDetail& detail) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Key("type");
  w.String("query-parse");
  w.Key("code");
  w.String(search::ParseErrorCodeName(detail.code));
  w.Key("offset");
  w.Int(static_cast<int64_t>(detail.offset));
  w.Key("message");
  w.String(detail.message);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string JsonIngestErrorBody(const ingest::IngestErrorDetail& detail) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Key("type");
  w.String("ingest-validate");
  w.Key("code");
  w.String(ingest::IngestErrorCodeName(detail.code));
  w.Key("field");
  w.String(detail.field);
  w.Key("offset");
  w.Int(detail.offset);
  w.Key("message");
  w.String(detail.message);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string JsonSearchBody(const search::SearchResponse& response,
                           double latency_seconds, bool include_stats) {
  JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String("ok");
  w.Key("stop_reason");
  w.String(search::StopReasonName(response.stop_reason));
  w.Key("exhausted");
  w.Bool(response.exhausted());
  w.Key("truncated");
  w.Bool(response.truncated);
  w.Key("deadline_exceeded");
  w.Bool(response.deadline_exceeded());
  w.Key("cancelled");
  w.Bool(response.cancelled());
  w.Key("result_count");
  w.Int(static_cast<int64_t>(response.results.size()));
  w.Key("results");
  w.BeginArray();
  for (const search::ResultTree& tree : response.results) {
    w.BeginObject();
    w.Key("root");
    w.Int(static_cast<int64_t>(tree.root));
    w.Key("nodes");
    w.BeginArray();
    for (const graph::NodeId node : tree.nodes) {
      w.Int(static_cast<int64_t>(node));
    }
    w.EndArray();
    w.Key("edges");
    w.BeginArray();
    for (const graph::EdgeId edge : tree.edges) {
      w.Int(static_cast<int64_t>(edge));
    }
    w.EndArray();
    w.Key("keyword_nodes");
    w.BeginArray();
    for (const graph::NodeId node : tree.keyword_nodes) {
      w.Int(static_cast<int64_t>(node));
    }
    w.EndArray();
    w.Key("time");
    w.BeginArray();
    for (const temporal::Interval& interval : tree.time.intervals()) {
      w.BeginArray();
      w.Int(static_cast<int64_t>(interval.start));
      w.Int(static_cast<int64_t>(interval.end));
      w.EndArray();
    }
    w.EndArray();
    w.Key("total_weight");
    w.Double(tree.total_weight);
    w.EndObject();
  }
  w.EndArray();
  if (include_stats) {
    w.Key("counters");
    WriteCounters(response.counters, &w);
    w.Key("stats");
    WriteStats(response, &w);
    w.Key("latency_ms");
    w.Double(latency_seconds * 1000.0);
  }
  w.EndObject();
  return w.Take();
}

RequestRouter::RequestRouter(RouterContext context)
    : context_(std::move(context)) {}

void RequestRouter::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  context_.admission->BeginShutdown();
}

bool RequestRouter::Admit(int64_t bytes, ShedReason* why) const {
  return context_.admission->TryAdmit(bytes, why);
}

HttpResponse RequestRouter::ShedResponse(ShedReason shed) const {
  if (shed == ShedReason::kShuttingDown) {
    HttpResponse response = JsonResponse(
        503, JsonErrorBody("draining", "server is shutting down"));
    response.close_connection = true;
    return response;
  }
  const int retry_after = context_.admission->options().retry_after_seconds;
  JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.Key("type");
  w.String("overload");
  w.Key("reason");
  w.String(ShedReasonName(shed));
  w.Key("retry_after_seconds");
  w.Int(retry_after);
  w.EndObject();
  w.EndObject();
  HttpResponse response = JsonResponse(429, w.Take());
  response.extra_headers.emplace_back("retry-after",
                                      std::to_string(retry_after));
  return response;
}

void RequestRouter::CountRequest(const std::string& route, int status) const {
  obs::GlobalMetrics()
      .GetCounter("tgks_http_requests_total",
                  "HTTP requests served, by route and status.",
                  {{"route", route}, {"status", std::to_string(status)}})
      ->Increment();
}

void RequestRouter::CountCoalesced() const {
  obs::GlobalMetrics()
      .GetCounter("tgks_cache_coalesced_total",
                  "Requests coalesced onto an identical in-flight search.")
      ->Increment();
}

HttpResponse RequestRouter::HandleMetrics() const {
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = obs::GlobalMetrics().RenderText();
  return response;
}

HttpResponse RequestRouter::HandleHealthz() const {
  if (draining()) return TextResponse(503, "draining\n");
  return TextResponse(200, "ok\n");
}

HttpResponse RequestRouter::HandleIngest(const HttpRequest& request) const {
  if (context_.live == nullptr) {
    return JsonResponse(
        404, JsonErrorBody("not-found",
                           "live ingest is not enabled (serve with --live)"));
  }
  // Size gate first: a body over the ceiling is refused before any JSON
  // work, so an oversized payload costs the server nothing but the read.
  const int64_t bytes = static_cast<int64_t>(request.body.size());
  if (context_.max_ingest_bytes > 0 && bytes > context_.max_ingest_bytes) {
    JsonWriter w;
    w.BeginObject();
    w.Key("error");
    w.BeginObject();
    w.Key("type");
    w.String("too-large");
    w.Key("max_bytes");
    w.Int(context_.max_ingest_bytes);
    w.Key("message");
    w.String("ingest body exceeds the configured ceiling");
    w.EndObject();
    w.EndObject();
    return JsonResponse(413, w.Take());
  }
  // Ingest shares the search admission budget: its bytes count against
  // --max-inflight-bytes and its slot against --max-queue, so a flood of
  // writes sheds with 429 instead of starving reads (docs/ingest.md).
  ShedReason shed = ShedReason::kNone;
  if (!Admit(bytes, &shed)) return ShedResponse(shed);
  // Admitted: everything below runs synchronously (validation plus an
  // O(delta) overlay copy), so release on every exit path.
  const auto release = [&] { context_.admission->Release(bytes); };

  Result<JsonValue> doc = JsonValue::Parse(request.body);
  if (!doc.ok()) {
    release();
    return JsonResponse(400,
                        JsonErrorBody("json", doc.status().message()));
  }
  ingest::IngestErrorDetail detail;
  std::optional<ingest::IngestBatch> batch = ingest::ParseIngestBatch(
      *doc, context_.live->timeline_length(), &detail);
  if (!batch.has_value()) {
    release();
    return JsonResponse(400, JsonIngestErrorBody(detail));
  }
  if (batch->empty()) {
    // Rejected rather than applied: an empty publish would bump the
    // generation and flush every cache for nothing.
    detail.code = ingest::IngestErrorCode::kBadShape;
    detail.field = "";
    detail.offset = -1;
    detail.message = "batch must contain at least one node or edge";
    release();
    return JsonResponse(400, JsonIngestErrorBody(detail));
  }
  const size_t nodes = batch->nodes.size();
  const size_t edges = batch->edges.size();
  Result<uint64_t> generation = context_.live->Apply(*batch, &detail);
  release();
  if (!generation.ok()) {
    return JsonResponse(400, JsonIngestErrorBody(detail));
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String("ok");
  w.Key("generation");
  w.Int(static_cast<int64_t>(*generation));
  w.Key("nodes_added");
  w.Int(static_cast<int64_t>(nodes));
  w.Key("edges_added");
  w.Int(static_cast<int64_t>(edges));
  w.Key("delta_bytes");
  w.Int(static_cast<int64_t>(context_.live->delta_bytes()));
  w.EndObject();
  HttpResponse response = JsonResponse(200, w.Take());
  // Same header searches carry, so clients can compute how far reads lag
  // the newest published generation from one header.
  response.extra_headers.emplace_back("x-snapshot-generation",
                                      std::to_string(*generation));
  return response;
}

HttpResponse RequestRouter::HandleCompact() const {
  if (context_.live == nullptr) {
    return JsonResponse(
        404, JsonErrorBody("not-found",
                           "live ingest is not enabled (serve with --live)"));
  }
  Result<uint64_t> generation = context_.live->Compact(/*manual=*/true);
  if (!generation.ok()) {
    return JsonResponse(
        500, JsonErrorBody("internal", generation.status().message()));
  }
  const ingest::CompactionStats stats = context_.live->compaction_stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String("ok");
  w.Key("generation");
  w.Int(static_cast<int64_t>(*generation));
  w.Key("runs");
  w.Int(stats.runs);
  w.Key("manual_runs");
  w.Int(stats.manual_runs);
  w.Key("nodes_folded");
  w.Int(stats.nodes_folded);
  w.Key("edges_folded");
  w.Int(stats.edges_folded);
  w.Key("last_rebuild_seconds");
  w.Double(stats.last_rebuild_seconds);
  w.Key("last_swap_seconds");
  w.Double(stats.last_swap_seconds);
  w.Key("delta_bytes");
  w.Int(static_cast<int64_t>(context_.live->delta_bytes()));
  w.EndObject();
  return JsonResponse(200, w.Take());
}

HttpResponse RequestRouter::HandleVarz() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(context_.dataset_name);
  if (context_.graph != nullptr) {
    w.Key("nodes");
    w.Int(static_cast<int64_t>(context_.graph->num_nodes()));
    w.Key("edges");
    w.Int(static_cast<int64_t>(context_.graph->num_edges()));
    w.Key("timeline_length");
    w.Int(static_cast<int64_t>(context_.graph->timeline_length()));
    // The search's time representation, selected from the timeline length
    // (docs/performance.md, "Word-parallel time masks").
    const graph::ExpansionView::LayoutStats& layout =
        context_.graph->expansion_view().layout_stats();
    w.Key("time_representation");
    w.String(layout.time_masks ? "mask" : "interval");
    w.Key("edge_slot_bytes");
    w.Int(layout.edge_slot_bytes);
    w.Key("node_slot_bytes");
    w.Int(layout.node_slot_bytes);
    // Nodes whose in-slots share one increment: the relevance frontier
    // walks each one's in-slots with a single lazy queue entry
    // (docs/algorithms.md, "Lazy successor generation").
    w.Key("uniform_in_nodes");
    w.Int(layout.uniform_in_nodes);
  }
  if (context_.live != nullptr) {
    const ingest::GraphSnapshotHandle snap = context_.live->Acquire();
    const ingest::IngestStats ingested = context_.live->ingest_stats();
    const ingest::CompactionStats compaction =
        context_.live->compaction_stats();
    w.Key("live");
    w.Bool(true);
    w.Key("snapshot_generation");
    w.Int(static_cast<int64_t>(snap->generation));
    w.Key("snapshot_nodes");
    w.Int(static_cast<int64_t>(snap->view().num_nodes()));
    w.Key("snapshot_edges");
    w.Int(static_cast<int64_t>(snap->view().num_edges()));
    w.Key("delta_bytes");
    w.Int(static_cast<int64_t>(
        snap->overlay != nullptr ? snap->overlay->ApproxBytes() : 0));
    w.Key("ingest_batches");
    w.Int(ingested.batches);
    w.Key("ingest_nodes");
    w.Int(ingested.nodes_added);
    w.Key("ingest_edges");
    w.Int(ingested.edges_added);
    w.Key("compactions");
    w.Int(compaction.runs);
    w.Key("manual_compactions");
    w.Int(compaction.manual_runs);
    w.Key("last_compaction_rebuild_seconds");
    w.Double(compaction.last_rebuild_seconds);
    w.Key("last_compaction_swap_seconds");
    w.Double(compaction.last_swap_seconds);
  }
  if (context_.executor != nullptr) {
    w.Key("threads");
    w.Int(context_.executor->threads());
    w.Key("inflight_queries");
    w.Int(context_.executor->inflight_singles());
  }
  w.Key("admitted");
  w.Int(context_.admission->depth());
  w.Key("inflight_bytes");
  w.Int(context_.admission->inflight_bytes());
  w.Key("shed_total");
  w.Int(context_.admission->shed_total());
  w.Key("max_queue");
  w.Int(context_.admission->options().max_queue);
  w.Key("max_inflight_bytes");
  w.Int(context_.admission->options().max_inflight_bytes);
  if (context_.result_cache != nullptr) {
    const cache::CacheStats s = context_.result_cache->stats();
    w.Key("result_cache");
    w.BeginObject();
    w.Key("hits");
    w.Int(s.hits);
    w.Key("carried_hits");
    w.Int(s.carried_hits);
    w.Key("carried_past_touch");
    w.Int(s.carried_past_touch);
    w.Key("misses");
    w.Int(s.misses);
    w.Key("hit_rate");
    w.Double(s.HitRate());
    w.Key("insertions");
    w.Int(s.insertions);
    w.Key("evictions");
    w.Int(s.evictions);
    w.Key("entries");
    w.Int(s.entries);
    w.Key("bytes");
    w.Int(s.bytes);
    w.Key("read_set_bytes");
    w.Int(s.read_set_bytes);
    w.Key("oversized");
    w.Int(s.oversized);
    w.EndObject();
    w.Key("result_cache_coalesced");
    w.Int(flights_.coalesced());
  }
  w.Key("default_k");
  w.Int(context_.default_k);
  w.Key("default_deadline_ms");
  w.Int(context_.default_deadline_ms);
  w.Key("requests_total");
  w.Int(requests_total());
  w.Key("draining");
  w.Bool(draining());
  w.EndObject();
  return JsonResponse(200, w.Take());
}

bool RequestRouter::Handle(const HttpRequest& request, HttpResponse* immediate,
                           Completion done,
                           std::shared_ptr<PendingSearch>* pending) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  if (pending != nullptr) pending->reset();
  const std::string_view path = PathOf(request.target);

  if (path == "/v1/search") {
    if (request.method != "POST") {
      *immediate = JsonResponse(
          405, JsonErrorBody("method", "use POST for /v1/search"));
      immediate->extra_headers.emplace_back("allow", "POST");
      CountRequest("/v1/search", immediate->status);
      return true;
    }
    if (HandleSearch(request, immediate, std::move(done), pending)) {
      CountRequest("/v1/search", immediate->status);
      return true;
    }
    return false;  // Deferred; the completion counts itself.
  }

  std::string route{path};
  if (path == "/v1/ingest") {
    *immediate = request.method == "POST"
                     ? HandleIngest(request)
                     : JsonResponse(405, JsonErrorBody("method", "use POST"));
  } else if (path == "/v1/compact") {
    *immediate = request.method == "POST"
                     ? HandleCompact()
                     : JsonResponse(405, JsonErrorBody("method", "use POST"));
  } else if (path == "/metrics") {
    *immediate = request.method == "GET"
                     ? HandleMetrics()
                     : JsonResponse(405, JsonErrorBody("method", "use GET"));
  } else if (path == "/healthz") {
    *immediate = request.method == "GET"
                     ? HandleHealthz()
                     : JsonResponse(405, JsonErrorBody("method", "use GET"));
  } else if (path == "/varz") {
    *immediate = request.method == "GET"
                     ? HandleVarz()
                     : JsonResponse(405, JsonErrorBody("method", "use GET"));
  } else {
    route = "other";
    *immediate = JsonResponse(404, JsonErrorBody("not-found", "no such route"));
  }
  CountRequest(route, immediate->status);
  return true;
}

bool RequestRouter::HandleSearch(const HttpRequest& request,
                                 HttpResponse* immediate, Completion done,
                                 std::shared_ptr<PendingSearch>* pending) {
  // Parse the JSON envelope.
  Result<JsonValue> doc = JsonValue::Parse(request.body);
  if (!doc.ok()) {
    *immediate = JsonResponse(400, JsonErrorBody("json", doc.status().message()));
    return true;
  }
  if (!doc->is_object()) {
    *immediate = JsonResponse(
        400, JsonErrorBody("request", "request body must be a JSON object"));
    return true;
  }

  const JsonValue* query_field = doc->Find("query");
  if (query_field == nullptr || !query_field->is_string()) {
    *immediate = JsonResponse(
        400, JsonErrorBody("request", "missing required string field: query"));
    return true;
  }

  // Parse the query text; structured errors map to a 400 body with the
  // error category and byte offset.
  search::ParseErrorDetail detail;
  Result<search::Query> query =
      search::ParseQuery(query_field->AsString(), &detail);
  if (!query.ok()) {
    *immediate = JsonResponse(400, JsonParseErrorBody(detail));
    return true;
  }

  // Live mode (docs/ingest.md): pin ONE snapshot for the whole request,
  // right here at admission. Everything downstream — matches bounds and
  // the engine's graph/index/overlay — reads this immutable view; a publish racing the request retires the old
  // snapshot only after the query drops the pin.
  ingest::GraphSnapshotHandle snapshot;
  if (context_.live != nullptr) snapshot = context_.live->Acquire();

  exec::SingleQuery single;
  single.query.query = *std::move(query);

  // Optional k override.
  if (const JsonValue* k = doc->Find("k"); k != nullptr) {
    if (!k->is_int() || k->AsInt() <= 0) {
      *immediate = JsonResponse(
          400, JsonErrorBody("request", "k must be a positive integer"));
      return true;
    }
    single.k = static_cast<int32_t>(
        std::min<int64_t>(k->AsInt(), context_.max_k));
  } else {
    single.k = context_.default_k;
  }

  // Optional bound override.
  if (const JsonValue* bound = doc->Find("bound"); bound != nullptr) {
    search::UpperBoundKind kind;
    if (!bound->is_string() || !ParseBoundName(bound->AsString(), &kind)) {
      *immediate = JsonResponse(
          400, JsonErrorBody(
                   "request",
                   "bound must be one of: accurate, empirical, average"));
      return true;
    }
    single.bound = kind;
  }

  // Optional explicit match sets (the paper's protocol for unlabeled
  // graphs): one array of node ids per keyword.
  if (const JsonValue* matches = doc->Find("matches"); matches != nullptr) {
    if (!matches->is_array()) {
      *immediate = JsonResponse(
          400, JsonErrorBody("request", "matches must be an array of arrays"));
      return true;
    }
    const int64_t num_nodes =
        snapshot != nullptr
            ? static_cast<int64_t>(snapshot->view().num_nodes())
            : (context_.graph != nullptr
                   ? static_cast<int64_t>(context_.graph->num_nodes())
                   : 0);
    for (const JsonValue& list : matches->items()) {
      if (!list.is_array()) {
        *immediate = JsonResponse(
            400,
            JsonErrorBody("request", "matches must be an array of arrays"));
        return true;
      }
      std::vector<graph::NodeId> ids;
      ids.reserve(list.items().size());
      for (const JsonValue& id : list.items()) {
        if (!id.is_int() || id.AsInt() < 0 || id.AsInt() >= num_nodes) {
          *immediate = JsonResponse(
              400, JsonErrorBody("request", "matches: node id out of range"));
          return true;
        }
        ids.push_back(static_cast<graph::NodeId>(id.AsInt()));
      }
      single.query.matches.push_back(std::move(ids));
    }
    if (single.query.matches.size() != single.query.query.keywords.size()) {
      *immediate = JsonResponse(
          400, JsonErrorBody("request",
                             "matches must have one list per keyword"));
      return true;
    }
  }

  bool include_stats = false;
  if (const JsonValue* stats = doc->Find("stats"); stats != nullptr) {
    if (!stats->is_bool()) {
      *immediate =
          JsonResponse(400, JsonErrorBody("request", "stats must be a bool"));
      return true;
    }
    include_stats = stats->AsBool();
  }

  // Optional per-request cache bypass (docs/caching.md): "cache": false
  // skips the result cache for this request, giving an uncached reference
  // answer for differential checks. Default (absent or true) uses whatever
  // the server configured.
  bool use_cache = true;
  if (const JsonValue* cache_knob = doc->Find("cache");
      cache_knob != nullptr) {
    if (!cache_knob->is_bool()) {
      *immediate =
          JsonResponse(400, JsonErrorBody("request", "cache must be a bool"));
      return true;
    }
    use_cache = cache_knob->AsBool();
  }

  // Per-request deadline from the deadline-ms header.
  single.deadline_ms = context_.default_deadline_ms;
  if (const std::string* header = request.FindHeader("deadline-ms");
      header != nullptr) {
    int64_t deadline = 0;
    if (!ParseInt64(*header, &deadline) || deadline <= 0) {
      *immediate = JsonResponse(
          400, JsonErrorBody("request",
                             "deadline-ms must be a positive integer"));
      return true;
    }
    if (context_.max_deadline_ms > 0 && deadline > context_.max_deadline_ms) {
      deadline = context_.max_deadline_ms;
    }
    single.deadline_ms = deadline;
  }

  // Result-cache tiers (docs/caching.md), for cacheable requests only:
  // stats bodies carry per-run wall times and are never byte-stable.
  const bool cache_eligible =
      context_.result_cache != nullptr && use_cache && !include_stats;
  // The snapshot the request is pinned to; 0 on a static graph.
  const uint64_t pinned = snapshot != nullptr ? snapshot->generation : 0;
  std::string fingerprint;
  std::string flight_key;
  if (cache_eligible) {
    fingerprint = CacheFingerprint(single);
    // Tier 1: a hit valid at the pinned snapshot (docs/caching.md, "Read
    // sets"): stored on it, or on an earlier one no publish since has
    // touched. Serves the stored bytes immediately, bypassing admission —
    // that is the cache's whole point under load.
    if (const auto hit = context_.result_cache->Lookup(fingerprint, pinned)) {
      *immediate = JsonResponse(200, *hit);
      immediate->extra_headers.emplace_back("x-cache", "hit");
      if (snapshot != nullptr) {
        immediate->extra_headers.emplace_back("x-snapshot-generation",
                                              std::to_string(pinned));
      }
      return true;
    }
    // Tier 2: coalesce onto an open identical flight. The leader's
    // completion delivers a copy to every parked follower, so a thundering
    // herd of identical requests costs one search and one admission slot.
    // The flight key names the pinned snapshot: a request admitted after a
    // publish never coalesces onto a flight answering from an older one.
    flight_key = fingerprint;
    if (snapshot != nullptr) {
      flight_key += "\x1f snap=";
      flight_key += std::to_string(pinned);
    }
    if (!flights_.LeadOrJoin(flight_key, &done)) {
      CountCoalesced();
      return false;  // The leader's completion calls `done`.
    }
  }

  // Admission: bounded work in flight; excess load is shed, not queued.
  const int64_t bytes = static_cast<int64_t>(request.body.size());
  ShedReason shed = ShedReason::kNone;
  if (!Admit(bytes, &shed)) {
    *immediate = ShedResponse(shed);
    if (cache_eligible) {
      // The flight dies with its shed leader; parked followers get a copy
      // of the shed response rather than hanging forever.
      for (Completion& follower : flights_.Finish(flight_key)) {
        HttpResponse copy = *immediate;
        CountRequest("/v1/search", copy.status);
        follower(std::move(copy));
      }
    }
    return true;
  }

  // Admitted: hand to the executor. The cancel handle outlives this frame
  // via the shared_ptr captured in the completion. A cache-filling leader's
  // result is shared (cache entry + any coalesced followers), so its handle
  // is marked shared: one client's disconnect must not cancel it, only
  // shutdown does (docs/caching.md).
  auto handle = std::make_shared<PendingSearch>();
  handle->shared = cache_eligible;
  if (pending != nullptr) *pending = handle;
  single.cancel = &handle->cancel;

  // Bind the pinned snapshot to the query: the executor runs it against
  // exactly this view, and the pin rides along until the completion has
  // delivered the response.
  const int64_t snapshot_generation =
      snapshot != nullptr ? static_cast<int64_t>(snapshot->generation) : -1;
  if (snapshot != nullptr) {
    single.snapshot.pin = snapshot;
    single.snapshot.view = snapshot->view();
    single.snapshot.index = snapshot->index.get();
    // A live answer is cached with its read set, so that later publishes
    // that miss it carry it forward.
    single.report_expanded_nodes = cache_eligible;
  }
  // The read set's words are known now; its nodes come with the response.
  cache::ReadSet read_set;
  if (single.report_expanded_nodes) {
    read_set = SearchReadSet(single.query, {}, {});
  }

  AdmissionController* admission = context_.admission;
  cache::ResultCache* result_cache = context_.result_cache;
  RequestRouter* self = this;
  context_.executor->Submit(
      std::move(single),
      [self, admission, bytes, include_stats, handle, cache_eligible,
       result_cache, fingerprint = std::move(fingerprint),
       flight_key = std::move(flight_key), pinned,
       read_set = std::move(read_set), snapshot_generation,
       done = std::move(done)](Result<search::SearchResponse> response,
                               double seconds) mutable {
        HttpResponse http;
        if (response.ok()) {
          http = JsonResponse(
              200, JsonSearchBody(*response, seconds, include_stats));
        } else if (response.status().code() ==
                   StatusCode::kInvalidArgument) {
          http = JsonResponse(
              400, JsonErrorBody("request", response.status().message()));
        } else {
          http = JsonResponse(
              500, JsonErrorBody("internal", response.status().message()));
        }
        if (cache_eligible && response.ok() && http.status == 200 &&
            !response->truncated) {
          // Only COMPLETE answers are cached (bound/exhausted stops;
          // truncated covers deadline, cancellation, and max_pops). Insert
          // precedes Finish so a late arrival either hits the cache or
          // opens the next flight — never falls between the two.
          read_set.nodes = std::move(response->expanded_nodes);
          read_set.values = std::move(response->expanded_slack);
          result_cache->Insert(fingerprint,
                               std::make_shared<const std::string>(http.body),
                               pinned, std::move(read_set));
        }
        admission->Release(bytes);
        if (snapshot_generation >= 0) {
          // Which snapshot answered: perfbench reads this to measure how
          // far reads lag the newest published generation.
          http.extra_headers.emplace_back("x-snapshot-generation",
                                          std::to_string(snapshot_generation));
        }
        self->CountRequest("/v1/search", http.status);
        obs::GlobalMetrics()
            .GetHistogram("tgks_http_request_micros",
                          "Search request service time (microseconds).", {},
                          {{"route", "/v1/search"}})
            ->Observe(std::llround(seconds * 1e6));
        if (cache_eligible) {
          for (Completion& follower : self->flights_.Finish(flight_key)) {
            HttpResponse copy = http;
            copy.extra_headers.emplace_back("x-cache", "coalesced");
            self->CountRequest("/v1/search", copy.status);
            follower(std::move(copy));
          }
          http.extra_headers.emplace_back("x-cache", "miss");
        }
        done(std::move(http));
      });
  return false;
}

}  // namespace tgks::server
