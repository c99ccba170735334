// tgks_loadgen: HTTP load generator for the tgks_cli --serve endpoint.
//
// Regenerates the same bench-seeded workloads the server's --dataset mode
// uses (bench/bench_util.h, so node ids line up for match-set queries),
// serializes them into POST /v1/search bodies, and replays them over a set
// of keep-alive connections at a target aggregate QPS. Reports achieved
// qps and latency percentiles, in a human table and as one JSON row
// (--json-out appends it to a file).
//
// Usage:
//   tgks_loadgen --workload dblp|social [--host H] [--port P]
//                [--qps Q] [--duration-s S] [--connections C]
//                [--num-queries N] [--k K] [--deadline-ms MS]
//                [--zipf S] [--no-cache] [--ingest-mix R]
//                [--label NAME] [--json-out FILE]
//
// --ingest-mix R (0 < R <= 1, server must run --serve --live) interleaves
// POST /v1/ingest into the stream: a fixed-seed schedule marks fraction R
// of the ticks as writes, each appending one node plus two edges stitched
// to a base node, with validity windows that advance over the timeline as
// the run progresses. Windows are derived from the chosen base node's own
// validity so every batch is accepted. The report then splits percentiles
// by class (search rows keep the regular columns; ingest gets its own),
// and every response's x-snapshot-generation header feeds a lag metric:
// how many generations behind the newest published snapshot each search's
// pinned snapshot was. R = 1 measures ingest-only throughput.
//
// --zipf S replays the workload with Zipf(S)-distributed query popularity
// instead of round-robin: a fixed-seed schedule maps request ticks onto
// query indices, so a small set of hot queries dominates — the access
// pattern a result cache is designed for. Each response's x-cache header
// (hit / coalesced / miss, present only when the server runs --cache) is
// tallied and reported as cache_hit_rate in the JSON row. --no-cache sets
// "cache": false on every request body, forcing full searches through a
// cache-enabled server for same-server differential runs.
//
// --qps 0 (the default) runs closed-loop: each connection issues its next
// request as soon as the previous response lands — except after a 429,
// where the server's Retry-After header is honored before the next send
// (ignoring it turned load shedding into a busy-loop that re-offered the
// shed work immediately). With --qps Q, request i is released at
// start + i/Q across all connections (open loop, bounded by the connection
// count), so overload shows up as 429s, not client queueing; every send
// records its scheduler lag (actual send time minus scheduled tick) and
// the JSON row reports planned vs completed requests plus lag stats, so
// coordinated omission is visible instead of silently shrinking the
// offered load.

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "datagen/query_generator.h"
#include "server/json_io.h"
#include "tools/loadgen_util.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  int port = 8080;
  std::string workload;  // "dblp" or "social" (required).
  double qps = 0;        // 0 = closed loop.
  double duration_s = 10;
  int connections = 4;
  int num_queries = 100;
  int k = 0;             // 0 = server default.
  int deadline_ms = 0;   // 0 = no deadline-ms header.
  double zipf = 0;       // 0 = round-robin; > 0 = Zipf popularity skew.
  bool no_cache = false;  // Send "cache": false on every request.
  double ingest_mix = 0;  // Fraction of ticks that POST /v1/ingest.
  std::string label = "loadgen";
  std::string json_out;  // Append the JSON row here if non-empty.
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dblp|social [--host H] [--port P]\n"
               "          [--qps Q] [--duration-s S] [--connections C]\n"
               "          [--num-queries N] [--k K] [--deadline-ms MS]\n"
               "          [--zipf S] [--no-cache]\n"
               "          [--ingest-mix R] [--label NAME] [--json-out FILE]\n",
               argv0);
}

/// One fully serialized HTTP request, ready to write to a socket.
std::string BuildRequest(const Options& opts,
                         const tgks::datagen::WorkloadQuery& wq) {
  tgks::server::JsonWriter body;
  body.BeginObject();
  body.Key("query");
  body.String(wq.query.ToString());
  if (opts.k > 0) {
    body.Key("k");
    body.Int(opts.k);
  }
  if (opts.no_cache) {
    body.Key("cache");
    body.Bool(false);
  }
  if (!wq.matches.empty()) {
    body.Key("matches");
    body.BeginArray();
    for (const auto& match_set : wq.matches) {
      body.BeginArray();
      for (const auto node : match_set) body.Int(node);
      body.EndArray();
    }
    body.EndArray();
  }
  body.EndObject();
  const std::string payload = body.Take();

  std::string request;
  request.reserve(payload.size() + 160);
  request += "POST /v1/search HTTP/1.1\r\n";
  request += "host: " + opts.host + ":" + std::to_string(opts.port) + "\r\n";
  request += "content-type: application/json\r\n";
  if (opts.deadline_ms > 0) {
    request += "deadline-ms: " + std::to_string(opts.deadline_ms) + "\r\n";
  }
  request += "content-length: " + std::to_string(payload.size()) + "\r\n";
  request += "\r\n";
  request += payload;
  return request;
}

/// One serialized POST /v1/ingest request: a new node stitched to base
/// node `anchor` by a forward and a reverse edge. The validity window
/// starts at a tick-advancing point inside the anchor's own validity, so
/// timestamps march forward over the run and the server accepts every
/// batch (the edge can never be empty after endpoint clamping).
std::string BuildIngestRequest(const Options& opts,
                               const tgks::graph::TemporalGraph& graph,
                               tgks::graph::NodeId anchor, int64_t tick) {
  const auto& intervals = graph.node(anchor).validity.intervals();
  const auto& last = intervals.back();
  const int64_t span = static_cast<int64_t>(last.end - last.start) + 1;
  const int64_t t = static_cast<int64_t>(last.start) + tick % span;
  const int64_t horizon = static_cast<int64_t>(graph.timeline_length()) - 1;

  tgks::server::JsonWriter body;
  body.BeginObject();
  body.Key("nodes");
  body.BeginArray();
  body.BeginObject();
  body.Key("label");
  body.String("live ingest node " + std::to_string(tick));
  body.Key("weight");
  body.Double(0.1);
  body.Key("validity");
  body.BeginArray();
  body.BeginArray();
  body.Int(t);
  body.Int(horizon);
  body.EndArray();
  body.EndArray();
  body.EndObject();
  body.EndArray();
  body.Key("edges");
  body.BeginArray();
  const auto edge = [&](bool forward) {
    body.BeginObject();
    body.Key(forward ? "src" : "dst");
    body.Int(static_cast<int64_t>(anchor));
    body.Key(forward ? "dst_new" : "src_new");
    body.Int(0);
    body.Key("validity");
    body.BeginArray();
    body.BeginArray();
    body.Int(t);
    body.Int(static_cast<int64_t>(last.end));
    body.EndArray();
    body.EndArray();
    body.EndObject();
  };
  edge(/*forward=*/true);
  edge(/*forward=*/false);
  body.EndArray();
  body.EndObject();
  const std::string payload = body.Take();

  std::string request;
  request.reserve(payload.size() + 160);
  request += "POST /v1/ingest HTTP/1.1\r\n";
  request += "host: " + opts.host + ":" + std::to_string(opts.port) + "\r\n";
  request += "content-type: application/json\r\n";
  request += "content-length: " + std::to_string(payload.size()) + "\r\n";
  request += "\r\n";
  request += payload;
  return request;
}

int ConnectTo(const std::string& host, int port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* result = nullptr;
  const std::string port_str = std::to_string(port);
  if (getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result) != 0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    close(fd);
    fd = -1;
  }
  freeaddrinfo(result);
  if (fd >= 0) {
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads exactly one HTTP response off `fd`, using and refilling `buffer`
/// (leftover pipelined bytes persist between calls). Returns the status
/// code, or -1 on a connection error. When `head_out` is non-null it
/// receives the response head (status line + headers) so callers can
/// inspect headers like Retry-After.
int ReadResponse(int fd, std::string* buffer, std::string* head_out) {
  char chunk[16 * 1024];
  // 1. Accumulate until the blank line ends the head.
  size_t head_end = std::string::npos;
  for (;;) {
    head_end = buffer->find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return -1;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
  const std::string head = buffer->substr(0, head_end + 4);
  if (head_out != nullptr) *head_out = head;

  // 2. Status code from "HTTP/1.x NNN ...".
  int status = -1;
  const size_t sp = head.find(' ');
  if (sp != std::string::npos) status = std::atoi(head.c_str() + sp + 1);

  // 3. Content-Length (the server always sends fixed-length bodies).
  size_t body_len = 0;
  {
    std::string lower = head;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const size_t pos = lower.find("content-length:");
    if (pos != std::string::npos) {
      body_len = static_cast<size_t>(
          std::atoll(lower.c_str() + pos + std::strlen("content-length:")));
    }
  }

  // 4. Drain the body (plus any leftover already buffered).
  size_t have = buffer->size() - (head_end + 4);
  while (have < body_len) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return -1;
    }
    buffer->append(chunk, static_cast<size_t>(n));
    have += static_cast<size_t>(n);
  }
  buffer->erase(0, head_end + 4 + body_len);
  return status;
}

/// Returns the (lowercased) value of the x-cache response header in `head`,
/// or "" when the header is absent (server running without --cache).
std::string CacheHeaderValue(const std::string& head) {
  std::string lower = head;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const size_t pos = lower.find("\r\nx-cache:");
  if (pos == std::string::npos) return "";
  size_t begin = pos + std::strlen("\r\nx-cache:");
  while (begin < lower.size() && lower[begin] == ' ') ++begin;
  const size_t line_end = lower.find("\r\n", begin);
  return lower.substr(begin, line_end == std::string::npos
                                 ? std::string::npos
                                 : line_end - begin);
}

/// Returns the integer value of the x-snapshot-generation header in
/// `head`, or -1 when absent (server not running --live).
int64_t SnapshotGenerationOf(const std::string& head) {
  std::string lower = head;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const size_t pos = lower.find("\r\nx-snapshot-generation:");
  if (pos == std::string::npos) return -1;
  return std::atoll(lower.c_str() + pos +
                    std::strlen("\r\nx-snapshot-generation:"));
}

struct WorkerStats {
  std::vector<double> latencies_ms;
  int64_t completed = 0;
  int64_t status_2xx = 0;
  int64_t status_429 = 0;
  int64_t status_other = 0;
  int64_t errors = 0;  // Connection-level failures.
  int64_t retry_after_waits = 0;  // Closed-loop backoffs honored after 429s.
  // x-cache tallies from 2xx responses; all zero when the server has no
  // result cache (header absent).
  int64_t cache_hits = 0;
  int64_t cache_coalesced = 0;
  int64_t cache_misses = 0;
  // --ingest-mix accounting (all zero otherwise): the ingest class keeps
  // its own latency set, and each search-class 2xx samples how many
  // generations its pinned snapshot trailed the newest acknowledged
  // publish.
  std::vector<double> ingest_latencies_ms;
  int64_t ingest_completed = 0;
  int64_t ingest_2xx = 0;
  int64_t gen_lag_samples = 0;
  double gen_lag_sum = 0;
  int64_t gen_lag_max = 0;
  tgks::loadgen::SchedulerLag lag;  // Open-loop send-time accounting.
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void RunWorker(const Options& opts, const std::vector<std::string>& requests,
               const std::vector<uint32_t>& schedule,
               const std::vector<std::string>& ingest_requests,
               const std::vector<uint8_t>& ingest_schedule,
               std::atomic<int64_t>* max_generation, Clock::time_point start,
               Clock::time_point end, std::atomic<int64_t>* next_index,
               WorkerStats* stats) {
  int fd = ConnectTo(opts.host, opts.port);
  if (fd < 0) {
    ++stats->errors;
    return;
  }
  std::string buffer;
  std::string head;
  for (;;) {
    const int64_t i = next_index->fetch_add(1, std::memory_order_relaxed);
    if (opts.qps > 0) {
      const auto scheduled =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / opts.qps));
      if (scheduled >= end) break;
      std::this_thread::sleep_until(scheduled);
      // Even when the run window closes before this tick gets out, the lag
      // is recorded: a late break is a missed tick, and hiding it is the
      // coordinated-omission bug this accounting exists to expose.
      stats->lag.RecordSend(
          std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
              .count());
    }
    if (Clock::now() >= end) break;

    // With --ingest-mix, a fixed-seed class schedule marks this tick as a
    // write; otherwise (and on unmarked ticks) it is a search.
    const bool is_ingest =
        !ingest_schedule.empty() &&
        ingest_schedule[static_cast<size_t>(i) % ingest_schedule.size()] != 0;
    // Round-robin by default; with --zipf, the tick indexes a fixed-seed
    // popularity schedule so hot queries repeat across all connections.
    const size_t slot =
        schedule.empty()
            ? static_cast<size_t>(i) % requests.size()
            : schedule[static_cast<size_t>(i) % schedule.size()];
    const std::string& request =
        is_ingest
            ? ingest_requests[static_cast<size_t>(i) % ingest_requests.size()]
            : requests[slot];
    const auto sent_at = Clock::now();
    if (!WriteAll(fd, request)) {
      ++stats->errors;
      close(fd);
      fd = ConnectTo(opts.host, opts.port);
      if (fd < 0) return;
      buffer.clear();
      continue;
    }
    const int status = ReadResponse(fd, &buffer, &head);
    if (status < 0) {
      ++stats->errors;
      close(fd);
      fd = ConnectTo(opts.host, opts.port);
      if (fd < 0) return;
      buffer.clear();
      continue;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent_at)
            .count();
    if (is_ingest) {
      stats->ingest_latencies_ms.push_back(ms);
      ++stats->ingest_completed;
    } else {
      stats->latencies_ms.push_back(ms);
    }
    ++stats->completed;
    if (status >= 200 && status < 300 && is_ingest) {
      ++stats->ingest_2xx;
      // Every acknowledged write advances the newest generation any
      // connection has seen; searches measure their lag against it.
      const int64_t gen = SnapshotGenerationOf(head);
      int64_t seen = max_generation->load(std::memory_order_relaxed);
      while (gen > seen &&
             !max_generation->compare_exchange_weak(
                 seen, gen, std::memory_order_relaxed)) {
      }
    } else if (status >= 200 && status < 300) {
      ++stats->status_2xx;
      const std::string cache = CacheHeaderValue(head);
      if (cache == "hit") {
        ++stats->cache_hits;
      } else if (cache == "coalesced") {
        ++stats->cache_coalesced;
      } else if (cache == "miss") {
        ++stats->cache_misses;
      }
      const int64_t gen = SnapshotGenerationOf(head);
      if (gen >= 0 && !ingest_schedule.empty()) {
        const int64_t lag = std::max<int64_t>(
            0, max_generation->load(std::memory_order_relaxed) - gen);
        ++stats->gen_lag_samples;
        stats->gen_lag_sum += static_cast<double>(lag);
        stats->gen_lag_max = std::max(stats->gen_lag_max, lag);
      }
    } else if (status == 429) {
      ++stats->status_429;
      // Closed loop: honor the server's Retry-After before the next send.
      // (Open loop keeps its schedule — the point is a fixed offered load.)
      if (opts.qps <= 0) {
        const double remaining_s =
            std::chrono::duration<double>(end - Clock::now()).count();
        const double backoff_s = tgks::loadgen::RetryBackoffSeconds(
            tgks::loadgen::ParseRetryAfterSeconds(head), remaining_s);
        if (backoff_s > 0) {
          ++stats->retry_after_waits;
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff_s));
        }
      }
    } else {
      ++stats->status_other;
    }
  }
  close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      opts.host = next("--host");
    } else if (arg == "--port") {
      opts.port = std::atoi(next("--port"));
    } else if (arg == "--workload") {
      opts.workload = next("--workload");
    } else if (arg == "--qps") {
      opts.qps = std::atof(next("--qps"));
    } else if (arg == "--duration-s") {
      opts.duration_s = std::atof(next("--duration-s"));
    } else if (arg == "--connections") {
      opts.connections = std::atoi(next("--connections"));
    } else if (arg == "--num-queries") {
      opts.num_queries = std::atoi(next("--num-queries"));
    } else if (arg == "--k") {
      opts.k = std::atoi(next("--k"));
    } else if (arg == "--deadline-ms") {
      opts.deadline_ms = std::atoi(next("--deadline-ms"));
    } else if (arg == "--zipf") {
      opts.zipf = std::atof(next("--zipf"));
    } else if (arg == "--no-cache") {
      opts.no_cache = true;
    } else if (arg == "--ingest-mix") {
      opts.ingest_mix = std::atof(next("--ingest-mix"));
    } else if (arg == "--label") {
      opts.label = next("--label");
    } else if (arg == "--json-out") {
      opts.json_out = next("--json-out");
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (opts.workload != "dblp" && opts.workload != "social") {
    std::fprintf(stderr, "--workload must be dblp or social\n");
    Usage(argv[0]);
    return 2;
  }
  if (opts.connections < 1 || opts.duration_s <= 0 || opts.num_queries < 1) {
    std::fprintf(stderr, "invalid --connections/--duration-s/--num-queries\n");
    return 2;
  }
  if (opts.ingest_mix < 0 || opts.ingest_mix > 1) {
    std::fprintf(stderr, "--ingest-mix must be in [0, 1]\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);

  // Regenerate the server's dataset so node ids in match sets line up.
  std::fprintf(stderr, "generating %s workload (%d queries)...\n",
               opts.workload.c_str(), opts.num_queries);
  tgks::datagen::QueryWorkloadParams params;
  params.num_queries = opts.num_queries;
  std::vector<tgks::datagen::WorkloadQuery> workload;
  tgks::graph::TemporalGraph base_graph;
  if (opts.workload == "dblp") {
    auto dataset = tgks::bench::MakeDblp();
    workload = tgks::datagen::MakeDblpWorkload(dataset, params);
    base_graph = std::move(dataset.graph);
  } else {
    auto dataset = tgks::bench::MakeSocial();
    workload = tgks::datagen::MakeMatchSetWorkload(
        dataset.graph, params, tgks::bench::ScaledMatches());
    base_graph = std::move(dataset.graph);
  }
  std::vector<std::string> requests;
  requests.reserve(workload.size());
  for (const auto& wq : workload) requests.push_back(BuildRequest(opts, wq));

  // Fixed-seed Zipf popularity schedule, shared by every connection so the
  // run replays the same hot-set regardless of worker interleaving.
  std::vector<uint32_t> schedule;
  if (opts.zipf > 0) {
    tgks::Rng rng(0x7a1f5eedULL);
    schedule.resize(1 << 16);
    for (uint32_t& s : schedule) {
      s = static_cast<uint32_t>(rng.Zipf(requests.size(), opts.zipf));
    }
  }

  // --ingest-mix: a fixed-seed class schedule (fraction R of ticks are
  // writes) plus a pool of pre-serialized ingest bodies. Anchors are base
  // nodes with non-empty validity, so the server accepts every batch.
  std::vector<std::string> ingest_requests;
  std::vector<uint8_t> ingest_schedule;
  if (opts.ingest_mix > 0) {
    tgks::Rng rng(0x16e57f10ULL);
    std::vector<tgks::graph::NodeId> anchors;
    anchors.reserve(1024);
    while (anchors.size() < 1024) {
      const auto n = static_cast<tgks::graph::NodeId>(
          rng.Uniform(static_cast<uint64_t>(base_graph.num_nodes())));
      if (!base_graph.node(n).validity.IsEmpty()) anchors.push_back(n);
    }
    ingest_requests.reserve(4096);
    for (int64_t t = 0; t < 4096; ++t) {
      ingest_requests.push_back(BuildIngestRequest(
          opts, base_graph, anchors[static_cast<size_t>(t) % anchors.size()],
          t));
    }
    ingest_schedule.resize(1 << 16);
    for (uint8_t& b : ingest_schedule) {
      b = rng.Bernoulli(opts.ingest_mix) ? 1 : 0;
    }
  }
  std::atomic<int64_t> max_generation{-1};

  const auto start = Clock::now();
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opts.duration_s));
  std::atomic<int64_t> next_index{0};
  std::vector<WorkerStats> worker_stats(
      static_cast<size_t>(opts.connections));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(opts.connections));
  for (int c = 0; c < opts.connections; ++c) {
    workers.emplace_back(RunWorker, std::cref(opts), std::cref(requests),
                         std::cref(schedule), std::cref(ingest_requests),
                         std::cref(ingest_schedule), &max_generation, start,
                         end, &next_index, &worker_stats[c]);
  }
  for (auto& w : workers) w.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  WorkerStats total;
  for (const auto& ws : worker_stats) {
    total.completed += ws.completed;
    total.status_2xx += ws.status_2xx;
    total.status_429 += ws.status_429;
    total.status_other += ws.status_other;
    total.errors += ws.errors;
    total.retry_after_waits += ws.retry_after_waits;
    total.cache_hits += ws.cache_hits;
    total.cache_coalesced += ws.cache_coalesced;
    total.cache_misses += ws.cache_misses;
    total.ingest_completed += ws.ingest_completed;
    total.ingest_2xx += ws.ingest_2xx;
    total.gen_lag_samples += ws.gen_lag_samples;
    total.gen_lag_sum += ws.gen_lag_sum;
    total.gen_lag_max = std::max(total.gen_lag_max, ws.gen_lag_max);
    total.lag.Merge(ws.lag);
    total.latencies_ms.insert(total.latencies_ms.end(),
                              ws.latencies_ms.begin(),
                              ws.latencies_ms.end());
    total.ingest_latencies_ms.insert(total.ingest_latencies_ms.end(),
                                     ws.ingest_latencies_ms.begin(),
                                     ws.ingest_latencies_ms.end());
  }
  const int64_t planned =
      tgks::loadgen::PlannedRequests(opts.qps, opts.duration_s);
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  const double achieved =
      wall > 0 ? static_cast<double>(total.completed) / wall : 0;
  const double p50 = Percentile(total.latencies_ms, 0.50);
  const double p90 = Percentile(total.latencies_ms, 0.90);
  const double p99 = Percentile(total.latencies_ms, 0.99);

  std::printf("%-10s %-8s %5s %10s %12s %9s %9s %9s %6s %6s %6s\n", "label",
              "dataset", "conns", "target_qps", "achieved_qps", "p50_ms",
              "p90_ms", "p99_ms", "2xx", "429", "err");
  std::printf("%-10s %-8s %5d %10.1f %12.2f %9.3f %9.3f %9.3f %6lld %6lld"
              " %6lld\n",
              opts.label.c_str(), opts.workload.c_str(), opts.connections,
              opts.qps, achieved, p50, p90, p99,
              static_cast<long long>(total.status_2xx),
              static_cast<long long>(total.status_429),
              static_cast<long long>(total.errors + total.status_other));
  if (opts.qps > 0) {
    std::printf("open-loop: planned %lld, sent %lld, late %lld,"
                " lag mean %.3f ms, lag max %.3f ms\n",
                static_cast<long long>(planned),
                static_cast<long long>(total.lag.sends),
                static_cast<long long>(total.lag.late_sends),
                total.lag.MeanLagMs(), total.lag.max_lag_ms);
  } else if (total.retry_after_waits > 0) {
    std::printf("closed-loop: honored Retry-After %lld times\n",
                static_cast<long long>(total.retry_after_waits));
  }
  std::sort(total.ingest_latencies_ms.begin(),
            total.ingest_latencies_ms.end());
  const int64_t search_completed = total.completed - total.ingest_completed;
  const double search_qps =
      wall > 0 ? static_cast<double>(search_completed) / wall : 0;
  const double ingest_qps =
      wall > 0 ? static_cast<double>(total.ingest_completed) / wall : 0;
  const double ingest_p50 = Percentile(total.ingest_latencies_ms, 0.50);
  const double ingest_p90 = Percentile(total.ingest_latencies_ms, 0.90);
  const double ingest_p99 = Percentile(total.ingest_latencies_ms, 0.99);
  const double gen_lag_mean =
      total.gen_lag_samples > 0
          ? total.gen_lag_sum / static_cast<double>(total.gen_lag_samples)
          : 0;
  if (opts.ingest_mix > 0) {
    std::printf("mixed: search qps %.2f, ingest qps %.2f (mix %.2f);"
                " ingest p50 %.3f ms, p90 %.3f, p99 %.3f, 2xx %lld\n",
                search_qps, ingest_qps, opts.ingest_mix, ingest_p50,
                ingest_p90, ingest_p99,
                static_cast<long long>(total.ingest_2xx));
    std::printf("snapshot lag: mean %.3f generations, max %lld"
                " (final generation %lld)\n",
                gen_lag_mean, static_cast<long long>(total.gen_lag_max),
                static_cast<long long>(max_generation.load()));
  }
  const int64_t cache_tallied =
      total.cache_hits + total.cache_coalesced + total.cache_misses;
  const double cache_hit_rate =
      cache_tallied > 0
          ? static_cast<double>(total.cache_hits + total.cache_coalesced) /
                static_cast<double>(cache_tallied)
          : 0;
  if (cache_tallied > 0) {
    std::printf("cache: hits %lld, coalesced %lld, misses %lld,"
                " hit rate %.3f\n",
                static_cast<long long>(total.cache_hits),
                static_cast<long long>(total.cache_coalesced),
                static_cast<long long>(total.cache_misses), cache_hit_rate);
  }

  tgks::server::JsonWriter row;
  row.BeginObject();
  row.Key("bench");
  row.String("http_throughput");
  row.Key("label");
  row.String(opts.label);
  row.Key("dataset");
  row.String(opts.workload);
  row.Key("connections");
  row.Int(opts.connections);
  row.Key("target_qps");
  row.Double(opts.qps);
  row.Key("achieved_qps");
  row.Double(achieved);
  row.Key("wall_seconds");
  row.Double(wall);
  row.Key("completed");
  row.Int(total.completed);
  row.Key("p50_ms");
  row.Double(p50);
  row.Key("p90_ms");
  row.Double(p90);
  row.Key("p99_ms");
  row.Double(p99);
  row.Key("status_2xx");
  row.Int(total.status_2xx);
  row.Key("status_429");
  row.Int(total.status_429);
  row.Key("status_other");
  row.Int(total.status_other);
  row.Key("errors");
  row.Int(total.errors);
  row.Key("deadline_ms");
  row.Int(opts.deadline_ms == 0 ? -1 : opts.deadline_ms);
  row.Key("retry_after_waits");
  row.Int(total.retry_after_waits);
  // Zipf/cache accounting: zipf_s 0 = round-robin replay; the x-cache
  // tallies are all zero when the server runs without a result cache.
  row.Key("zipf_s");
  row.Double(opts.zipf);
  row.Key("cache_requested");
  row.Bool(!opts.no_cache);
  row.Key("cache_hits");
  row.Int(total.cache_hits);
  row.Key("cache_coalesced");
  row.Int(total.cache_coalesced);
  row.Key("cache_misses");
  row.Int(total.cache_misses);
  row.Key("cache_hit_rate");
  row.Double(cache_hit_rate);
  // Mixed-workload accounting (all zero without --ingest-mix): per-class
  // throughput and latency, plus how many generations search responses
  // trailed the newest acknowledged publish (docs/ingest.md).
  row.Key("ingest_mix");
  row.Double(opts.ingest_mix);
  row.Key("search_qps");
  row.Double(search_qps);
  row.Key("ingest_qps");
  row.Double(ingest_qps);
  row.Key("ingest_completed");
  row.Int(total.ingest_completed);
  row.Key("ingest_2xx");
  row.Int(total.ingest_2xx);
  row.Key("ingest_p50_ms");
  row.Double(ingest_p50);
  row.Key("ingest_p90_ms");
  row.Double(ingest_p90);
  row.Key("ingest_p99_ms");
  row.Double(ingest_p99);
  row.Key("gen_lag_mean");
  row.Double(gen_lag_mean);
  row.Key("gen_lag_max");
  row.Int(total.gen_lag_max);
  row.Key("final_generation");
  row.Int(max_generation.load());
  // Open-loop schedule accounting (all zero in closed-loop runs): how many
  // ticks the run planned, how many actually left the client, and how late
  // they were. planned >> sends or a large lag means the client could not
  // keep up and the measured latencies under-report true overload.
  row.Key("planned_requests");
  row.Int(planned);
  row.Key("sends");
  row.Int(total.lag.sends);
  row.Key("late_sends");
  row.Int(total.lag.late_sends);
  row.Key("sched_lag_mean_ms");
  row.Double(total.lag.MeanLagMs());
  row.Key("sched_lag_max_ms");
  row.Double(total.lag.max_lag_ms);
  row.EndObject();
  const std::string json_row = row.Take();
  std::printf("%s\n", json_row.c_str());
  if (!opts.json_out.empty()) {
    FILE* f = std::fopen(opts.json_out.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opts.json_out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json_row.c_str());
    std::fclose(f);
  }
  // Nonzero exit when nothing completed, so CI smoke jobs fail loudly.
  return total.completed > 0 ? 0 : 1;
}
