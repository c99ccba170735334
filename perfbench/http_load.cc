// HTTP load client for the social-http-live workload.
//
//   perfbench_http --port P --server-pid PID --seed N --ops N
//                  [--trace-out FILE]
//
// Talks to a running `tgks_cli --dataset social --serve --cache --live`.
// The 200 match-set queries are fixed (2-4 keywords of 50-400 uniform node
// ids, the network protocol of Sec. 6.1); --seed draws the stream: which
// requests are ingest writes (exactly 10%), where each write attaches, and
// which query each search sends, under Zipf(1.1) popularity. One untimed
// warm-up pass sends every query once; then N operations run closed-loop
// over kConnections keep-alive connections, driven from one thread with
// epoll so the client takes as little CPU from the server as it can, with
// /metrics and /varz scraped before and after the timed window. With
// --trace-out the timed window runs a second time with every request and
// scrape recorded as a span, and the spans are written to FILE.
//
// Checks: the snapshot generation never goes backwards on a connection;
// every search answered on one snapshot generation is byte-identical to the
// first answer to that query on that generation (so a cached body is the
// engine's); and the final /varz ingest_batches and snapshot_nodes match
// the writes the client saw acknowledged. Non-200 statuses, 429s,
// connection errors, truncated answers and failed checks all count as
// failed operations.
//
// Prints one JSON object of raw metrics as the last stdout line.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/random.h"

namespace {

using perfbench::Clock;
using perfbench::Micros;

constexpr int kQueries = 200;
constexpr double kZipf = 1.1;
constexpr double kIngestShare = 0.10;
constexpr uint64_t kQuerySetSeed = 1234;
// Keep-alive connections, each a closed loop: the box's 4 cores.
constexpr int kConnections = 4;

struct Args {
  int port = 0;
  int server_pid = 0;
  uint64_t seed = 1;
  int64_t ops = 0;
  std::string trace_out;
};

/// A TCP connection to 127.0.0.1:port with Nagle off, or -1.
int OpenSocket(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Moves one complete response (the server always sends Content-Length)
/// off the front of `buffer`; false while it is still incomplete.
bool TakeResponse(std::string* buffer, std::string* head, std::string* body) {
  const size_t head_end = buffer->find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  size_t body_len = 0;
  for (size_t pos = 0; (pos = buffer->find("\r\n", pos)) < head_end;) {
    pos += 2;
    if (strncasecmp(buffer->c_str() + pos, "content-length:", 15) == 0) {
      body_len = static_cast<size_t>(std::atoll(buffer->c_str() + pos + 15));
    }
  }
  if (buffer->size() < head_end + 4 + body_len) return false;
  head->assign(*buffer, 0, head_end + 4);
  body->assign(*buffer, head_end + 4, body_len);
  buffer->erase(0, head_end + 4 + body_len);
  return true;
}

int StatusOf(const std::string& head) {
  const size_t sp = head.find(' ');
  return sp == std::string::npos ? -1 : std::atoi(head.c_str() + sp + 1);
}

/// A blocking keep-alive connection for the scrapes and probes.
class Connection {
 public:
  explicit Connection(int port) : fd_(OpenSocket(port)) {}
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `request` and reads one response: the status code, or -1 on a
  /// connection error (the connection then stays closed).
  int RoundTrip(const std::string& request, std::string* head,
                std::string* body) {
    if (fd_ < 0) return -1;
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = write(fd_, request.data() + sent, request.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Fail();
      sent += static_cast<size_t>(n);
    }
    char chunk[16 * 1024];
    while (!TakeResponse(&buffer_, head, body)) {
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Fail();
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    return StatusOf(*head);
  }

 private:
  int Fail() {
    close(fd_);
    fd_ = -1;
    return -1;
  }

  int fd_;
  std::string buffer_;
};

std::string Request(const std::string& method, const std::string& path,
                    const std::string& payload) {
  std::string r = method + " " + path + " HTTP/1.1\r\nhost: 127.0.0.1\r\n";
  if (!payload.empty()) {
    r += "content-type: application/json\r\ncontent-length: " +
         std::to_string(payload.size()) + "\r\n";
  }
  return r + "\r\n" + payload;
}

/// Integer value of a response header (lowercase name), or -1.
int64_t HeaderInt(const std::string& head, const std::string& name) {
  const size_t pos = head.find("\r\n" + name + ":");
  if (pos == std::string::npos) return -1;
  return std::atoll(head.c_str() + pos + name.size() + 3);
}

bool HeaderIs(const std::string& head, const std::string& name,
              const std::string& value) {
  return head.find("\r\n" + name + ": " + value + "\r\n") != std::string::npos;
}

/// The number after the last key of `path`, each key searched after the
/// previous one (enough for /varz, whose nested keys are unique in order).
double JsonNumber(const std::string& json, std::initializer_list<const char*> path) {
  size_t pos = 0;
  for (const char* key : path) {
    pos = json.find("\"" + std::string(key) + "\":", pos);
    if (pos == std::string::npos) return 0.0;
    pos += std::strlen(key) + 3;
  }
  return std::atof(json.c_str() + pos);
}

/// Sum of every sample of one Prometheus family whose label text contains
/// `label` (empty matches all).
double MetricSum(const std::string& text, const std::string& name,
                 const std::string& label = "") {
  double sum = 0.0;
  size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const size_t after = pos + name.size();
    pos = after;
    if (!line_start || after >= text.size()) continue;
    if (text[after] != ' ' && text[after] != '{') continue;
    const size_t eol = text.find('\n', after);
    const std::string line = text.substr(after, eol - after);
    if (!label.empty() && line.find(label) == std::string::npos) continue;
    const size_t space = line.rfind(' ');
    sum += std::atof(line.c_str() + space + 1);
  }
  return sum;
}

struct Scrape {
  std::string metrics;
  std::string varz;
  double server_cpu_s = 0.0;
};

struct Op {
  bool ingest = false;
  int query = 0;
};

struct Sample {
  bool ingest = false;
  double latency_us = 0.0;
  bool hit = false;
  bool ok = false;
  int status = 0;
  size_t body_bytes = 0;
  int64_t gen_lag = 0;
};

struct Shared {
  const Args* args = nullptr;
  const std::vector<std::string>* searches = nullptr;
  const std::vector<Op>* ops = nullptr;
  std::vector<std::string> ingests;  // Pre-serialized, one per ingest op.
  // The first body of each (query, snapshot generation).
  std::map<std::pair<int, int64_t>, std::string> first_body;
  int64_t max_ack_generation = 0;
  int64_t acked_batches = 0;
  int64_t acked_nodes = 0;
};

/// One connection of the event loop: at most one request outstanding.
struct Flow {
  int fd = -1;
  const std::string* out = nullptr;
  size_t sent = 0;
  std::string in;
  Op op;
  int64_t index = 0;
  Clock::time_point sent_at;
  int64_t last_generation = -1;
};

int ConnectNonBlocking(int port) {
  const int fd = OpenSocket(port);
  if (fd >= 0) fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Checks one completed response and records it.
void Complete(Shared* shared, Flow* flow, int status,
              const std::string& head, const std::string& body,
              std::vector<Sample>* samples, perfbench::SpanRecorder* recorder) {
  const Clock::time_point done = Clock::now();
  const Op& op = flow->op;
  Sample s;
  s.ingest = op.ingest;
  s.status = status;
  s.latency_us = Micros(flow->sent_at, done);
  s.body_bytes = body.size();
  bool good = status == 200;
  const int64_t generation = HeaderInt(head, "x-snapshot-generation");
  if (good) {
    good = generation >= flow->last_generation;
    flow->last_generation = std::max(flow->last_generation, generation);
    if (op.ingest) {
      shared->max_ack_generation =
          std::max(shared->max_ack_generation, generation);
      ++shared->acked_batches;
      ++shared->acked_nodes;
    } else {
      s.gen_lag =
          std::max<int64_t>(0, shared->max_ack_generation - generation);
    }
  }
  if (good && !op.ingest) {
    s.hit = HeaderIs(head, "x-cache", "hit");
    good = body.find("\"truncated\":false") != std::string::npos;
    if (good) {
      const auto [first, fresh] =
          shared->first_body.try_emplace({op.query, generation}, body);
      good = fresh || first->second == body;
    }
  }
  s.ok = good;
  samples->push_back(s);
  if (recorder != nullptr) {
    recorder->Add(flow->index, 0, op.ingest ? "http.ingest" : "http.search",
                  flow->sent_at, done);
  }
}

/// Sends the warm-up pass (every query once) or the timed stream over the
/// connections from one thread: each connection is a closed loop, sending
/// its next operation as soon as its reply is read. Returns the number of
/// operations never sent because connections could not be (re)opened.
int64_t RunOps(Shared* shared, bool warmup, std::vector<Sample>* samples,
               perfbench::SpanRecorder* recorder) {
  const int64_t total = warmup ? kQueries
                               : static_cast<int64_t>(shared->ops->size());
  const int epfd = epoll_create1(0);
  std::vector<Flow> flows(kConnections);
  int64_t next = 0;
  int active = 0;
  const auto watch = [&](size_t i, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = i;
    epoll_ctl(epfd, EPOLL_CTL_MOD, flows[i].fd, &ev);
  };
  // Writes as much of the current request as the socket takes.
  const auto pump = [&](size_t i) {
    Flow& f = flows[i];
    while (f.sent < f.out->size()) {
      const ssize_t n = write(f.fd, f.out->data() + f.sent,
                              f.out->size() - f.sent);
      if (n > 0) {
        f.sent += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    watch(i, f.sent < f.out->size() ? EPOLLIN | EPOLLOUT : EPOLLIN);
  };
  const auto open_flow = [&](size_t i) {
    Flow& f = flows[i];
    f.fd = ConnectNonBlocking(shared->args->port);
    if (f.fd < 0) return false;
    f.in.clear();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epfd, EPOLL_CTL_ADD, f.fd, &ev);
    return true;
  };
  const auto start_next = [&](size_t i) {
    if (next >= total || flows[i].fd < 0) return;
    Flow& f = flows[i];
    f.index = next++;
    if (warmup) {
      f.op = Op{false, static_cast<int>(f.index)};
    } else {
      f.op = (*shared->ops)[static_cast<size_t>(f.index)];
    }
    f.out = f.op.ingest ? &shared->ingests[static_cast<size_t>(f.op.query)]
                        : &(*shared->searches)[static_cast<size_t>(f.op.query)];
    f.sent = 0;
    ++active;
    f.sent_at = Clock::now();
    pump(i);
  };
  for (size_t i = 0; i < flows.size(); ++i) {
    if (open_flow(i)) start_next(i);
  }
  std::string head, body;
  epoll_event events[16];
  while (active > 0) {
    const int n = epoll_wait(epfd, events, 16, -1);
    if (n < 0 && errno == EINTR) continue;
    for (int e = 0; e < n; ++e) {
      const size_t i = static_cast<size_t>(events[e].data.u64);
      Flow& f = flows[i];
      if ((events[e].events & EPOLLOUT) != 0) pump(i);
      if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      bool broken = false;
      char chunk[16 * 1024];
      for (;;) {
        const ssize_t r = read(f.fd, chunk, sizeof(chunk));
        if (r > 0) {
          f.in.append(chunk, static_cast<size_t>(r));
        } else if (r < 0 && errno == EINTR) {
          continue;
        } else {
          broken = r == 0 || errno != EAGAIN;
          break;
        }
      }
      if (TakeResponse(&f.in, &head, &body)) {
        --active;
        Complete(shared, &f, StatusOf(head), head, body, samples, recorder);
        start_next(i);
      } else if (broken) {
        --active;
        Complete(shared, &f, -1, "", "", samples, recorder);
        epoll_ctl(epfd, EPOLL_CTL_DEL, f.fd, nullptr);
        close(f.fd);
        f.fd = -1;
        if (open_flow(i)) start_next(i);
      }
    }
  }
  for (Flow& f : flows) {
    if (f.fd >= 0) close(f.fd);
  }
  close(epfd);
  return total - next;
}

struct Window {
  std::vector<Sample> samples;
  Scrape before, after;
  double wall_s = 0.0;
  int64_t unsent = 0;
  std::vector<perfbench::Span> spans;
};

Scrape TakeScrape(int port, int pid, perfbench::SpanRecorder* recorder,
                  int64_t request) {
  Connection conn(port);
  Scrape s;
  std::string head;
  const Clock::time_point t0 = Clock::now();
  conn.RoundTrip(Request("GET", "/metrics", ""), &head, &s.metrics);
  const Clock::time_point t1 = Clock::now();
  conn.RoundTrip(Request("GET", "/varz", ""), &head, &s.varz);
  const Clock::time_point t2 = Clock::now();
  s.server_cpu_s = perfbench::ProcCpuSeconds(pid);
  if (recorder != nullptr) {
    recorder->Add(request, 0, "scrape.metrics", t0, t1);
    recorder->Add(request, 0, "scrape.varz", t1, t2);
  }
  return s;
}

Window RunWindow(Shared* shared, bool warmup, bool traced,
                 Clock::time_point epoch) {
  Window w;
  perfbench::SpanRecorder scrape_spans(epoch, 0);
  perfbench::SpanRecorder* scrape_rec = traced ? &scrape_spans : nullptr;
  if (!warmup) {
    w.before = TakeScrape(shared->args->port, shared->args->server_pid,
                          scrape_rec, -1);
  }
  perfbench::SpanRecorder recorder(epoch, 1000000000);
  const Clock::time_point start = Clock::now();
  w.unsent = RunOps(shared, warmup, &w.samples,
                    traced ? &recorder : nullptr);
  w.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  if (!warmup) {
    w.after = TakeScrape(shared->args->port, shared->args->server_pid,
                         scrape_rec, -2);
  }
  if (traced) {
    w.spans = std::move(scrape_spans.spans());
    for (auto& span : recorder.spans()) w.spans.push_back(std::move(span));
  }
  return w;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (arg == "--port") {
      args->port = std::atoi(value);
    } else if (arg == "--server-pid") {
      args->server_pid = std::atoi(value);
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--ops") {
      args->ops = std::atoll(value);
    } else if (arg == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->port > 0 && args->server_pid > 0 && args->ops > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_http --port P --server-pid PID --seed N "
                 "--ops N [--trace-out FILE]\n";
    return 2;
  }
  const bool traced = !args.trace_out.empty();
  const Clock::time_point epoch = Clock::now();

  std::string head, varz0;
  {
    Connection conn(args.port);
    if (conn.RoundTrip(Request("GET", "/varz", ""), &head, &varz0) != 200) {
      std::cerr << "cannot read /varz\n";
      return 1;
    }
  }
  const int64_t base_nodes =
      static_cast<int64_t>(JsonNumber(varz0, {"nodes"}));
  const int64_t start_nodes =
      static_cast<int64_t>(JsonNumber(varz0, {"snapshot_nodes"}));

  // The fixed query set.
  std::vector<std::string> searches;
  std::vector<std::string> probes;  // Same queries with "stats": true.
  {
    tgks::Rng rng(kQuerySetSeed);
    for (int q = 0; q < kQueries; ++q) {
      const int64_t m = rng.UniformInt(2, 4);
      std::string text, matches;
      for (int64_t k = 0; k < m; ++k) {
        text += k > 0 ? ", kw" : "kw";
        text += std::to_string(k);
        const int64_t want =
            rng.UniformInt(std::min<int64_t>(50, base_nodes),
                           std::min<int64_t>(400, base_nodes));
        matches += k > 0 ? ",[" : "[";
        bool first = true;
        for (const uint64_t v : rng.SampleWithoutReplacement(
                 static_cast<uint64_t>(base_nodes),
                 static_cast<uint64_t>(want))) {
          if (!first) matches += ',';
          matches += std::to_string(v);
          first = false;
        }
        matches += "]";
      }
      const std::string fields =
          "{\"query\":\"" + text + "\",\"k\":10,\"matches\":[" + matches + "]";
      searches.push_back(Request("POST", "/v1/search", fields + "}"));
      probes.push_back(
          Request("POST", "/v1/search", fields + ",\"stats\":true}"));
    }
  }

  // The seeded stream: Zipf popularity over the fixed query ranks, plus
  // ingest writes, at seeded positions, that attach one new node to a random
  // base node. The number of writes is fixed, so every seed grows the graph
  // by the same amount.
  Shared shared;
  shared.args = &args;
  shared.searches = &searches;
  std::vector<Op> ops(static_cast<size_t>(args.ops));
  {
    tgks::Rng rng(args.seed);
    const size_t writes =
        static_cast<size_t>(static_cast<double>(ops.size()) * kIngestShare);
    for (size_t i = 0; i < writes; ++i) ops[i].ingest = true;
    for (size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[rng.Uniform(i)]);
    }
    for (Op& op : ops) {
      if (op.ingest) {
        op.query = static_cast<int>(shared.ingests.size());
        const uint64_t anchor = rng.Uniform(static_cast<uint64_t>(base_nodes));
        const std::string id = std::to_string(anchor);
        shared.ingests.push_back(Request(
            "POST", "/v1/ingest",
            "{\"nodes\":[{\"label\":\"perfbench write " +
                std::to_string(shared.ingests.size()) +
                "\",\"weight\":0.1}],\"edges\":[{\"src\":" + id +
                ",\"dst_new\":0},{\"src_new\":0,\"dst\":" + id + "}]}"));
      } else {
        op.query = static_cast<int>(rng.Zipf(kQueries, kZipf));
      }
    }
  }
  // A traced run replays the stream twice; the second copy needs its own
  // writes so its node labels stay distinct.
  const size_t first_ingests = shared.ingests.size();
  if (traced) {
    for (size_t i = 0; i < first_ingests; ++i) {
      std::string again = shared.ingests[i];
      again.replace(again.find("perfbench write "), 16, "perfbench again ");
      shared.ingests.push_back(std::move(again));
    }
  }
  shared.ops = &ops;

  const Window warmup = RunWindow(&shared, /*warmup=*/true, false, epoch);
  const double rss_after_warmup_mib =
      perfbench::ProcStatusMiB(args.server_pid, "VmRSS");
  const Window timed = RunWindow(&shared, /*warmup=*/false, false, epoch);
  Window trace_window;
  if (traced) {
    std::vector<Op> replay = ops;
    for (Op& op : replay) {
      if (op.ingest) op.query += static_cast<int>(first_ingests);
    }
    shared.ops = &replay;
    trace_window = RunWindow(&shared, /*warmup=*/false, true, epoch);
    shared.ops = &ops;
  }
  const Window& measured = traced ? trace_window : timed;

  // Post-window probe: each query once with engine stats, on the
  // final snapshot, for the search phase means. Stats bodies bypass the
  // result cache, so every probe runs the engine.
  const char* const kProbeSums[] = {
      "micros_match", "micros_filter", "micros_expand", "micros_generate",
      "pops", "useless_pops", "edges_scanned", "ntds_created", "candidates",
      "result_count", "interval_ops", "combo_overflows"};
  std::map<std::string, double> probe;
  double probe_heap_high_water = 0.0;
  int64_t probe_stop_bound = 0;
  int64_t probe_failed = 0;
  if (traced) {
    Connection conn(args.port);
    std::string body;
    for (const std::string& request : probes) {
      if (conn.RoundTrip(request, &head, &body) != 200) {
        ++probe_failed;
        continue;
      }
      for (const char* key : kProbeSums) probe[key] += JsonNumber(body, {key});
      probe_heap_high_water = std::max(
          probe_heap_high_water, JsonNumber(body, {"stats", "heap_high_water"}));
      if (body.find("\"stop_reason\":\"bound\"") != std::string::npos) {
        ++probe_stop_bound;
      }
    }
  }

  // Final state check: every acknowledged write is in the graph.
  std::string varz_end;
  {
    Connection conn(args.port);
    conn.RoundTrip(Request("GET", "/varz", ""), &head, &varz_end);
  }
  int64_t failed = probe_failed;
  int64_t attempted = static_cast<int64_t>(probes.size()) * traced;
  for (const Window* w : {&warmup, &timed, &std::as_const(trace_window)}) {
    for (const Sample& s : w->samples) {
      ++attempted;
      if (!s.ok) ++failed;
    }
    attempted += w->unsent;
    failed += w->unsent;
  }
  const int64_t batches =
      static_cast<int64_t>(JsonNumber(varz_end, {"ingest_batches"}));
  const int64_t nodes =
      static_cast<int64_t>(JsonNumber(varz_end, {"snapshot_nodes"}));
  const bool state_ok = batches == shared.acked_batches &&
                        nodes == start_nodes + shared.acked_nodes;
  ++attempted;
  if (!state_ok) ++failed;
  const double peak_rss_mb = perfbench::ProcStatusMiB(args.server_pid, "VmHWM");
  const double rss_end_mib = perfbench::ProcStatusMiB(args.server_pid, "VmRSS");

  // Client-side distributions, from the untraced window.
  std::vector<double> search_ms, ingest_ms, miss_us;
  double search_us_sum = 0.0, body_bytes = 0.0, lag_sum = 0.0;
  int64_t searches_done = 0, status_429 = 0;
  for (const Sample& s : timed.samples) {
    if (s.status == 429) ++status_429;
    if (s.ingest) {
      ingest_ms.push_back(s.latency_us / 1000.0);
      continue;
    }
    search_ms.push_back(s.latency_us / 1000.0);
  }
  for (const Sample& s : measured.samples) {
    if (s.ingest) continue;
    ++searches_done;
    search_us_sum += s.latency_us;
    body_bytes += static_cast<double>(s.body_bytes);
    lag_sum += static_cast<double>(s.gen_lag);
    if (!s.hit) miss_us.push_back(s.latency_us);
  }
  const double n = std::max<double>(1.0, static_cast<double>(searches_done));
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto delta_metric = [&](const std::string& name,
                                const std::string& label = "") {
    return MetricSum(measured.after.metrics, name, label) -
           MetricSum(measured.before.metrics, name, label);
  };
  const auto delta_varz = [&](std::initializer_list<const char*> path) {
    return JsonNumber(measured.after.varz, path) -
           JsonNumber(measured.before.varz, path);
  };

  perfbench::Report report;
  report.Int("attempted", attempted);
  report.Int("failed", failed);
  report.Int("ops", args.ops);
  // Every search of the untraced timed window, over its whole wall time.
  report.Num("search_qps",
             static_cast<double>(search_ms.size()) / timed.wall_s);
  report.Num("search_p50_ms", perfbench::Percentile(search_ms, 0.50));
  report.Num("search_p99_ms", perfbench::Percentile(search_ms, 0.99));
  report.Num("peak_rss_mb", peak_rss_mb);
  report.Num("search_samples", static_cast<double>(search_ms.size()));
  report.Num("ingest_samples", static_cast<double>(ingest_ms.size()));

  const double http_us = delta_metric("tgks_http_request_micros_sum",
                                      "route=\"/v1/search\"");
  const double http_count = delta_metric("tgks_http_request_micros_count",
                                         "route=\"/v1/search\"");
  const double query_us = delta_metric("tgks_single_query_latency_micros_sum");
  const double query_count =
      delta_metric("tgks_single_query_latency_micros_count");
  const double hits = delta_varz({"result_cache", "hits"});
  const double misses = delta_varz({"result_cache", "misses"});
  const double requests = static_cast<double>(measured.samples.size());
  report.Num("search.match_ms", probe["micros_match"] / kQueries / 1000.0);
  report.Num("search.filter_ms", probe["micros_filter"] / kQueries / 1000.0);
  report.Num("search.expand_ms", probe["micros_expand"] / kQueries / 1000.0);
  report.Num("search.generate_ms",
             probe["micros_generate"] / kQueries / 1000.0);
  for (const char* key :
       {"pops", "edges_scanned", "ntds_created", "candidates"}) {
    report.Num(std::string("search.") + key, probe[key] / kQueries);
  }
  report.Num("search.useless_pop_ratio",
             ratio(probe["useless_pops"], probe["pops"]));
  report.Num("search.valid_candidate_ratio",
             ratio(probe["result_count"], probe["candidates"]));
  report.Num("search.combo_overflows", probe["combo_overflows"]);
  report.Num("search.stop_bound_ratio",
             static_cast<double>(probe_stop_bound) / kQueries);
  report.Num("search.heap_high_water", probe_heap_high_water);
  report.Num("search.pops_per_s",
             ratio(probe["pops"], probe["micros_expand"] / 1e6));
  report.Num("search.edges_per_s",
             ratio(probe["edges_scanned"], probe["micros_expand"] / 1e6));
  report.Num("temporal.interval_ops", probe["interval_ops"] / kQueries);
  report.Num("exec.busy_frac",
             query_us / 1e6 / (measured.wall_s * kConnections));
  report.Num("proc.rss_growth_mb_per_kq",
             (rss_end_mib - rss_after_warmup_mib) / (requests / 1000.0));
  report.Num("exec.queue_wait_ms",
             miss_us.empty() || query_count <= 0
                 ? 0.0
                 : (perfbench::Mean(miss_us) - query_us / query_count) /
                       1000.0);
  report.Num("exec.query_ms", ratio(query_us, query_count) / 1000.0);
  report.Num("cache.result_hit_ratio", ratio(hits, hits + misses));
  report.Num("cache.result_coalesced_ratio",
             delta_varz({"result_cache_coalesced"}) / n);
  report.Num("cache.result_evictions", delta_varz({"result_cache", "evictions"}));
  report.Num("cache.result_bytes",
             JsonNumber(measured.after.varz, {"result_cache", "bytes"}));
  report.Num("server.request_us", ratio(http_us, http_count));
  report.Num("server.wire_us", (search_us_sum - http_us) / n);
  report.Num("server.response_bytes", body_bytes / n);
  report.Num("server.shed_ratio",
             ratio(static_cast<double>(status_429),
                   static_cast<double>(timed.samples.size())));
  report.Num("ingest.qps", static_cast<double>(ingest_ms.size()) / timed.wall_s);
  report.Num("ingest.p50_ms", perfbench::Percentile(ingest_ms, 0.50));
  report.Num("ingest.p99_ms", perfbench::Percentile(ingest_ms, 0.99));
  report.Num("ingest.apply_us",
             ratio(delta_metric("tgks_ingest_apply_micros_sum"),
                   delta_metric("tgks_ingest_apply_micros_count")));
  report.Num("ingest.publishes", delta_varz({"snapshot_generation"}));
  report.Num("ingest.compactions", delta_varz({"compactions"}));
  report.Num("ingest.compaction_rebuild_s",
             ratio(delta_metric("tgks_compaction_rebuild_micros_sum"),
                   delta_metric("tgks_compaction_rebuild_micros_count")) /
                 1e6);
  report.Num("ingest.compaction_swap_us",
             JsonNumber(measured.after.varz, {"last_compaction_swap_seconds"}) *
                 1e6);
  report.Num("ingest.delta_bytes_end",
             JsonNumber(measured.after.varz, {"delta_bytes"}));
  report.Num("ingest.gen_lag_mean", lag_sum / n);
  report.Num("proc.cpu_ms_per_op",
             (measured.after.server_cpu_s - measured.before.server_cpu_s) *
                 1000.0 / requests);
  report.Num("trace.overhead_pct",
             traced ? (trace_window.wall_s / timed.wall_s - 1.0) * 100.0 : 0.0);
  report.Bool("state_ok", state_ok);
  if (traced && !perfbench::WriteSpans(args.trace_out, trace_window.spans)) {
    std::cerr << "cannot write " << args.trace_out << "\n";
    return 1;
  }
  std::cout << report.Take() << std::endl;
  return 0;
}
