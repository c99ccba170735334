#include "server/http_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace tgks::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Bytes buffered on a connection while a search is in flight (pipelined
/// requests we are not parsing yet). Beyond this the peer is misbehaving.
constexpr size_t kMaxParkedBytes = 256 * 1024;

/// Read at most this much before handing bytes to the parser; the poller is
/// level-triggered, so leftover socket data re-signals immediately.
constexpr size_t kReadChunkLimit = 1024 * 1024;

Status Errno(std::string_view what) {
  std::string message{what};
  message += ": ";
  message += std::strerror(errno);
  return Status::IOError(message);
}

int SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Readiness notification for one fd.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// The readiness backend: a level-triggered epoll set.
class Epoll {
 public:
  /// Takes ownership of the epoll descriptor `epfd`.
  explicit Epoll(int epfd) : epfd_(epfd) {}
  ~Epoll() { ::close(epfd_); }
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  bool Add(int fd, bool want_read, bool want_write) {
    epoll_event event = Event(fd, want_read, want_write);
    return epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &event) == 0;
  }
  void Update(int fd, bool want_read, bool want_write) {
    epoll_event event = Event(fd, want_read, want_write);
    epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &event);
  }
  void Remove(int fd) { epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Blocks up to timeout_ms; fills *events. Returns false on fatal error.
  bool Wait(int timeout_ms, std::vector<PollEvent>* events) {
    epoll_event buffer[64];
    const int n = epoll_wait(epfd_, buffer, 64, timeout_ms);
    if (n < 0) return errno == EINTR;
    events->clear();
    for (int i = 0; i < n; ++i) {
      PollEvent event;
      event.fd = buffer[i].data.fd;
      event.readable = (buffer[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      event.writable = (buffer[i].events & EPOLLOUT) != 0;
      event.error = (buffer[i].events & EPOLLERR) != 0;
      events->push_back(event);
    }
    return true;
  }

 private:
  static epoll_event Event(int fd, bool want_read, bool want_write) {
    epoll_event event{};
    if (want_read) event.events |= EPOLLIN;
    if (want_write) event.events |= EPOLLOUT;
    event.data.fd = fd;
    return event;
  }
  int epfd_;
};

/// Completions cross from executor workers to the I/O thread through this
/// queue. It is shared-owned by the server loop and by every in-flight
/// completion callback, so a callback firing during (or after) shutdown
/// writes into a still-live object and at worst wakes a closed pipe.
struct CompletionQueue {
  std::mutex mu;
  std::vector<std::pair<uint64_t, HttpResponse>> items;
  int wake_write_fd = -1;  ///< Owned; closed by the destructor.

  ~CompletionQueue() {
    if (wake_write_fd >= 0) ::close(wake_write_fd);
  }

  void Push(uint64_t conn_id, HttpResponse response) {
    std::lock_guard<std::mutex> lock(mu);
    items.emplace_back(conn_id, std::move(response));
    if (wake_write_fd >= 0) {
      const char byte = 1;
      // EAGAIN (pipe full) is fine: a wakeup is already pending. EPIPE
      // after loop exit is fine too (SIGPIPE is ignored in Start()).
      [[maybe_unused]] ssize_t n = ::write(wake_write_fd, &byte, 1);
    }
  }
};

}  // namespace

/// The I/O loop and its connection table. Lives on the server's thread.
class HttpServer::Impl {
 public:
  Impl(HttpServer* server, int listen_fd, int wake_read_fd, int epoll_fd,
       std::shared_ptr<CompletionQueue> completions)
      : server_(server),
        listen_fd_(listen_fd),
        wake_read_fd_(wake_read_fd),
        completions_(std::move(completions)),
        poller_(epoll_fd) {}

  ~Impl() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  }

  /// False when the epoll set could not take the listener and the wake
  /// pipe.
  bool Init() {
    return poller_.Add(listen_fd_, /*want_read=*/true, /*want_write=*/false) &&
           poller_.Add(wake_read_fd_, /*want_read=*/true,
                       /*want_write=*/false);
  }

  /// Thread-safe: wakes the loop (conn id 0 is never assigned, so the
  /// dummy completion is ignored on arrival).
  void Wake() { completions_->Push(0, HttpResponse{}); }

  void Run() {
    std::vector<PollEvent> events;
    while (true) {
      const Phase phase = CurrentPhase();
      if (phase == Phase::kExit) break;
      const int timeout_ms = WaitTimeoutMs(phase);
      if (!poller_.Wait(timeout_ms, &events)) break;
      for (const PollEvent& event : events) {
        if (event.fd == wake_read_fd_) {
          DrainWakePipe();
        } else if (event.fd == listen_fd_) {
          AcceptAll();
        } else {
          OnConnectionEvent(event);
        }
      }
      DeliverCompletions();
    }
    CloseEverything();
  }

 private:
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    HttpRequestParser parser;
    std::string inbuf;   ///< Bytes received but not yet consumed.
    std::string outbuf;  ///< Serialized response bytes pending write.
    size_t out_pos = 0;
    bool keep_alive = true;
    bool awaiting = false;     ///< A deferred search is in flight.
    bool half_closed = false;  ///< Peer sent FIN; flush then close.
    bool want_close = false;   ///< Close once outbuf drains.
    std::shared_ptr<PendingSearch> pending;

    explicit Conn(HttpRequestParser::Limits limits) : parser(limits) {}
    bool want_write() const { return out_pos < outbuf.size(); }
  };

  enum class Phase {
    kServing,
    kDraining,    ///< Shutdown requested; queries still running.
    kCancelling,  ///< Drain timeout passed; every held search cancelled.
    kExit,
  };

  Phase CurrentPhase() {
    if (!server_->shutdown_requested_.load(std::memory_order_acquire)) {
      return Phase::kServing;
    }
    if (!draining_started_) {
      draining_started_ = true;
      drain_deadline_ = Clock::now() + std::chrono::milliseconds(
                                           server_->options_.drain_timeout_ms);
      // Stop accepting: the listen socket leaves the interest set (and
      // closes, so the port frees immediately).
      poller_.Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
      // Idle connections have nothing more coming; close them now.
      CloseIdleConnections();
    }
    if (!AnyWorkLeft()) return Phase::kExit;
    if (Clock::now() >= drain_deadline_) {
      if (!cancel_sent_) {
        cancel_sent_ = true;
        CancelHeldSearches();
        hard_deadline_ = Clock::now() + std::chrono::milliseconds(
                                            server_->options_.drain_timeout_ms +
                                            10000);
      }
      // Cancelled queries stop at their next pop boundary; their responses
      // still flush. A hard deadline bounds even that.
      if (Clock::now() >= hard_deadline_) return Phase::kExit;
      return Phase::kCancelling;
    }
    return Phase::kDraining;
  }

  int WaitTimeoutMs(Phase phase) {
    if (phase == Phase::kServing) return 100;
    const auto deadline =
        phase == Phase::kDraining ? drain_deadline_ : hard_deadline_;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    return static_cast<int>(std::clamp<int64_t>(left, 1, 100));
  }

  bool AnyWorkLeft() const {
    for (const auto& [id, conn] : conns_) {
      if (conn->awaiting || conn->want_write()) return true;
    }
    return !zombies_.empty();
  }

  void DrainWakePipe() {
    char buffer[256];
    while (::read(wake_read_fd_, buffer, sizeof(buffer)) > 0) {
    }
  }

  void AcceptAll() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN or transient error: try again on next event.
      if (static_cast<int>(conns_.size()) >=
              server_->options_.max_connections ||
          SetNonBlocking(fd) < 0) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>(server_->options_.limits);
      conn->fd = fd;
      conn->id = next_conn_id_++;
      if (!poller_.Add(fd, /*want_read=*/true, /*want_write=*/false)) {
        ::close(fd);
        continue;
      }
      fd_to_id_[fd] = conn->id;
      conns_.emplace(conn->id, std::move(conn));
      server_->open_connections_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter* accepted = obs::GlobalMetrics().GetCounter(
          "tgks_http_connections_accepted_total",
          "TCP connections accepted by the server.");
      accepted->Increment();
    }
  }

  void OnConnectionEvent(const PollEvent& event) {
    const auto fd_it = fd_to_id_.find(event.fd);
    if (fd_it == fd_to_id_.end()) return;
    const auto it = conns_.find(fd_it->second);
    if (it == conns_.end()) return;
    Conn* conn = it->second.get();
    if (event.error) {
      DestroyConn(conn->id, /*cancel_pending=*/true);
      return;
    }
    if (event.readable) {
      if (!ReadFrom(conn)) return;  // Connection destroyed.
    }
    if (conn->want_write()) {
      if (!WriteTo(conn)) return;
    }
    RefreshInterest(conn);
  }

  /// Returns false when the connection was destroyed.
  bool ReadFrom(Conn* conn) {
    char buffer[16384];
    while (true) {
      const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
      if (n > 0) {
        conn->inbuf.append(buffer, static_cast<size_t>(n));
        if (conn->awaiting && conn->inbuf.size() > kMaxParkedBytes) {
          // Peer floods while a search is in flight; drop it.
          DestroyConn(conn->id, /*cancel_pending=*/true);
          return false;
        }
        if (conn->inbuf.size() >= kReadChunkLimit) break;
        continue;
      }
      if (n == 0) {
        // FIN: no more requests. Deliver what is still owed, then close.
        conn->half_closed = true;
        if (!conn->awaiting && !conn->want_write()) {
          DestroyConn(conn->id, /*cancel_pending=*/false);
          return false;
        }
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      DestroyConn(conn->id, /*cancel_pending=*/true);
      return false;
    }
    return ProcessInput(conn);
  }

  /// Feeds buffered bytes to the parser and dispatches complete requests.
  /// Returns false when the connection was destroyed.
  bool ProcessInput(Conn* conn) {
    while (!conn->awaiting && !conn->want_close && !conn->inbuf.empty()) {
      size_t consumed = 0;
      const HttpRequestParser::State state =
          conn->parser.Feed(conn->inbuf, &consumed);
      conn->inbuf.erase(0, consumed);
      if (state == HttpRequestParser::State::kError) {
        HttpResponse error;
        error.status = conn->parser.error_status();
        error.body = JsonErrorBody("http", conn->parser.error_reason());
        error.close_connection = true;
        QueueResponse(conn, error);
        conn->want_close = true;
        break;
      }
      if (state != HttpRequestParser::State::kDone) break;  // Need more bytes.
      DispatchRequest(conn);
    }
    return true;
  }

  void DispatchRequest(Conn* conn) {
    const HttpRequest& request = conn->parser.request();
    conn->keep_alive = request.keep_alive();

    auto completions = completions_;
    const uint64_t conn_id = conn->id;
    RequestRouter::Completion done = [completions,
                                      conn_id](HttpResponse response) {
      completions->Push(conn_id, std::move(response));
    };

    HttpResponse immediate;
    std::shared_ptr<PendingSearch> pending;
    if (server_->router_->Handle(request, &immediate, std::move(done),
                                 &pending)) {
      QueueResponse(conn, immediate);
    } else {
      conn->awaiting = true;
      conn->pending = std::move(pending);
    }
    conn->parser.Reset();
  }

  void QueueResponse(Conn* conn, const HttpResponse& response) {
    // During shutdown every response announces the close.
    const bool keep = conn->keep_alive && !response.close_connection &&
                      !draining_started_ && !conn->half_closed;
    conn->outbuf.append(SerializeResponse(response, keep));
    if (!keep) conn->want_close = true;
  }

  /// Returns false when the connection was destroyed.
  bool WriteTo(Conn* conn) {
    while (conn->want_write()) {
      const ssize_t n =
          ::write(conn->fd, conn->outbuf.data() + conn->out_pos,
                  conn->outbuf.size() - conn->out_pos);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      DestroyConn(conn->id, /*cancel_pending=*/true);
      return false;
    }
    // Fully flushed.
    conn->outbuf.clear();
    conn->out_pos = 0;
    if (conn->want_close || conn->half_closed) {
      DestroyConn(conn->id, /*cancel_pending=*/false);
      return false;
    }
    return true;
  }

  void RefreshInterest(Conn* conn) {
    poller_.Update(conn->fd, /*want_read=*/true, conn->want_write());
  }

  void DeliverCompletions() {
    std::vector<std::pair<uint64_t, HttpResponse>> items;
    {
      std::lock_guard<std::mutex> lock(completions_->mu);
      items.swap(completions_->items);
    }
    for (auto& [conn_id, response] : items) {
      if (zombies_.erase(conn_id) > 0) continue;  // Peer already gone.
      const auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      conn->awaiting = false;
      conn->pending.reset();
      QueueResponse(conn, response);
      // Parse any requests that piled up behind the deferred one.
      if (ProcessInput(conn) && conns_.count(conn_id) > 0) {
        if (!WriteTo(conn)) continue;
        RefreshInterest(conn);
      }
    }
  }

  void CloseIdleConnections() {
    std::vector<uint64_t> idle;
    for (const auto& [id, conn] : conns_) {
      if (!conn->awaiting && !conn->want_write()) idle.push_back(id);
    }
    for (const uint64_t id : idle) {
      DestroyConn(id, /*cancel_pending=*/false);
    }
  }

  static void Cancel(PendingSearch* pending) {
    if (pending != nullptr) {
      pending->cancel.store(true, std::memory_order_release);
    }
  }

  /// Cancels every search the server holds, shared or not, on a live
  /// connection or a closed one. The router admits none once draining.
  void CancelHeldSearches() {
    for (const auto& [id, conn] : conns_) Cancel(conn->pending.get());
    for (const auto& [id, pending] : zombies_) Cancel(pending.get());
  }

  /// `cancel_pending`: the peer is gone or broken, so its search (unless
  /// shared) has no one to answer.
  void DestroyConn(uint64_t id, bool cancel_pending) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn* conn = it->second.get();
    if (conn->awaiting) {
      // A completion for this id is still coming: remember to drop it, and
      // keep the search's handle so that shutdown can still cancel it.
      if (cancel_pending && conn->pending != nullptr &&
          !conn->pending->shared) {
        Cancel(conn->pending.get());
      }
      zombies_.emplace(id, std::move(conn->pending));
    }
    poller_.Remove(conn->fd);
    fd_to_id_.erase(conn->fd);
    ::close(conn->fd);
    conns_.erase(it);
    server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
  }

  void CloseEverything() {
    // No response can be delivered any more.
    CancelHeldSearches();
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (const uint64_t id : ids) DestroyConn(id, /*cancel_pending=*/false);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  HttpServer* server_;
  int listen_fd_;
  int wake_read_fd_;
  std::shared_ptr<CompletionQueue> completions_;
  Epoll poller_;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::unordered_map<int, uint64_t> fd_to_id_;
  /// Connections destroyed while a completion was in flight, with their
  /// search's handle (null for a coalesced request): the response is
  /// dropped on arrival (admission was already released by the router's
  /// completion path).
  std::unordered_map<uint64_t, std::shared_ptr<PendingSearch>> zombies_;
  bool draining_started_ = false;
  bool cancel_sent_ = false;
  Clock::time_point drain_deadline_{};
  Clock::time_point hard_deadline_{};
};

HttpServer::HttpServer(RequestRouter* router, HttpServerOptions options)
    : router_(router), options_(std::move(options)) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Internal("server already running");
  }
  // htons would silently wrap an out-of-range port (70000 binds 4464).
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port out of range [0, 65535]: " +
                                   std::to_string(options_.port));
  }
  // Socket writes to dead peers must surface as EPIPE, not kill the
  // process (also covers the wake pipe racing shutdown).
  ::signal(SIGPIPE, SIG_IGN);

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Errno("bind");
    ::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, options_.backlog) < 0) {
    const Status status = Errno("listen");
    ::close(listen_fd);
    return status;
  }
  if (SetNonBlocking(listen_fd) < 0) {
    const Status status = Errno("fcntl");
    ::close(listen_fd);
    return status;
  }
  // Read back the bound port (meaningful when options_.port was 0).
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const Status status = Errno("pipe");
    ::close(listen_fd);
    return status;
  }
  SetNonBlocking(pipe_fds[0]);
  SetNonBlocking(pipe_fds[1]);
  // Every descriptor is opened before the first heap object, so a start
  // that runs out of descriptors unwinds with closes alone. (UBSan's vptr
  // check opens a pipe to probe memory the first time it sees a type; with
  // no descriptor left it would report the make_shared below as invalid.)
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    const Status status = Errno("epoll");
    ::close(listen_fd);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return status;
  }

  auto completions = std::make_shared<CompletionQueue>();
  completions->wake_write_fd = pipe_fds[1];

  impl_ = std::make_unique<Impl>(this, listen_fd, pipe_fds[0], epoll_fd,
                                 completions);
  if (!impl_->Init()) {
    const Status status = Errno("epoll");
    impl_.reset();
    return status;
  }
  shutdown_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { impl_->Run(); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Before the loop sees the request: once it cancels what it holds, the
  // router starts no search it would miss.
  router_->BeginDrain();
  bool expected = false;
  if (shutdown_requested_.compare_exchange_strong(expected, true)) {
    // Wake the loop so it notices the request promptly.
    if (impl_ != nullptr) impl_->Wake();
  }
  if (io_thread_.joinable()) io_thread_.join();
  impl_.reset();
  running_.store(false, std::memory_order_release);
}

}  // namespace tgks::server
