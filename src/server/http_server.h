// HttpServer: a dependency-free HTTP/1.1 server for the search service.
//
// One I/O thread runs a level-triggered epoll loop over nonblocking sockets:
// it accepts connections, feeds bytes to the incremental request parser,
// hands complete requests to the RequestRouter, and flushes fixed-length
// responses, honoring keep-alive. Search requests complete asynchronously
// on executor worker threads; completions are queued under a mutex and the
// loop is woken through a self-pipe, so sockets are only ever touched by
// the I/O thread.
//
// The server holds the cancel handle of every search it started, until its
// completion arrives, including searches whose client has gone away.
// Graceful shutdown (Shutdown(), typically from a SIGTERM handler) is the
// server's decision alone:
//   1. the router drains (RequestRouter::BeginDrain): /healthz turns 503 and
//      new searches are shed (503); the server stops accepting
//   2. in-flight queries keep running up to drain_timeout_ms
//   3. the server cancels every search it holds; the engine stops each at
//      its next pop, and the JSON responses (stop_reason "cancelled") of
//      clients still connected are flushed
//   4. connections close and the I/O thread exits
//
// docs/serving.md documents the wire format and these semantics.

#ifndef TGKS_SERVER_HTTP_SERVER_H_
#define TGKS_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/result.h"
#include "server/connection.h"
#include "server/request_router.h"

namespace tgks::server {

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// TCP port in [0, 65535]; 0 binds an ephemeral port (read it back via
  /// port()). Start() rejects anything outside that range.
  int port = 0;
  int backlog = 128;
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 1024;
  HttpRequestParser::Limits limits;
  /// Grace period for in-flight queries during Shutdown() before the
  /// server cancels the searches it holds.
  int drain_timeout_ms = 5000;
};

/// The serving loop. Construction does not open sockets; Start() binds,
/// listens, and launches the I/O thread. The router (and everything it
/// borrows) must outlive the server.
class HttpServer {
 public:
  HttpServer(RequestRouter* router, HttpServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts serving. Fails if the address is unavailable.
  Status Start();

  /// The bound port (after Start(); the ephemeral port when port was 0).
  int port() const { return port_; }

  /// True between a successful Start() and the end of Shutdown().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful shutdown (see the header comment). Idempotent; blocks until
  /// the I/O thread has exited. Called by the destructor if still running.
  void Shutdown();

  /// Connections currently open (tests and /varz).
  int64_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  class Impl;
  friend class Impl;

  RequestRouter* router_;
  HttpServerOptions options_;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<int64_t> open_connections_{0};
  std::unique_ptr<Impl> impl_;
  std::thread io_thread_;
};

}  // namespace tgks::server

#endif  // TGKS_SERVER_HTTP_SERVER_H_
