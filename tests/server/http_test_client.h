// A tiny blocking HTTP/1.1 client for loopback server tests: connects to
// 127.0.0.1:<port>, writes raw request bytes, and reads fixed-length
// responses (the server always emits Content-Length). Deliberately separate
// from the server's own parser so the tests cross-check the wire format
// with an independent implementation.

#ifndef TGKS_TESTS_SERVER_HTTP_TEST_CLIENT_H_
#define TGKS_TESTS_SERVER_HTTP_TEST_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace tgks::server::testing {

/// One parsed response: status + lowercased headers + body.
struct ClientResponse {
  int status = -1;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* FindHeader(const std::string& name) const {
    for (const auto& [key, value] : headers) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

/// A keep-alive capable blocking client over one connection.
class TestClient {
 public:
  TestClient() = default;
  ~TestClient() { Close(); }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool Connect(int port) {
    Close();
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      Close();
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    buffer_.clear();
    return true;
  }

  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads exactly one response. Returns false on connection error/EOF
  /// before a complete response arrived.
  bool ReadResponse(ClientResponse* out) {
    *out = ClientResponse{};
    size_t head_end = std::string::npos;
    for (;;) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) break;
      if (!Fill()) return false;
    }
    const std::string head = buffer_.substr(0, head_end + 2);

    // Status line: "HTTP/1.x NNN Reason".
    const size_t sp = head.find(' ');
    if (sp == std::string::npos) return false;
    out->status = std::atoi(head.c_str() + sp + 1);

    // Headers, lowercased names.
    size_t body_len = 0;
    size_t pos = head.find("\r\n") + 2;
    while (pos < head.size()) {
      const size_t eol = head.find("\r\n", pos);
      if (eol == std::string::npos || eol == pos) break;
      const std::string line = head.substr(pos, eol - pos);
      pos = eol + 2;
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      std::transform(name.begin(), name.end(), name.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
      });
      std::string value = line.substr(colon + 1);
      const size_t first = value.find_first_not_of(" \t");
      value = first == std::string::npos ? "" : value.substr(first);
      if (name == "content-length") {
        body_len = static_cast<size_t>(std::atoll(value.c_str()));
      }
      out->headers.emplace_back(std::move(name), std::move(value));
    }

    while (buffer_.size() < head_end + 4 + body_len) {
      if (!Fill()) return false;
    }
    out->body = buffer_.substr(head_end + 4, body_len);
    buffer_.erase(0, head_end + 4 + body_len);
    return true;
  }

  /// True once the peer has closed the connection (EOF on read) and no
  /// buffered bytes remain.
  bool WaitForClose() {
    while (Fill()) {
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  /// Closes with a TCP reset (SO_LINGER 0): the server sees the peer gone
  /// at once, where Close() reads as a half-close it still answers.
  void Abort() {
    if (fd_ < 0) return;
    const struct linger reset = {1, 0};
    setsockopt(fd_, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    Close();
  }

 private:
  bool Fill() {
    char chunk[16 * 1024];
    for (;;) {
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF or error.
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Renders a GET request with optional extra headers.
inline std::string GetRequest(
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  std::string out = "GET " + target + " HTTP/1.1\r\nhost: test\r\n";
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  return out;
}

/// Renders a POST request with a body and optional extra headers.
inline std::string PostRequest(
    const std::string& target, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers = {}) {
  std::string out = "POST " + target + " HTTP/1.1\r\nhost: test\r\n";
  for (const auto& [name, value] : headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "content-length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

/// One-shot: connect, send, read one response. Returns status or -1.
inline int FetchOnce(int port, const std::string& request,
                     ClientResponse* out) {
  TestClient client;
  if (!client.Connect(port)) return -1;
  if (!client.Send(request)) return -1;
  if (!client.ReadResponse(out)) return -1;
  return out->status;
}

}  // namespace tgks::server::testing

#endif  // TGKS_TESTS_SERVER_HTTP_TEST_CLIENT_H_
