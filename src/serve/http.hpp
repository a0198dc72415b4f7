#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace picp::serve {

/// Thrown on malformed or oversized wire input. Carries the HTTP status the
/// peer should see (400 bad request, 408 timeout, 413/431 too large, 501
/// unimplemented); the server maps it into a structured JSON error body.
class HttpError : public Error {
 public:
  HttpError(int status, const std::string& detail)
      : Error(detail), status_(status) {}
  int status() const { return status_; }

 private:
  int status_;
};

/// One parsed HTTP/1.1 request. Header names are lower-cased during
/// parsing, so lookups are case-insensitive by construction.
struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // origin-form, e.g. "/v1/predict"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// True when the peer connected from 127.0.0.0/8 or ::1 — set by the
  /// server at accept time, never from wire bytes. Gates admin endpoints.
  bool from_loopback = false;

  /// Header value by lower-case name; nullptr when absent.
  const std::string* header(const std::string& lower_name) const;
  /// HTTP/1.1 defaults to keep-alive unless `Connection: close`.
  bool keep_alive() const;
};

/// One HTTP response about to be serialized (server side) or just parsed
/// (client side). Content-Length is emitted automatically from `body`.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* header(const std::string& lower_name) const;
  void set_header(const std::string& name, const std::string& value);
};

/// The path component of an origin-form target ("/metricsz?format=x" →
/// "/metricsz"). Routing and per-endpoint metrics key on this, so a query
/// string can never mint a new metric name.
std::string target_path(const std::string& target);

/// Value of one query parameter ("" when absent). A bare flag with no `=`
/// reads as "1", so `?ready` and `?ready=1` are equivalent. No %-decoding:
/// picpredict's own query strings are plain tokens.
std::string query_param(const std::string& target, const std::string& key);

/// Canonical reason phrase for a status code ("OK", "Not Found", ...).
const char* status_reason(int status);

/// JSON body of a structured error reply, `{"error":{"status":N,
/// "message":...}}` plus a newline. Every error the daemon sends, from the
/// service or the reactor, is rendered here.
std::string error_body(int status, const std::string& message);

/// Wire bytes for one response (status line, headers, Content-Length
/// framing, body) — what the reactor queues in per-connection output
/// buffers.
std::string serialize_response(const HttpResponse& response);

/// Wire limits and timeouts for one connection.
struct HttpLimits {
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_body_bytes = 4 * 1024 * 1024;
  /// Client side only: budget for receiving one complete response. <= 0
  /// means no timeout. The reactor's budget is
  /// ReactorOptions::request_timeout_ms.
  int io_timeout_ms = 30000;
};

/// Buffered, blocking HTTP/1.1 client framing over one socket (or pipe)
/// fd. Owns the fd. The server side is the epoll reactor's RequestParser;
/// neither side speaks chunked transfer encoding — all bodies are
/// Content-Length framed, which is all picpredict's own peers ever produce.
class HttpConnection {
 public:
  /// Takes ownership of `fd` (closed on destruction).
  explicit HttpConnection(int fd);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  int fd() const { return fd_; }

  /// Read one full response. Returns false on clean EOF before the first
  /// byte (peer closed an idle keep-alive connection); throws HttpError on
  /// malformed input, oversize messages, or timeout.
  bool read_response(HttpResponse& response, const HttpLimits& limits);

  void write_request(const HttpRequest& request,
                     const std::string& host_header);

 private:
  /// Read the header block up to and including CRLFCRLF. Returns false on
  /// clean EOF at a message boundary.
  bool read_head(std::string& head, const HttpLimits& limits);
  void read_body(std::size_t length, std::string& body,
                 const HttpLimits& limits);
  /// One recv into the buffer; returns false on EOF. Throws on timeout.
  bool fill(int timeout_ms);
  void write_all(const char* data, std::size_t size);

  int fd_;
  std::string buffer_;   // bytes received but not yet consumed
  std::size_t pos_ = 0;  // consume cursor into buffer_
};

/// Connect to host:port (numeric IPv4 or a resolvable name). Throws
/// picp::Error with the connect errno on failure.
int connect_tcp(const std::string& host, std::uint16_t port);

}  // namespace picp::serve
