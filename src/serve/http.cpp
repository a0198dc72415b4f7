#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "serve/http_parser.hpp"
#include "telemetry/json.hpp"
#include "util/failpoint.hpp"
#include "util/string_util.hpp"

namespace picp::serve {

namespace {

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& lower_name) {
  for (const auto& [name, value] : headers)
    if (to_lower(name) == lower_name) return &value;
  return nullptr;
}

/// Milliseconds left of a deadline; clamped at >= 1 so poll never spins.
int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  if (left <= 0) throw HttpError(408, "receive timeout");
  return static_cast<int>(left > 1 ? left : 1);
}

}  // namespace

const std::string* HttpRequest::header(const std::string& lower_name) const {
  return find_header(headers, lower_name);
}

bool HttpRequest::keep_alive() const {
  const std::string* connection = header("connection");
  if (connection == nullptr) return version != "HTTP/1.0";
  return to_lower(*connection) != "close";
}

const std::string* HttpResponse::header(
    const std::string& lower_name) const {
  return find_header(headers, lower_name);
}

void HttpResponse::set_header(const std::string& name,
                              const std::string& value) {
  for (auto& [existing, existing_value] : headers) {
    if (to_lower(existing) == to_lower(name)) {
      existing_value = value;
      return;
    }
  }
  headers.emplace_back(name, value);
}

std::string target_path(const std::string& target) {
  const std::size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::string query_param(const std::string& target, const std::string& key) {
  const std::size_t q = target.find('?');
  if (q == std::string::npos) return "";
  std::size_t pos = q + 1;
  while (pos < target.size()) {
    std::size_t end = target.find('&', pos);
    if (end == std::string::npos) end = target.size();
    const std::size_t eq = target.find('=', pos);
    if (eq != std::string::npos && eq < end) {
      if (target.compare(pos, eq - pos, key) == 0)
        return target.substr(eq + 1, end - eq - 1);
    } else if (target.compare(pos, end - pos, key) == 0) {
      return "1";  // bare flag: ?ready counts as ready=1
    }
    pos = end + 1;
  }
  return "";
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string error_body(int status, const std::string& message) {
  Json error = Json::object();
  error.set("status", Json(status));
  error.set("message", Json(message));
  Json body = Json::object();
  body.set("error", std::move(error));
  return body.dump() + "\n";
}

HttpConnection::HttpConnection(int fd) : fd_(fd) {}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConnection::fill(int timeout_ms) {
  failpoint::inject("http.read");
  // Wait for NEW bytes on the socket; buffered-but-unconsumed bytes are
  // not readiness, or the recv below could block forever on a stalled
  // peer.
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms <= 0 ? -1 : timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) throw HttpError(408, "receive timeout");
    if (rc < 0)
      throw HttpError(400, std::string("poll: ") + std::strerror(errno));
    break;
  }
  char chunk[8192];
  for (;;) {
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0)
      throw HttpError(400, std::string("recv: ") + std::strerror(errno));
    if (got == 0) return false;
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
    return true;
  }
}

bool HttpConnection::read_head(std::string& head, const HttpLimits& limits) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(limits.io_timeout_ms);
  for (;;) {
    const std::size_t end = wire::find_head_end(buffer_, pos_);
    // Enforce the cap on complete heads too, not just unterminated ones —
    // a peer that delivers a huge header block in one burst still finds a
    // terminator, and must still be refused.
    if (end != std::string::npos) {
      if (end - pos_ > limits.max_header_bytes)
        throw HttpError(431, "header block exceeds " +
                                 std::to_string(limits.max_header_bytes) +
                                 " bytes");
      head.assign(buffer_, pos_, end - pos_);
      pos_ = end;
      return true;
    }
    if (buffer_.size() - pos_ > limits.max_header_bytes)
      throw HttpError(431, "header block exceeds " +
                               std::to_string(limits.max_header_bytes) +
                               " bytes");
    const int wait = limits.io_timeout_ms <= 0 ? -1 : remaining_ms(deadline);
    if (!fill(wait)) {
      if (buffer_.size() == pos_) return false;  // clean EOF between messages
      throw HttpError(400, "connection closed mid-message");
    }
  }
}

void HttpConnection::read_body(std::size_t length, std::string& body,
                               const HttpLimits& limits) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(limits.io_timeout_ms);
  while (buffer_.size() - pos_ < length) {
    const int wait = limits.io_timeout_ms <= 0 ? -1 : remaining_ms(deadline);
    if (!fill(wait)) throw HttpError(400, "connection closed mid-body");
  }
  body.assign(buffer_, pos_, length);
  pos_ += length;
}

bool HttpConnection::read_response(HttpResponse& response,
                                   const HttpLimits& limits) {
  std::string head;
  if (!read_head(head, limits)) return false;
  std::string start_line;
  wire::parse_head_block(head, start_line, response.headers);

  // Status line: HTTP/x.y SP code SP reason
  const std::size_t sp1 = start_line.find(' ');
  if (start_line.rfind("HTTP/", 0) != 0 || sp1 == std::string::npos)
    throw HttpError(400, "malformed status line: " + start_line);
  try {
    response.status =
        static_cast<int>(parse_int(start_line.substr(sp1 + 1, 3)));
  } catch (const Error&) {
    throw HttpError(400, "malformed status code in: " + start_line);
  }

  read_body(wire::content_length_of(response.headers, limits), response.body,
            limits);
  return true;
}

void HttpConnection::write_all(const char* data, std::size_t size) {
  failpoint::inject("http.write");
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0)
      throw Error(std::string("send: ") + std::strerror(errno));
    sent += static_cast<std::size_t>(n);
  }
}

std::string serialize_response(const HttpResponse& response) {
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_reason(response.status) + "\r\n";
  for (const auto& [name, value] : response.headers)
    wire += name + ": " + value + "\r\n";
  wire += "Content-Length: " + std::to_string(response.body.size()) +
          "\r\n\r\n";
  wire += response.body;
  return wire;
}

void HttpConnection::write_request(const HttpRequest& request,
                                   const std::string& host_header) {
  std::string wire =
      request.method + " " + request.target + " HTTP/1.1\r\n";
  wire += "Host: " + host_header + "\r\n";
  for (const auto& [name, value] : request.headers)
    wire += name + ": " + value + "\r\n";
  wire += "Content-Length: " + std::to_string(request.body.size()) +
          "\r\n\r\n";
  wire += request.body;
  write_all(wire.data(), wire.size());
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* list = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &list);
  PICP_REQUIRE(rc == 0 && list != nullptr,
               "cannot resolve " + host + ": " + gai_strerror(rc));
  int fd = -1;
  std::string last_error = "no addresses";
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(list);
  PICP_REQUIRE(fd >= 0, "cannot connect to " + host + ":" +
                            std::to_string(port) + " — " + last_error);
  // The client blocks on small request/response pairs; disable Nagle so a
  // closed-loop bench measures the service, not delayed ACK coalescing.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace picp::serve
