#pragma once

// Incremental HTTP/1.1 request parsing for the epoll reactor: a
// RequestParser is fed whatever bytes the socket produced — one byte at a
// time, a half header, three pipelined requests in one burst — and yields
// complete HttpRequests as they frame. It is pure state (no fds, no
// clocks, no syscalls), which is what makes the reactor's protocol tests
// deterministic: tests drive it through a socketpair and a manual clock
// and replay exact byte schedules.
//
// The free functions underneath (head-block splitting, Content-Length
// validation) are shared with the blocking client HttpConnection in
// http.cpp, so the daemon's reactor and the CLI client cannot drift on
// what counts as a well-formed message.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "serve/http.hpp"

namespace picp::serve {

namespace wire {

/// Split one header block (start line through blank line) into the start
/// line and lower-cased name/value pairs. Tolerates bare-LF endings.
/// Throws HttpError(400) on malformed lines.
void parse_head_block(
    const std::string& head, std::string& start_line,
    std::vector<std::pair<std::string, std::string>>& headers);

/// Declared body length from the headers, validated against `limits`
/// (413 over max_body_bytes, 400 malformed, 501 chunked).
std::size_t content_length_of(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const HttpLimits& limits);

/// Find the end of a header block (index one past the CRLFCRLF / LFLF
/// terminator) in `buffer` starting at `pos`; npos when incomplete.
std::size_t find_head_end(const std::string& buffer, std::size_t pos);

}  // namespace wire

/// Push parser for a stream of HTTP/1.1 requests on one connection.
///
///   parser.feed(bytes, n);            // as many times as the socket reads
///   while (parser.next(request)) ...  // zero or more complete requests
///
/// feed() buffers and frames; next() pops the oldest complete request.
/// Malformed or oversized input throws HttpError from feed() — the
/// connection is then unrecoverable (framing is suspect) and the caller
/// responds with the error status and closes. A parser that has seen part
/// of a message reports mid_message(), which is how the reactor
/// distinguishes a slow-loris timeout / dirty EOF (408 / 400) from a
/// clean close between messages.
class RequestParser {
 public:
  explicit RequestParser(const HttpLimits& limits) : limits_(limits) {}

  /// Consume `n` bytes off the wire. Frames as many complete requests as
  /// the bytes finish; throws HttpError on protocol violations (the
  /// parser is then poisoned — no further feed/next calls).
  void feed(const char* data, std::size_t n);

  /// Pop the oldest complete request; false when none is ready.
  bool next(HttpRequest& request);

  /// Bytes of an unfinished message are buffered (head without its blank
  /// line, or a body shorter than its Content-Length).
  bool mid_message() const { return state_ != State::kIdle; }

 private:
  enum class State { kIdle, kHead, kBody };

  /// Frame as much of buffer_ as possible into ready_.
  void drain_buffer();

  HttpLimits limits_;
  State state_ = State::kIdle;
  std::string buffer_;
  std::size_t pos_ = 0;            // consume cursor into buffer_
  HttpRequest pending_;            // head parsed, body incomplete
  std::size_t body_needed_ = 0;    // remaining Content-Length bytes
  std::vector<HttpRequest> ready_; // FIFO of complete requests
  std::size_t ready_head_ = 0;
};

}  // namespace picp::serve
