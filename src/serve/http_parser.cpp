#include "serve/http_parser.hpp"

#include "util/string_util.hpp"

namespace picp::serve {

namespace wire {

namespace {

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& lower_name) {
  for (const auto& [name, value] : headers)
    if (name == lower_name) return &value;
  return nullptr;
}

/// Parse "METHOD SP target SP HTTP/x.y" into `request`; throws
/// HttpError(400) when the shape is wrong.
void parse_request_line(const std::string& start_line,
                        HttpRequest& request) {
  // Request line: METHOD SP target SP HTTP/x.y
  const std::size_t sp1 = start_line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : start_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos)
    throw HttpError(400, "malformed request line: " + start_line);
  request.method = start_line.substr(0, sp1);
  request.target = start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  request.version = start_line.substr(sp2 + 1);
  if (request.version.rfind("HTTP/", 0) != 0)
    throw HttpError(400, "malformed HTTP version: " + request.version);
  if (request.method.empty() || request.target.empty() ||
      request.target[0] != '/')
    throw HttpError(400, "malformed request target");
}

}  // namespace

void parse_head_block(
    const std::string& head, std::string& start_line,
    std::vector<std::pair<std::string, std::string>>& headers) {
  headers.clear();
  std::size_t pos = 0;
  bool first = true;
  while (pos < head.size()) {
    std::size_t eol = head.find('\n', pos);
    if (eol == std::string::npos) eol = head.size();
    std::size_t end = eol;
    if (end > pos && head[end - 1] == '\r') --end;
    const std::string line = head.substr(pos, end - pos);
    pos = eol + 1;
    if (line.empty()) break;  // blank line terminates the block
    if (first) {
      start_line = line;
      first = false;
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0)
      throw HttpError(400, "malformed header line: " + line);
    std::string name = to_lower(trim(line.substr(0, colon)));
    std::string value = trim(line.substr(colon + 1));
    if (name.empty()) throw HttpError(400, "empty header name");
    headers.emplace_back(std::move(name), std::move(value));
  }
  if (first) throw HttpError(400, "empty message head");
}

std::size_t content_length_of(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const HttpLimits& limits) {
  if (find_header(headers, "transfer-encoding") != nullptr)
    throw HttpError(501, "chunked transfer encoding not supported");
  const std::string* value = find_header(headers, "content-length");
  if (value == nullptr) return 0;
  long long length = 0;
  try {
    length = parse_int(*value);
  } catch (const Error&) {
    throw HttpError(400, "malformed Content-Length: " + *value);
  }
  if (length < 0) throw HttpError(400, "negative Content-Length");
  if (static_cast<std::size_t>(length) > limits.max_body_bytes)
    throw HttpError(413, "body exceeds " +
                             std::to_string(limits.max_body_bytes) +
                             " bytes");
  return static_cast<std::size_t>(length);
}

std::size_t find_head_end(const std::string& buffer, std::size_t pos) {
  const std::size_t crlf = buffer.find("\n\r\n", pos);
  const std::size_t bare = buffer.find("\n\n", pos);
  if (crlf != std::string::npos &&
      (bare == std::string::npos || crlf < bare))
    return crlf + 3;
  if (bare != std::string::npos) return bare + 2;
  return std::string::npos;
}

}  // namespace wire

void RequestParser::feed(const char* data, std::size_t n) {
  if (n == 0) return;
  // Reclaim consumed prefix before growing, so a long-lived keep-alive
  // connection's buffer stays proportional to one in-flight message.
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(data, n);
  drain_buffer();
}

void RequestParser::drain_buffer() {
  for (;;) {
    if (state_ != State::kBody) {
      // Looking for (or mid-way through) a header block.
      const std::size_t end = wire::find_head_end(buffer_, pos_);
      if (end == std::string::npos) {
        if (buffer_.size() - pos_ > limits_.max_header_bytes)
          throw HttpError(431, "header block exceeds " +
                                   std::to_string(limits_.max_header_bytes) +
                                   " bytes");
        state_ = buffer_.size() > pos_ ? State::kHead : State::kIdle;
        return;
      }
      if (end - pos_ > limits_.max_header_bytes)
        throw HttpError(431, "header block exceeds " +
                                 std::to_string(limits_.max_header_bytes) +
                                 " bytes");
      const std::string head(buffer_, pos_, end - pos_);
      pos_ = end;
      std::string start_line;
      pending_ = HttpRequest();
      wire::parse_head_block(head, start_line, pending_.headers);
      wire::parse_request_line(start_line, pending_);
      body_needed_ = wire::content_length_of(pending_.headers, limits_);
      state_ = State::kBody;
    }
    // Body: wait until Content-Length bytes are buffered.
    if (buffer_.size() - pos_ < body_needed_) return;
    pending_.body.assign(buffer_, pos_, body_needed_);
    pos_ += body_needed_;
    body_needed_ = 0;
    state_ = State::kIdle;
    ready_.push_back(std::move(pending_));
    pending_ = HttpRequest();
  }
}

bool RequestParser::next(HttpRequest& request) {
  if (ready_head_ >= ready_.size()) return false;
  request = std::move(ready_[ready_head_]);
  ++ready_head_;
  if (ready_head_ == ready_.size()) {
    ready_.clear();
    ready_head_ = 0;
  }
  return true;
}

}  // namespace picp::serve
