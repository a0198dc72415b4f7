// Wire-level tests for the from-scratch HTTP/1.1 framing in src/serve.
// Request framing is tested on the parser the daemon actually runs:
// RequestParser, fed raw bytes with feed()/next() — no sockets, threads or
// timeouts — including malformed, truncated, oversized and arbitrarily
// split streams. The blocking client's read_response() shares the head and
// Content-Length rules; its cases drive an HttpConnection over one end of
// a socketpair and speak raw bytes on the other, so EOF and stalls are
// real.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/http.hpp"
#include "serve/http_parser.hpp"
#include "util/rng.hpp"

namespace picp::serve {
namespace {

/// Every request framed by feeding `bytes` in one call.
std::vector<HttpRequest> parse_all(const std::string& bytes,
                                   const HttpLimits& limits = {}) {
  RequestParser parser(limits);
  parser.feed(bytes.data(), bytes.size());
  std::vector<HttpRequest> requests;
  HttpRequest request;
  while (parser.next(request)) requests.push_back(std::move(request));
  return requests;
}

/// Status of the HttpError that feeding `bytes` raises; 0 when none does.
int parse_error_status(const std::string& bytes,
                       const HttpLimits& limits = {}) {
  RequestParser parser(limits);
  try {
    parser.feed(bytes.data(), bytes.size());
  } catch (const HttpError& e) {
    return e.status();
  }
  return 0;
}

/// An HttpConnection (the client side under test) over a socketpair whose
/// other end the test scripts byte by byte.
struct WirePair {
  std::unique_ptr<HttpConnection> conn;
  int raw = -1;

  WirePair() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    conn = std::make_unique<HttpConnection>(fds[0]);
    raw = fds[1];
  }
  ~WirePair() {
    if (raw >= 0) ::close(raw);
  }

  void send(const std::string& bytes) const {
    ASSERT_EQ(::send(raw, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_peer() {
    ::close(raw);
    raw = -1;
  }
  std::string drain() const {
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(raw, buf, sizeof buf, MSG_DONTWAIT);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Status of the HttpError read_response raises; 0 when none does.
  int read_error_status(const HttpLimits& limits) {
    HttpResponse response;
    try {
      conn->read_response(response, limits);
    } catch (const HttpError& e) {
      return e.status();
    }
    return 0;
  }
};

HttpLimits quick_limits() {
  HttpLimits limits;
  limits.io_timeout_ms = 2000;
  return limits;
}

TEST(HttpParse, SimpleGetRequest) {
  const auto requests =
      parse_all("GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n");
  ASSERT_EQ(requests.size(), 1u);
  const HttpRequest& request = requests[0];
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_TRUE(request.keep_alive());
  ASSERT_NE(request.header("accept"), nullptr);
  EXPECT_EQ(*request.header("accept"), "*/*");
}

TEST(HttpParse, HeaderNamesAreCaseInsensitiveByConstruction) {
  const auto requests =
      parse_all("POST /v1/predict HTTP/1.1\r\nCoNtEnT-LeNgTh: 2\r\n\r\nhi");
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].body, "hi");
  ASSERT_NE(requests[0].header("content-length"), nullptr);
}

TEST(HttpParse, BodySplitAcrossManySegmentsReassembles) {
  RequestParser parser(HttpLimits{});
  HttpRequest request;
  for (const std::string segment :
       {"POST /v1/predict HTTP/1.1\r\nContent-Length: 10\r\n", "\r\n12345"}) {
    parser.feed(segment.data(), segment.size());
    EXPECT_FALSE(parser.next(request)) << "framed before the body arrived";
    EXPECT_TRUE(parser.mid_message());
  }
  parser.feed("67890", 5);
  ASSERT_TRUE(parser.next(request));
  EXPECT_EQ(request.body, "1234567890");
  EXPECT_FALSE(parser.mid_message());
}

TEST(HttpParse, ConnectionCloseDisablesKeepAlive) {
  const auto requests =
      parse_all("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_FALSE(requests[0].keep_alive());
}

TEST(HttpParse, BareLfLineEndingsTolerated) {
  const auto requests = parse_all("GET /healthz HTTP/1.1\nHost: x\n\n");
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].target, "/healthz");
}

TEST(HttpParse, CleanEofBeforeFirstByteReturnsFalse) {
  // Parser: nothing fed is a clean message boundary.
  RequestParser parser(HttpLimits{});
  HttpRequest request;
  EXPECT_FALSE(parser.next(request));
  EXPECT_FALSE(parser.mid_message());

  // Client: a peer closing an idle keep-alive connection is not an error.
  WirePair wire;
  wire.close_peer();
  HttpResponse response;
  EXPECT_FALSE(wire.conn->read_response(response, quick_limits()));
}

TEST(HttpParse, EofMidMessageIsAnError) {
  // Parser: a partial head is mid-message (the reactor's dirty EOF).
  RequestParser parser(HttpLimits{});
  const std::string partial = "GET /healthz HTTP/1.1\r\nHos";
  parser.feed(partial.data(), partial.size());
  HttpRequest request;
  EXPECT_FALSE(parser.next(request));
  EXPECT_TRUE(parser.mid_message());

  // Client: EOF inside a response head is a 400.
  WirePair wire;
  wire.send("HTTP/1.1 200 OK\r\nContent-Le");
  wire.close_peer();
  EXPECT_EQ(wire.read_error_status(quick_limits()), 400);
}

TEST(HttpParse, MalformedRequestLineIs400) {
  EXPECT_EQ(parse_error_status("COMPLETE NONSENSE\r\n\r\n"), 400);
}

TEST(HttpParse, NegativeContentLengthIs400) {
  EXPECT_EQ(parse_error_status("POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
            400);
}

TEST(HttpParse, ChunkedTransferEncodingIs501) {
  EXPECT_EQ(parse_error_status(
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            501);
}

TEST(HttpParse, OversizedCompleteHeaderBlockIs431) {
  HttpLimits limits = quick_limits();
  limits.max_header_bytes = 256;
  std::string pad(1024, 'a');
  EXPECT_EQ(parse_error_status("GET / HTTP/1.1\r\nX-Big: " + pad + "\r\n\r\n",
                               limits),
            431);

  WirePair wire;
  wire.send("HTTP/1.1 200 OK\r\nX-Big: " + pad + "\r\n\r\n");
  EXPECT_EQ(wire.read_error_status(limits), 431);
}

TEST(HttpParse, UnterminatedHeaderStreamIs431) {
  // No terminator at all: the cap must fire from buffered growth alone.
  HttpLimits limits = quick_limits();
  limits.max_header_bytes = 256;
  const std::string drip(1024, 'b');
  EXPECT_EQ(parse_error_status("GET / HTTP/1.1\r\nX-Drip: " + drip, limits),
            431);

  WirePair wire;
  wire.send("HTTP/1.1 200 OK\r\nX-Drip: " + drip);
  EXPECT_EQ(wire.read_error_status(limits), 431);
}

TEST(HttpParse, OversizedBodyIsRejectedBeforeItIsRead) {
  // Only the head is sent: the 413 must come from the declared length, not
  // from buffering a body we intend to refuse.
  HttpLimits limits = quick_limits();
  limits.max_body_bytes = 16;
  EXPECT_EQ(parse_error_status(
                "POST / HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n", limits),
            413);

  WirePair wire;
  wire.send("HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\n");
  EXPECT_EQ(wire.read_error_status(limits), 413);
}

TEST(HttpParse, StalledPeerTimesOutWith408) {
  // The parser has no clock (the reactor owns receive budgets; see
  // test_reactor's slow-loris cases); the blocking client does.
  WirePair wire;
  HttpLimits limits;
  limits.io_timeout_ms = 60;
  wire.send("HTTP/1.1 200 OK\r\nContent-Length:");  // then silence
  EXPECT_EQ(wire.read_error_status(limits), 408);
}

TEST(HttpParse, AnySplitOfAPipelinedStreamParsesLikeOneFeed) {
  // Property: framing depends on the bytes, never on how the socket
  // happened to chunk them. A seeded stream of pipelined requests, cut at
  // random points (single bytes included) and drained between feeds,
  // yields exactly the requests one whole feed does.
  Xoshiro256 rng(20210517);
  const char* methods[] = {"GET", "POST", "PUT"};
  std::string stream;
  for (int i = 0; i < 24; ++i) {
    const std::string eol = rng.uniform_below(4) == 0 ? "\n" : "\r\n";
    const std::string body(rng.uniform_below(3) == 0 ? 0 : rng.uniform_below(40),
                           static_cast<char>('a' + i % 26));
    stream += std::string(methods[rng.uniform_below(3)]) + " /r" +
              std::to_string(i) + " HTTP/1.1" + eol;
    if (rng.uniform_below(2) == 0) stream += "X-Seq: " + std::to_string(i) + eol;
    if (!body.empty() || rng.uniform_below(2) == 0)
      stream += "Content-Length: " + std::to_string(body.size()) + eol;
    stream += eol + body;
  }
  const std::vector<HttpRequest> whole = parse_all(stream);
  ASSERT_EQ(whole.size(), 24u);

  for (int trial = 0; trial < 200; ++trial) {
    RequestParser parser(HttpLimits{});
    std::vector<HttpRequest> split;
    HttpRequest request;
    for (std::size_t pos = 0; pos < stream.size();) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform_below(trial % 2 == 0 ? 4 : 64),
                                stream.size() - pos);
      parser.feed(stream.data() + pos, n);
      pos += n;
      while (parser.next(request)) split.push_back(std::move(request));
    }
    EXPECT_FALSE(parser.mid_message());
    ASSERT_EQ(split.size(), whole.size()) << "trial " << trial;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(split[i].method, whole[i].method);
      EXPECT_EQ(split[i].target, whole[i].target);
      EXPECT_EQ(split[i].version, whole[i].version);
      EXPECT_EQ(split[i].headers, whole[i].headers);
      EXPECT_EQ(split[i].body, whole[i].body);
    }
  }
}

TEST(HttpRoundTrip, ResponseWriteThenParse) {
  HttpResponse out;
  out.status = 404;
  out.set_header("Content-Type", "application/json");
  out.set_header("X-Picp-Cache", "miss");
  out.body = "{\"error\":\"no\"}";
  const std::string wire_bytes = serialize_response(out);
  EXPECT_NE(wire_bytes.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire_bytes.find("Content-Length: 14\r\n"), std::string::npos);

  WirePair client_side;
  client_side.send(wire_bytes);
  HttpResponse in;
  ASSERT_TRUE(client_side.conn->read_response(in, quick_limits()));
  EXPECT_EQ(in.status, 404);
  EXPECT_EQ(in.body, out.body);
  ASSERT_NE(in.header("x-picp-cache"), nullptr);
  EXPECT_EQ(*in.header("x-picp-cache"), "miss");
}

TEST(HttpRoundTrip, RequestWriteThenParse) {
  WirePair client_side;
  HttpRequest out;
  out.method = "POST";
  out.target = "/v1/predict";
  out.body = "{\"ranks\":[16]}";
  client_side.conn->write_request(out, "127.0.0.1:9");

  const auto requests = parse_all(client_side.drain());
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].method, "POST");
  EXPECT_EQ(requests[0].target, "/v1/predict");
  EXPECT_EQ(requests[0].body, out.body);
  ASSERT_NE(requests[0].header("host"), nullptr);
}

TEST(HttpRoundTrip, PipelinedKeepAliveRequestsParseBackToBack) {
  const auto requests = parse_all(
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz"
      "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].target, "/a");
  EXPECT_EQ(requests[1].target, "/b");
  EXPECT_EQ(requests[1].body, "xyz");
  EXPECT_EQ(requests[2].target, "/c");
  EXPECT_FALSE(requests[2].keep_alive());
}

TEST(HttpRoundTrip, StatusReasonsCoverTheServingSet) {
  EXPECT_STREQ(status_reason(200), "OK");
  EXPECT_STREQ(status_reason(400), "Bad Request");
  EXPECT_STREQ(status_reason(404), "Not Found");
  EXPECT_STREQ(status_reason(405), "Method Not Allowed");
  EXPECT_STREQ(status_reason(408), "Request Timeout");
  EXPECT_STREQ(status_reason(503), "Service Unavailable");
}

}  // namespace
}  // namespace picp::serve
