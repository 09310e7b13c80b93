/// Tests for the embedded observability HTTP listener (src/serve/http.h,
/// DESIGN.md §14): request parsing edge cases, response rendering, live
/// server behavior over real loopback sockets (404, HEAD, pipelining,
/// oversized headers, slow-loris timeout without wedging the acceptor),
/// a seeded-mutation fuzz of the request parser, and a crash-at-failpoint
/// death test with fresh-server resume.

#include <gtest/gtest.h>

#include <unistd.h>

#include <sys/socket.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.h"
#include "utils/failpoint.h"
#include "utils/socket.h"

namespace edde {
namespace serve {
namespace {

constexpr size_t kDefaultMax = 8192;

class ServeHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    failpoint::Clear();
  }
  void TearDown() override { failpoint::Clear(); }
};

// ---------------------------------------------------------------------------
// ParseHttpRequest
// ---------------------------------------------------------------------------

TEST_F(ServeHttpTest, ParsesRequestLineAndHeaders) {
  const std::string raw =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\n"
      "X-Custom:  spaced value \r\n\r\n";
  HttpRequest req;
  size_t consumed = 0;
  ASSERT_TRUE(ParseHttpRequest(raw, kDefaultMax, &req, &consumed).ok());
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.version, "HTTP/1.1");
  // Names are lowercased, values trimmed.
  ASSERT_NE(req.Header("host"), nullptr);
  EXPECT_EQ(*req.Header("host"), "localhost");
  ASSERT_NE(req.Header("x-custom"), nullptr);
  EXPECT_EQ(*req.Header("x-custom"), "spaced value");
  EXPECT_EQ(req.Header("absent"), nullptr);
}

TEST_F(ServeHttpTest, IncompleteRequestAsksForMoreBytes) {
  HttpRequest req;
  size_t consumed = 99;
  ASSERT_TRUE(ParseHttpRequest("GET /metrics HTTP/1.1\r\nHost: x\r\n",
                               kDefaultMax, &req, &consumed)
                  .ok());
  EXPECT_EQ(consumed, 0u);  // no blank line yet
}

TEST_F(ServeHttpTest, MalformedRequestLineIsInvalidArgument) {
  HttpRequest req;
  size_t consumed = 0;
  for (const char* raw :
       {"GARBAGE\r\n\r\n", "GET /x\r\n\r\n", "GET /x NOTHTTP/1.1x y\r\n\r\n",
        " GET /x HTTP/1.1\r\n\r\n"}) {
    const Status s = ParseHttpRequest(raw, kDefaultMax, &req, &consumed);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << raw;
  }
}

TEST_F(ServeHttpTest, HeaderWithoutColonIsInvalidArgument) {
  HttpRequest req;
  size_t consumed = 0;
  const Status s = ParseHttpRequest(
      "GET / HTTP/1.1\r\nno colon here\r\n\r\n", kDefaultMax, &req,
      &consumed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeHttpTest, RequestBodyIsRejected) {
  // GET with a nonzero Content-Length would desynchronize pipelining.
  HttpRequest req;
  size_t consumed = 0;
  const Status s = ParseHttpRequest(
      "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", kDefaultMax, &req,
      &consumed);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeHttpTest, OversizedHeaderBlockIsFailedPrecondition) {
  const std::string big(300, 'a');
  HttpRequest req;
  size_t consumed = 0;
  // Complete but oversized.
  Status s = ParseHttpRequest("GET / HTTP/1.1\r\nx-big: " + big + "\r\n\r\n",
                              /*max_header_bytes=*/128, &req, &consumed);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // Still incomplete, but already past the cap — must not wait for more.
  s = ParseHttpRequest("GET / HTTP/1.1\r\nx-big: " + big,
                       /*max_header_bytes=*/128, &req, &consumed);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeHttpTest, PipelinedRequestsParseSequentially) {
  const std::string first = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string second = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  std::string buffer = first + second;
  HttpRequest req;
  size_t consumed = 0;
  ASSERT_TRUE(ParseHttpRequest(buffer, kDefaultMax, &req, &consumed).ok());
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_EQ(consumed, first.size());
  buffer.erase(0, consumed);
  ASSERT_TRUE(ParseHttpRequest(buffer, kDefaultMax, &req, &consumed).ok());
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(consumed, second.size());
}

// Seeded mutations of raw requests: bit flips, truncations, splices of two
// requests, delimiters inserted or replaced, hostile header lines, and
// header values inflated past a small size cap.
class HttpMutator {
 public:
  explicit HttpMutator(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::string Mutate(std::string raw, const std::vector<std::string>& corpus) {
    static const char kDelims[] = " :\r\n\t/";
    static const char* const kLines[] = {
        "Content-Length: 7\r\n", "Content-Length: 0\r\n", ": x\r\n",
        "x y: z\r\n", "no colon\r\n", "\r\n", "\n", "Host:\r\n",
        " GET / HTTP/1.1\r\n"};
    const int rounds = 1 + static_cast<int>(Below(3));
    for (int i = 0; i < rounds; ++i) {
      const size_t at = Below(raw.size() + 1);
      switch (Below(7)) {
        case 0:  // bit flip
          if (!raw.empty()) {
            raw[Below(raw.size())] ^= static_cast<char>(1u << Below(8));
          }
          break;
        case 1:  // truncation
          raw.resize(at);
          break;
        case 2: {  // splice with another request
          const std::string& other = corpus[Below(corpus.size())];
          raw = raw.substr(0, at) + other.substr(Below(other.size() + 1));
          break;
        }
        case 3:  // inserted delimiter
          raw.insert(at, 1, kDelims[Below(sizeof(kDelims) - 1)]);
          break;
        case 4:  // replaced delimiter
          if (!raw.empty()) {
            raw[Below(raw.size())] = kDelims[Below(sizeof(kDelims) - 1)];
          }
          break;
        case 5: {  // a hostile line at the start of a line
          const size_t eol = raw.find('\n', at);
          const size_t line = eol == std::string::npos ? raw.size() : eol + 1;
          raw.insert(line, kLines[Below(sizeof(kLines) / sizeof(kLines[0]))]);
          break;
        }
        default:  // an inflated run
          raw.insert(at, Below(200), 'a');
          break;
      }
    }
    return raw;
  }

 private:
  std::mt19937_64 rng_;
};

std::vector<std::string> HttpSeedCorpus() {
  return {
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n",
      "HEAD /healthz HTTP/1.0\r\n\r\n",
      "GET /statusz HTTP/1.1\r\nHost: 127.0.0.1:9000\r\n"
      "Connection: keep-alive\r\nAccept: */*\r\n\r\n",
      "GET /metrics HTTP/1.1\nHost: x\n\n",  // bare-LF client
      "GET / HTTP/1.1\r\nContent-Length: 0\r\nX-Custom:  spaced value \r\n"
      "\r\n",
      "POST /metrics HTTP/1.1\r\nUser-Agent: edde-top\r\n\r\n",
      "GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n",
      "GET /a%20b?q=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
      // Malformed ones, so splices carry their pieces.
      "GARBAGE\r\n\r\n",
      "GET /x\r\n\r\n",
      "GET / HTTP/1.1\r\nno colon here\r\n\r\n",
      "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
  };
}

bool SameRequest(const HttpRequest& a, const HttpRequest& b) {
  return a.method == b.method && a.path == b.path && a.version == b.version &&
         a.headers == b.headers;
}

// Every mutant is answered with one of the parser's three outcomes, and a
// parse never claims bytes past the buffer. Small caps reach the 431 path.
TEST_F(ServeHttpTest, MutatedRequestsParseToADefinedOutcome) {
  HttpMutator m(20261019);
  const std::vector<std::string> corpus = HttpSeedCorpus();
  int complete = 0, incomplete = 0, malformed = 0, too_large = 0;
  constexpr int kCases = 20000;
  for (int i = 0; i < kCases; ++i) {
    const std::string raw = m.Mutate(corpus[m.Below(corpus.size())], corpus);
    const size_t cap = m.Below(4) == 0 ? 64 : kDefaultMax;
    HttpRequest req;
    size_t consumed = 0;
    const Status s = ParseHttpRequest(raw, cap, &req, &consumed);
    ASSERT_LE(consumed, raw.size()) << raw;
    switch (s.code()) {
      case StatusCode::kOk:
        if (consumed == 0) {
          ++incomplete;
        } else {
          ++complete;
          ASSERT_FALSE(req.path.empty()) << raw;
          ASSERT_EQ(req.version.rfind("HTTP/", 0), 0u) << raw;
        }
        break;
      case StatusCode::kInvalidArgument:
        ASSERT_EQ(consumed, 0u) << raw;
        ++malformed;
        break;
      case StatusCode::kFailedPrecondition:
        ASSERT_EQ(consumed, 0u) << raw;
        ++too_large;
        break;
      default:
        FAIL() << "unexpected status " << s << " on: " << raw;
    }
  }
  // The mutants reach every outcome, not only the syntax errors.
  EXPECT_GT(complete, kCases / 50);
  EXPECT_GT(incomplete, kCases / 50);
  EXPECT_GT(malformed, kCases / 50);
  EXPECT_GT(too_large, kCases / 50);
}

// A request that arrives in two reads parses as it does in one: every
// prefix short of the request asks for more bytes, and every longer one
// yields the same request and the same byte count.
TEST_F(ServeHttpTest, RequestSplitAtEveryByteParsesAsWhole) {
  int valid = 0;
  for (const std::string& raw : HttpSeedCorpus()) {
    HttpRequest whole;
    size_t whole_consumed = 0;
    if (!ParseHttpRequest(raw, kDefaultMax, &whole, &whole_consumed).ok() ||
        whole_consumed == 0) {
      continue;
    }
    ++valid;
    for (size_t split = 0; split <= raw.size(); ++split) {
      SCOPED_TRACE(::testing::Message() << "split " << split << " of: " << raw);
      HttpRequest req;
      size_t consumed = 0;
      ASSERT_TRUE(
          ParseHttpRequest(raw.substr(0, split), kDefaultMax, &req, &consumed)
              .ok());
      if (split < whole_consumed) {
        ASSERT_EQ(consumed, 0u);
      } else {
        ASSERT_EQ(consumed, whole_consumed);
        ASSERT_TRUE(SameRequest(req, whole));
      }
    }
  }
  EXPECT_EQ(valid, 8);
}

TEST_F(ServeHttpTest, RenderResponseHeadKeepsHeadersDropsBody) {
  HttpResponse resp;
  resp.body = "0123456789";
  const std::string full =
      RenderHttpResponse(resp, /*keep_alive=*/true, /*head=*/false);
  const std::string head =
      RenderHttpResponse(resp, /*keep_alive=*/false, /*head=*/true);
  EXPECT_NE(full.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(full.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(full.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(full.find("0123456789"), std::string::npos);
  // HEAD advertises the real Content-Length but carries no body.
  EXPECT_NE(head.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(head.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(head.find("0123456789"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live server
// ---------------------------------------------------------------------------

void RegisterPing(HttpServer* server) {
  server->Handle("/ping", [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = "pong\n";
    return resp;
  });
}

/// Sends `request` raw and reads until the peer closes (the tests always
/// ask for or force Connection: close).
std::string RawRoundTrip(uint16_t port, const std::string& request) {
  Result<UniqueFd> conn = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(conn.ok()) << conn.status();
  if (!conn.ok()) return "";
  const UniqueFd& fd = conn.ValueOrDie();
  // Belt-and-braces: never let a server bug hang the whole test binary.
  struct timeval tv = {10, 0};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  EXPECT_GT(::send(fd.get(), request.data(), request.size(), MSG_NOSIGNAL),
            0);
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  return raw;
}

TEST_F(ServeHttpTest, ServesRegisteredPathAndEchoesContentType) {
  HttpServer server;
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());
  Result<HttpResponse> got = HttpGet("127.0.0.1", server.port(), "/ping");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.ValueOrDie().status, 200);
  EXPECT_EQ(got.ValueOrDie().body, "pong\n");
  EXPECT_EQ(got.ValueOrDie().content_type, "text/plain; charset=utf-8");
  server.Stop();
}

TEST_F(ServeHttpTest, UnknownPathIs404) {
  HttpServer server;
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());
  Result<HttpResponse> got = HttpGet("127.0.0.1", server.port(), "/nope");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.ValueOrDie().status, 404);
  server.Stop();
}

TEST_F(ServeHttpTest, NonGetMethodIs405) {
  HttpServer server;
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string raw =
      RawRoundTrip(server.port(), "POST /ping HTTP/1.1\r\n\r\n");
  EXPECT_NE(raw.find("HTTP/1.1 405 "), std::string::npos);
  server.Stop();
}

TEST_F(ServeHttpTest, HeadGetsHeadersWithoutBody) {
  HttpServer server;
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string raw = RawRoundTrip(
      server.port(), "HEAD /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(raw.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(raw.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(raw.find("pong"), std::string::npos);
  server.Stop();
}

TEST_F(ServeHttpTest, PipelinedSecondRequestIsAnswered) {
  HttpServer server;
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());
  // Both requests in one write; the second asks to close so the reader
  // sees EOF after exactly two responses.
  const std::string raw = RawRoundTrip(
      server.port(),
      "GET /ping HTTP/1.1\r\n\r\n"
      "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
  const size_t first = raw.find("HTTP/1.1 200 OK");
  const size_t second = raw.find("HTTP/1.1 404 ");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_NE(raw.find("pong"), std::string::npos);
  server.Stop();
}

TEST_F(ServeHttpTest, OversizedHeaderGets431) {
  HttpServerConfig config;
  config.max_header_bytes = 128;
  HttpServer server(config);
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());
  const std::string raw = RawRoundTrip(
      server.port(),
      "GET /ping HTTP/1.1\r\nx-big: " + std::string(300, 'a') + "\r\n\r\n");
  EXPECT_NE(raw.find("HTTP/1.1 431 "), std::string::npos);
  server.Stop();
}

TEST_F(ServeHttpTest, SlowLorisTimesOutWithoutWedgingAcceptor) {
  HttpServerConfig config;
  config.read_timeout_ms = 200;
  HttpServer server(config);
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());

  // The loris: half a request, then silence.
  Result<UniqueFd> loris = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(loris.ok());
  const std::string partial = "GET /ping HTT";
  ASSERT_GT(::send(loris.ValueOrDie().get(), partial.data(), partial.size(),
                   MSG_NOSIGNAL),
            0);

  // While the loris dangles, a well-behaved client is served immediately —
  // the acceptor and other connections never wait on the slow one.
  Result<HttpResponse> got =
      HttpGet("127.0.0.1", server.port(), "/ping", /*timeout_ms=*/2000);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.ValueOrDie().status, 200);

  // The loris connection itself is answered 408 and closed once the read
  // timeout expires.
  std::string raw;
  char chunk[1024];
  for (;;) {
    const ssize_t n =
        ::recv(loris.ValueOrDie().get(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_NE(raw.find("HTTP/1.1 408 "), std::string::npos);
  server.Stop();
}

TEST_F(ServeHttpTest, StopIsIdempotentAndUnblocksIdleConnections) {
  HttpServer server;
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());
  // An idle keep-alive connection sits inside recv when Stop runs; the
  // shutdown must wake it instead of waiting out the read timeout.
  Result<UniqueFd> idle = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(idle.ok());
  server.Stop();
  server.Stop();  // idempotent
  char c;
  EXPECT_LE(::recv(idle.ValueOrDie().get(), &c, 1, 0), 0);
}

TEST_F(ServeHttpTest, CrashAtHttpFailpointThenFreshServerResumes) {
  // Child: arm the serve.http crash site; the first parsed request kills
  // the process with the crash exit code before dispatch.
  EXPECT_EXIT(
      {
        (void)failpoint::SetSpec("serve.http=crash:1");
        HttpServer server;
        RegisterPing(&server);
        if (!server.Start().ok()) _exit(7);
        (void)HttpGet("127.0.0.1", server.port(), "/ping");
        _exit(7);  // the failpoint never fired
      },
      ::testing::ExitedWithCode(failpoint::kCrashExitCode), "");

  // Parent: a fresh listener resumes service; the crash left nothing
  // behind that prevents binding or serving.
  HttpServer server;
  RegisterPing(&server);
  ASSERT_TRUE(server.Start().ok());
  Result<HttpResponse> got = HttpGet("127.0.0.1", server.port(), "/ping");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.ValueOrDie().status, 200);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace edde
