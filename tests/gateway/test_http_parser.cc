/**
 * @file
 * Fuzz-style corpus for the gateway's incremental HTTP/1.1 request
 * parser, plus the response builders and the client-side response
 * parser. The invariant under test: for EVERY input -- torn at
 * arbitrary byte boundaries, pipelined, oversized, or outright
 * malformed -- the parser lands in a well-formed terminal state (a
 * valid parse or a concrete 4xx/5xx error) without hanging, crashing,
 * or growing its buffers past the configured limits. The byte-by-byte
 * re-feeds are what make this meaningful under ASan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gateway/http.hh"
#include "util/rng.hh"

namespace ecolo::gateway {
namespace {

/** Feed the whole input in one call; returns bytes consumed. */
std::size_t
feedAll(HttpRequestParser &parser, const std::string &input)
{
    return parser.feed(input.data(), input.size());
}

/** Feed one byte at a time (the torn-read worst case). */
void
feedTorn(HttpRequestParser &parser, const std::string &input)
{
    std::size_t consumed = 0;
    while (consumed < input.size() && !parser.complete() &&
           !parser.failed()) {
        const std::size_t used =
            parser.feed(input.data() + consumed, 1);
        ASSERT_LE(used, 1u);
        consumed += used;
        if (used == 0)
            break; // terminal state refuses further input
    }
}

/** The terminal state must be identical however the bytes arrive. */
void
expectSplitInvariant(const std::string &input)
{
    HttpRequestParser whole;
    feedAll(whole, input);
    HttpRequestParser torn;
    feedTorn(torn, input);
    ASSERT_EQ(whole.complete(), torn.complete()) << input;
    ASSERT_EQ(whole.failed(), torn.failed()) << input;
    if (whole.failed())
        EXPECT_EQ(whole.errorStatus(), torn.errorStatus()) << input;
    if (whole.complete()) {
        EXPECT_EQ(whole.request().method, torn.request().method);
        EXPECT_EQ(whole.request().target, torn.request().target);
        EXPECT_EQ(whole.request().body, torn.request().body);
        EXPECT_EQ(whole.request().keepAlive, torn.request().keepAlive);
    }
}

TEST(GatewayHttpParser, SimpleGet)
{
    HttpRequestParser parser;
    const std::string input = "GET /v1/stats HTTP/1.1\r\n"
                              "Host: localhost\r\n\r\n";
    EXPECT_EQ(feedAll(parser, input), input.size());
    ASSERT_TRUE(parser.complete());
    const HttpRequest &req = parser.request();
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/v1/stats");
    EXPECT_TRUE(req.keepAlive);
    ASSERT_NE(req.header("host"), nullptr);
    EXPECT_EQ(*req.header("host"), "localhost");
}

TEST(GatewayHttpParser, PostWithBodyAndQuery)
{
    HttpRequestParser parser;
    const std::string body = "{\"policy\":\"standby\"}";
    const std::string input =
        "POST /v1/runs?stream=1&x=2 HTTP/1.1\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "\r\n" + body;
    EXPECT_EQ(feedAll(parser, input), input.size());
    ASSERT_TRUE(parser.complete());
    const HttpRequest &req = parser.request();
    EXPECT_EQ(req.path, "/v1/runs");
    EXPECT_EQ(req.query, "stream=1&x=2");
    EXPECT_EQ(req.body, body);
}

TEST(GatewayHttpParser, TornArrivalMatchesWholeArrival)
{
    const std::string body = "{\"days\": 1}";
    const std::vector<std::string> corpus = {
        "GET / HTTP/1.1\r\n\r\n",
        "GET /v1/runs/17 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        "POST /v1/runs HTTP/1.1\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body,
        "DELETE /v1/runs/3 HTTP/1.1\r\nHost: h\r\n\r\n",
        // Bare-LF line endings are tolerated.
        "GET /lf HTTP/1.1\nHost: h\n\n",
        // Leading blank lines before the request line are ignored.
        "\r\n\r\nGET /after-blanks HTTP/1.1\r\n\r\n",
        // And the malformed ones must fail identically too.
        "BROKEN\r\n\r\n",
        "GET /x HTTP/2.0\r\n\r\n",
        "GET /x SMTP/1.1\r\n\r\n",
        "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    };
    for (const std::string &input : corpus)
        expectSplitInvariant(input);
}

TEST(GatewayHttpParser, RandomizedSplitPointsNeverDiverge)
{
    const std::string body(257, 'x');
    const std::string input =
        "POST /v1/runs HTTP/1.1\r\n"
        "Host: box\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "\r\n" + body;
    Rng rng(20260808u);
    for (int trial = 0; trial < 64; ++trial) {
        HttpRequestParser parser;
        std::size_t offset = 0;
        while (offset < input.size() && !parser.complete() &&
               !parser.failed()) {
            const std::size_t remaining = input.size() - offset;
            const std::size_t step =
                1 + static_cast<std::size_t>(rng.next() %
                                             std::min<std::uint64_t>(
                                                 remaining, 41));
            offset += parser.feed(input.data() + offset, step);
        }
        ASSERT_TRUE(parser.complete()) << "trial " << trial;
        EXPECT_EQ(parser.request().body, body);
    }
}

TEST(GatewayHttpParser, PipelinedRequestsStopAtBoundaries)
{
    const std::string first = "GET /a HTTP/1.1\r\n\r\n";
    const std::string second = "GET /b HTTP/1.1\r\n\r\n";
    const std::string wire = first + second;

    HttpRequestParser parser;
    const std::size_t used = parser.feed(wire.data(), wire.size());
    EXPECT_EQ(used, first.size()); // stops at the request boundary
    ASSERT_TRUE(parser.complete());
    EXPECT_EQ(parser.request().path, "/a");

    parser.reset();
    const std::size_t used2 =
        parser.feed(wire.data() + used, wire.size() - used);
    EXPECT_EQ(used2, second.size());
    ASSERT_TRUE(parser.complete());
    EXPECT_EQ(parser.request().path, "/b");
}

TEST(GatewayHttpParser, MalformedInputsYieldConcreteStatuses)
{
    struct Case
    {
        std::string input;
        int status;
    };
    const std::vector<Case> corpus = {
        {"GARBAGE NO VERSION\r\n\r\n", 400},
        {"GET\r\n\r\n", 400},
        {"GET /x HTTP/1.1 extra\r\n\r\n", 400},
        {"G@T / HTTP/1.1\r\n\r\n", 400},           // bad method char
        {"GET x-no-slash HTTP/1.1\r\n\r\n", 400},  // not origin-form
        {"GET /\x01 HTTP/1.1\r\n\r\n", 400},       // ctl in target
        {"GET / HTTP/2.0\r\n\r\n", 505},
        {"GET / FTP/1.1\r\n\r\n", 400},
        {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
        {"GET / HTTP/1.1\r\n X: folded\r\n\r\n", 400}, // obs-fold
        {"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
        {"POST / HTTP/1.1\r\nContent-Length: 1\r\n"
         "Content-Length: 2\r\n\r\n", 400},
        {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
        {"GET / HTTP/1.1\r\nExpect: something-else\r\n\r\n", 417},
    };
    for (const Case &c : corpus) {
        HttpRequestParser parser;
        feedAll(parser, c.input);
        ASSERT_TRUE(parser.failed()) << c.input;
        EXPECT_EQ(parser.errorStatus(), c.status) << c.input;
        EXPECT_FALSE(parser.errorReason().empty());
    }
}

TEST(GatewayHttpParser, OversizedInputsAreBoundedNotBuffered)
{
    HttpRequestParser::Limits limits;
    limits.maxRequestLineBytes = 64;
    limits.maxHeaderBytes = 128;
    limits.maxHeaderCount = 4;
    limits.maxBodyBytes = 32;

    { // request line too long -> 414
        HttpRequestParser parser(limits);
        const std::string input =
            "GET /" + std::string(100, 'a') + " HTTP/1.1\r\n\r\n";
        feedAll(parser, input);
        ASSERT_TRUE(parser.failed());
        EXPECT_EQ(parser.errorStatus(), 414);
    }
    { // headers too large -> 431
        HttpRequestParser parser(limits);
        const std::string input = "GET / HTTP/1.1\r\nX-Pad: " +
                                  std::string(200, 'b') + "\r\n\r\n";
        feedAll(parser, input);
        ASSERT_TRUE(parser.failed());
        EXPECT_EQ(parser.errorStatus(), 431);
    }
    { // too many headers -> 431
        HttpRequestParser parser(limits);
        std::string input = "GET / HTTP/1.1\r\n";
        for (int i = 0; i < 8; ++i)
            input += "H" + std::to_string(i) + ": v\r\n";
        input += "\r\n";
        feedAll(parser, input);
        ASSERT_TRUE(parser.failed());
        EXPECT_EQ(parser.errorStatus(), 431);
    }
    { // declared body over the cap -> 413, before any body byte
        HttpRequestParser parser(limits);
        const std::string input =
            "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
        feedAll(parser, input);
        ASSERT_TRUE(parser.failed());
        EXPECT_EQ(parser.errorStatus(), 413);
    }
    { // an endless unterminated line cannot grow the buffer forever
        HttpRequestParser parser(limits);
        const std::string flood(4096, 'z'); // no newline at all
        const std::size_t used = parser.feed(flood.data(), flood.size());
        ASSERT_TRUE(parser.failed());
        EXPECT_EQ(parser.errorStatus(), 414);
        EXPECT_LE(used, flood.size());
        // A failed parser refuses further input outright.
        EXPECT_EQ(parser.feed(flood.data(), flood.size()), 0u);
    }
}

TEST(GatewayHttpParser, RandomGarbageNeverHangsOrSucceedsByAccident)
{
    Rng rng(0xFEEDFACEu);
    for (int trial = 0; trial < 256; ++trial) {
        std::string noise;
        const std::size_t len = 1 + rng.next() % 512;
        for (std::size_t i = 0; i < len; ++i)
            noise.push_back(
                static_cast<char>(rng.next() % 256));
        HttpRequestParser parser;
        std::size_t offset = 0;
        int rounds = 0;
        while (offset < noise.size() && !parser.failed() &&
               !parser.complete() && rounds < 4096) {
            const std::size_t used =
                parser.feed(noise.data() + offset,
                            noise.size() - offset);
            offset += used;
            ++rounds;
            if (used == 0)
                break;
        }
        ASSERT_LT(rounds, 4096) << "parser failed to make progress";
        if (parser.failed()) {
            EXPECT_GE(parser.errorStatus(), 400);
            EXPECT_LE(parser.errorStatus(), 599);
        }
    }
}

TEST(GatewayHttpParser, KeepAliveDefaultsFollowTheSpec)
{
    struct Case
    {
        std::string input;
        bool keepAlive;
    };
    const std::vector<Case> corpus = {
        {"GET / HTTP/1.1\r\n\r\n", true},
        {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
        {"GET / HTTP/1.0\r\n\r\n", false},
        {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
        {"GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n", true},
        {"GET / HTTP/1.1\r\nConnection: foo, close\r\n\r\n", false},
    };
    for (const Case &c : corpus) {
        HttpRequestParser parser;
        feedAll(parser, c.input);
        ASSERT_TRUE(parser.complete()) << c.input;
        EXPECT_EQ(parser.request().keepAlive, c.keepAlive) << c.input;
    }
}

TEST(GatewayHttpParser, ExpectContinueIsSurfacedMidBody)
{
    HttpRequestParser parser;
    const std::string head = "POST / HTTP/1.1\r\n"
                             "Expect: 100-continue\r\n"
                             "Content-Length: 5\r\n\r\n";
    feedAll(parser, head);
    EXPECT_FALSE(parser.complete());
    EXPECT_EQ(parser.phase(), HttpRequestParser::Phase::Body);
    EXPECT_TRUE(parser.request().expectContinue);
    const std::string body = "hello";
    feedAll(parser, body);
    ASSERT_TRUE(parser.complete());
    EXPECT_EQ(parser.request().body, "hello");
}

TEST(GatewayHttpParser, ResetReusesLimitsAcrossKeepAlive)
{
    HttpRequestParser::Limits limits;
    limits.maxBodyBytes = 8;
    HttpRequestParser parser(limits);
    feedAll(parser, "GET /one HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(parser.complete());
    parser.reset();
    feedAll(parser, "POST /two HTTP/1.1\r\nContent-Length: 99\r\n\r\n");
    ASSERT_TRUE(parser.failed());
    EXPECT_EQ(parser.errorStatus(), 413);
}

// ---- Response builders + client-side response parser ----

TEST(GatewayHttpResponse, BuilderRoundTripsThroughParser)
{
    const std::string wire = buildHttpResponse(
        200, "application/json", "{\"ok\":true}", true,
        {{"X-Extra", "7"}});
    HttpResponseParser parser;
    EXPECT_EQ(parser.feed(wire.data(), wire.size()), wire.size());
    ASSERT_TRUE(parser.complete());
    const HttpResponse &resp = parser.response();
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, "{\"ok\":true}");
    ASSERT_NE(resp.header("x-extra"), nullptr);
    EXPECT_EQ(*resp.header("x-extra"), "7");
    ASSERT_NE(resp.header("content-length"), nullptr);
    EXPECT_EQ(*resp.header("content-length"), "11");
}

TEST(GatewayHttpResponse, ChunkedStreamRoundTrips)
{
    std::string wire = buildChunkedHead(200, "application/x-ndjson",
                                        true);
    wire += encodeChunk("{\"event\":\"accepted\"}\n");
    wire += encodeChunk("{\"event\":\"status\"}\n");
    wire += encodeChunk(""); // no bytes; must not terminate the stream
    wire += encodeChunk("{\"event\":\"done\"}\n");
    wire += finalChunk();

    // Torn delivery again: one byte at a time.
    HttpResponseParser parser;
    for (const char c : wire) {
        ASSERT_FALSE(parser.failed()) << parser.errorReason();
        parser.feed(&c, 1);
    }
    ASSERT_TRUE(parser.complete()) << parser.errorReason();
    EXPECT_TRUE(parser.response().chunked);
    EXPECT_EQ(parser.response().body,
              "{\"event\":\"accepted\"}\n{\"event\":\"status\"}\n"
              "{\"event\":\"done\"}\n");
}

TEST(GatewayHttpResponse, ContinueInterimThenFinal)
{
    std::string wire = continueResponse();
    wire += buildHttpResponse(200, "application/json", "{}", false);
    // A 100 interim response is followed by the real one; the parser
    // must not treat the interim as terminal.
    HttpResponseParser parser;
    std::size_t used = parser.feed(wire.data(), wire.size());
    ASSERT_TRUE(parser.complete());
    if (parser.response().status == 100) {
        parser.reset();
        used += parser.feed(wire.data() + used, wire.size() - used);
        ASSERT_TRUE(parser.complete());
    }
    EXPECT_EQ(parser.response().status, 200);
    EXPECT_EQ(used, wire.size());
}

TEST(GatewayHttpResponse, ReasonPhrasesCoverEmittedStatuses)
{
    for (const int status : {200, 202, 400, 404, 405, 413, 414, 417,
                             429, 431, 500, 501, 502, 503, 504, 505}) {
        EXPECT_NE(std::string(httpStatusReason(status)), "")
            << status;
    }
}

} // namespace
} // namespace ecolo::gateway
