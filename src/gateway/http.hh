/**
 * @file
 * Incremental HTTP/1.1 for the gateway: a request-parser state machine
 * fed arbitrary byte slices (the epoll loop hands it whatever recv
 * produced -- torn lines, pipelined requests, one byte at a time), plus
 * response builders including chunked transfer encoding for streaming
 * in-progress campaign results, and a client-side response parser for
 * the tests and the bench harness.
 *
 * The request parser is total and bounded: every malformed or oversized
 * input lands in a terminal Error phase with a concrete HTTP status
 * (400/413/414/431/501/505) and a reason, never a hang, a crash, or an
 * unbounded buffer. Limits are explicit (request-line bytes, header
 * bytes, header count, body bytes) so the fuzz corpus can pin each
 * rejection class. Bare-LF line endings are tolerated on input (robust
 * parsing of sloppy clients); output is always strict CRLF.
 *
 * Keep-alive follows the spec defaults -- HTTP/1.1 persists unless
 * "Connection: close", HTTP/1.0 closes unless "Connection: keep-alive"
 * -- and `Expect: 100-continue` is surfaced to the caller so the event
 * loop can emit the interim response instead of deadlocking against a
 * curl that politely waits before sending its body. Request bodies are
 * Content-Length only; Transfer-Encoding on a *request* is answered 501
 * (the gateway streams responses, it does not accept streamed uploads).
 */

#ifndef ECOLO_GATEWAY_HTTP_HH
#define ECOLO_GATEWAY_HTTP_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ecolo::gateway {

/** One fully parsed request. Header names are lower-cased. */
struct HttpRequest
{
    std::string method;
    std::string target; //!< raw request-target ("/v1/runs?stream=1")
    std::string path;   //!< target up to '?'
    std::string query;  //!< target after '?' (no '?'; may be empty)
    int versionMajor = 1;
    int versionMinor = 1;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
    bool keepAlive = true;
    bool expectContinue = false;

    /** First header value by lower-case name; nullptr when absent. */
    const std::string *header(const std::string &lower_name) const;
};

/**
 * Feed-driven request parser. feed() consumes as much of the input as
 * the current request needs and stops at a request boundary, so the
 * caller can detect pipelined bytes (consumed < size on Complete) and
 * replay them into the next request after reset().
 */
class HttpRequestParser
{
  public:
    struct Limits
    {
        std::size_t maxRequestLineBytes = 8192;
        std::size_t maxHeaderBytes = 32768; //!< all header lines together
        std::size_t maxHeaderCount = 100;
        std::size_t maxBodyBytes = 1u << 20;
    };

    enum class Phase : std::uint8_t
    {
        RequestLine,
        Headers,
        Body,
        Complete,
        Error,
    };

    HttpRequestParser() = default;
    explicit HttpRequestParser(Limits limits) : limits_(limits) {}

    /**
     * Consume up to `size` bytes; returns how many were used. Stops
     * early only on Complete (request boundary) or Error (the rest of
     * the connection's input is garbage by definition).
     */
    std::size_t feed(const char *data, std::size_t size);

    Phase phase() const { return phase_; }
    bool complete() const { return phase_ == Phase::Complete; }
    bool failed() const { return phase_ == Phase::Error; }

    /** The HTTP status a failed parse should be answered with. */
    int errorStatus() const { return errorStatus_; }
    const std::string &errorReason() const { return errorReason_; }

    /** @pre complete() (also readable mid-body for expectContinue). */
    const HttpRequest &request() const { return request_; }
    HttpRequest &request() { return request_; }

    /** Forget the current request; limits persist (keep-alive reuse). */
    void reset();

  private:
    void fail(int status, std::string reason);
    void processRequestLine(const std::string &line);
    void processHeaderLine(const std::string &line);
    void finishHeaders();

    Limits limits_;
    Phase phase_ = Phase::RequestLine;
    std::string line_;
    std::size_t headerBytes_ = 0;
    std::size_t contentLength_ = 0;
    int errorStatus_ = 0;
    std::string errorReason_;
    HttpRequest request_;
};

/** The canonical reason phrase for the statuses the gateway emits. */
const char *httpStatusReason(int status);

/** One complete fixed-length response (status line through body). */
std::string
buildHttpResponse(int status, const std::string &content_type,
                  const std::string &body, bool keep_alive,
                  const std::vector<std::pair<std::string, std::string>>
                      &extra_headers = {});

/** Status line + headers for a chunked streaming response. */
std::string
buildChunkedHead(int status, const std::string &content_type,
                 bool keep_alive);

/** `data` as one transfer chunk; empty data yields no bytes. */
std::string encodeChunk(const std::string &data);

/** The terminating zero-length chunk. */
std::string finalChunk();

/** The interim response for `Expect: 100-continue`. */
std::string continueResponse();

/** A parsed response (for tests/bench acting as the HTTP client). */
struct HttpResponse
{
    int status = 0;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body; //!< chunked transfer already decoded
    bool chunked = false;

    const std::string *header(const std::string &lower_name) const;
};

/** Feed-driven response parser; Content-Length and chunked bodies. */
class HttpResponseParser
{
  public:
    std::size_t feed(const char *data, std::size_t size);
    bool complete() const { return phase_ == Phase::Complete; }
    bool failed() const { return phase_ == Phase::Error; }
    const std::string &errorReason() const { return errorReason_; }
    const HttpResponse &response() const { return response_; }
    void reset();

  private:
    enum class Phase : std::uint8_t
    {
        StatusLine,
        Headers,
        FixedBody,
        ChunkSize,
        ChunkData,
        ChunkDataEnd,
        Trailers,
        Complete,
        Error,
    };

    void fail(std::string reason);
    void processStatusLine(const std::string &line);
    void processHeaderLine(const std::string &line);
    void finishHeaders();

    Phase phase_ = Phase::StatusLine;
    std::string line_;
    std::size_t contentLength_ = 0;
    std::size_t chunkRemaining_ = 0;
    std::string errorReason_;
    HttpResponse response_;
};

} // namespace ecolo::gateway

#endif // ECOLO_GATEWAY_HTTP_HH
