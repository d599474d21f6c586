#include "gateway/http.hh"

#include <algorithm>
#include <cctype>

namespace ecolo::gateway {

namespace {

/** RFC 7230 token characters (header names, methods). */
bool
isTchar(unsigned char c)
{
    if (std::isalnum(c))
        return true;
    switch (c) {
    case '!':
    case '#':
    case '$':
    case '%':
    case '&':
    case '\'':
    case '*':
    case '+':
    case '-':
    case '.':
    case '^':
    case '_':
    case '`':
    case '|':
    case '~':
        return true;
    default:
        return false;
    }
}

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

std::string
trimOws(const std::string &s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end && (s[begin] == ' ' || s[begin] == '\t'))
        ++begin;
    while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t'))
        --end;
    return s.substr(begin, end - begin);
}

/** True when the comma-separated header value contains `token`. */
bool
hasToken(const std::string &value, const std::string &token)
{
    std::size_t pos = 0;
    while (pos <= value.size()) {
        const std::size_t comma = value.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? value.size() : comma;
        if (toLower(trimOws(value.substr(pos, end - pos))) == token)
            return true;
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return false;
}

/**
 * Strict non-negative decimal parse for Content-Length; rejects signs,
 * blanks, and anything that would overflow the cap comparison.
 */
bool
parseContentLength(const std::string &text, std::size_t &out)
{
    if (text.empty() || text.size() > 18)
        return false;
    std::size_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    out = value;
    return true;
}

} // namespace

const std::string *
HttpRequest::header(const std::string &lower_name) const
{
    for (const auto &[name, value] : headers)
        if (name == lower_name)
            return &value;
    return nullptr;
}

// ---- HttpRequestParser ----

void
HttpRequestParser::fail(int status, std::string reason)
{
    phase_ = Phase::Error;
    errorStatus_ = status;
    errorReason_ = std::move(reason);
}

void
HttpRequestParser::reset()
{
    phase_ = Phase::RequestLine;
    line_.clear();
    headerBytes_ = 0;
    contentLength_ = 0;
    errorStatus_ = 0;
    errorReason_.clear();
    request_ = HttpRequest{};
}

std::size_t
HttpRequestParser::feed(const char *data, std::size_t size)
{
    std::size_t consumed = 0;
    while (consumed < size && phase_ != Phase::Complete &&
           phase_ != Phase::Error) {
        if (phase_ == Phase::Body) {
            const std::size_t need =
                contentLength_ - request_.body.size();
            const std::size_t take =
                std::min(need, size - consumed);
            request_.body.append(data + consumed, take);
            consumed += take;
            if (request_.body.size() == contentLength_)
                phase_ = Phase::Complete;
            continue;
        }
        const char c = data[consumed++];
        if (c != '\n') {
            line_.push_back(c);
            if (phase_ == Phase::RequestLine &&
                line_.size() > limits_.maxRequestLineBytes) {
                fail(414, "request line exceeds " +
                              std::to_string(
                                  limits_.maxRequestLineBytes) +
                              " bytes");
            } else if (phase_ == Phase::Headers &&
                       headerBytes_ + line_.size() >
                           limits_.maxHeaderBytes) {
                fail(431, "headers exceed " +
                              std::to_string(limits_.maxHeaderBytes) +
                              " bytes");
            }
            continue;
        }
        // One line is complete; tolerate bare LF by making CR optional.
        if (!line_.empty() && line_.back() == '\r')
            line_.pop_back();
        std::string line;
        line.swap(line_);
        if (phase_ == Phase::RequestLine) {
            if (line.empty())
                continue; // ignore leading blank lines (robustness)
            processRequestLine(line);
        } else {
            headerBytes_ += line.size() + 2;
            processHeaderLine(line);
        }
    }
    return consumed;
}

void
HttpRequestParser::processRequestLine(const std::string &line)
{
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string::npos)
        return fail(400, "malformed request line");
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos ||
        line.find(' ', sp2 + 1) != std::string::npos)
        return fail(400, "malformed request line");

    request_.method = line.substr(0, sp1);
    request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string version = line.substr(sp2 + 1);

    if (request_.method.empty())
        return fail(400, "empty method");
    for (const char mc : request_.method)
        if (!isTchar(static_cast<unsigned char>(mc)))
            return fail(400, "invalid method token");

    if (version.size() != 8 || version.compare(0, 5, "HTTP/") != 0 ||
        !std::isdigit(static_cast<unsigned char>(version[5])) ||
        version[6] != '.' ||
        !std::isdigit(static_cast<unsigned char>(version[7])))
        return fail(400, "malformed HTTP version");
    request_.versionMajor = version[5] - '0';
    request_.versionMinor = version[7] - '0';
    if (request_.versionMajor != 1)
        return fail(505, "only HTTP/1.x is supported");

    if (request_.target.empty() || request_.target[0] != '/')
        return fail(400, "request target must be origin-form");
    for (const char tc : request_.target)
        if (static_cast<unsigned char>(tc) <= 0x20 ||
            static_cast<unsigned char>(tc) >= 0x7F)
            return fail(400, "invalid byte in request target");
    const std::size_t q = request_.target.find('?');
    request_.path = request_.target.substr(0, q);
    request_.query = q == std::string::npos
                         ? std::string()
                         : request_.target.substr(q + 1);

    phase_ = Phase::Headers;
}

void
HttpRequestParser::processHeaderLine(const std::string &line)
{
    if (line.empty())
        return finishHeaders();
    if (line[0] == ' ' || line[0] == '\t')
        return fail(400, "obsolete header folding is not supported");
    if (request_.headers.size() >= limits_.maxHeaderCount)
        return fail(431, "more than " +
                             std::to_string(limits_.maxHeaderCount) +
                             " headers");
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0)
        return fail(400, "malformed header line");
    const std::string name = line.substr(0, colon);
    for (const char nc : name)
        if (!isTchar(static_cast<unsigned char>(nc)))
            return fail(400, "invalid header name");
    request_.headers.emplace_back(toLower(name),
                                  trimOws(line.substr(colon + 1)));
}

void
HttpRequestParser::finishHeaders()
{
    if (request_.header("transfer-encoding") != nullptr)
        return fail(501, "transfer-encoding request bodies are not "
                         "supported; use content-length");

    bool sawLength = false;
    std::string lengthText;
    for (const auto &[name, value] : request_.headers) {
        if (name != "content-length")
            continue;
        if (sawLength && value != lengthText)
            return fail(400, "conflicting content-length headers");
        sawLength = true;
        lengthText = value;
    }
    if (sawLength) {
        if (!parseContentLength(lengthText, contentLength_))
            return fail(400, "malformed content-length");
        if (contentLength_ > limits_.maxBodyBytes)
            return fail(413, "body exceeds " +
                                 std::to_string(limits_.maxBodyBytes) +
                                 " bytes");
    }

    if (const std::string *expect = request_.header("expect")) {
        if (toLower(trimOws(*expect)) != "100-continue")
            return fail(417, "unsupported expectation");
        request_.expectContinue = true;
    }

    request_.keepAlive = request_.versionMinor >= 1;
    if (const std::string *conn = request_.header("connection")) {
        if (hasToken(*conn, "close"))
            request_.keepAlive = false;
        else if (hasToken(*conn, "keep-alive"))
            request_.keepAlive = true;
    }

    if (contentLength_ > 0) {
        request_.body.reserve(contentLength_);
        phase_ = Phase::Body;
    } else {
        phase_ = Phase::Complete;
    }
}

// ---- Response building ----

const char *
httpStatusReason(int status)
{
    switch (status) {
    case 100:
        return "Continue";
    case 200:
        return "OK";
    case 202:
        return "Accepted";
    case 204:
        return "No Content";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 409:
        return "Conflict";
    case 413:
        return "Payload Too Large";
    case 414:
        return "URI Too Long";
    case 417:
        return "Expectation Failed";
    case 429:
        return "Too Many Requests";
    case 431:
        return "Request Header Fields Too Large";
    case 500:
        return "Internal Server Error";
    case 501:
        return "Not Implemented";
    case 502:
        return "Bad Gateway";
    case 503:
        return "Service Unavailable";
    case 504:
        return "Gateway Timeout";
    case 505:
        return "HTTP Version Not Supported";
    default:
        return "Unknown";
    }
}

std::string
buildHttpResponse(int status, const std::string &content_type,
                  const std::string &body, bool keep_alive,
                  const std::vector<std::pair<std::string, std::string>>
                      &extra_headers)
{
    std::string out;
    out.reserve(body.size() + 160);
    out += "HTTP/1.1 ";
    out += std::to_string(status);
    out += ' ';
    out += httpStatusReason(status);
    out += "\r\nServer: edgetherm-gateway\r\n";
    if (!content_type.empty()) {
        out += "Content-Type: ";
        out += content_type;
        out += "\r\n";
    }
    out += "Content-Length: ";
    out += std::to_string(body.size());
    out += "\r\nConnection: ";
    out += keep_alive ? "keep-alive" : "close";
    out += "\r\n";
    for (const auto &[name, value] : extra_headers) {
        out += name;
        out += ": ";
        out += value;
        out += "\r\n";
    }
    out += "\r\n";
    out += body;
    return out;
}

std::string
buildChunkedHead(int status, const std::string &content_type,
                 bool keep_alive)
{
    std::string out;
    out += "HTTP/1.1 ";
    out += std::to_string(status);
    out += ' ';
    out += httpStatusReason(status);
    out += "\r\nServer: edgetherm-gateway\r\nContent-Type: ";
    out += content_type;
    out += "\r\nTransfer-Encoding: chunked\r\nConnection: ";
    out += keep_alive ? "keep-alive" : "close";
    out += "\r\n\r\n";
    return out;
}

std::string
encodeChunk(const std::string &data)
{
    if (data.empty())
        return {}; // an empty chunk would terminate the stream
    static const char *hex = "0123456789abcdef";
    std::string size;
    std::size_t n = data.size();
    while (n > 0) {
        size.insert(size.begin(), hex[n & 0xF]);
        n >>= 4;
    }
    return size + "\r\n" + data + "\r\n";
}

std::string
finalChunk()
{
    return "0\r\n\r\n";
}

std::string
continueResponse()
{
    return "HTTP/1.1 100 Continue\r\n\r\n";
}

// ---- HttpResponseParser ----

const std::string *
HttpResponse::header(const std::string &lower_name) const
{
    for (const auto &[name, value] : headers)
        if (name == lower_name)
            return &value;
    return nullptr;
}

void
HttpResponseParser::fail(std::string reason)
{
    phase_ = Phase::Error;
    errorReason_ = std::move(reason);
}

void
HttpResponseParser::reset()
{
    phase_ = Phase::StatusLine;
    line_.clear();
    contentLength_ = 0;
    chunkRemaining_ = 0;
    errorReason_.clear();
    response_ = HttpResponse{};
}

std::size_t
HttpResponseParser::feed(const char *data, std::size_t size)
{
    std::size_t consumed = 0;
    while (consumed < size && phase_ != Phase::Complete &&
           phase_ != Phase::Error) {
        if (phase_ == Phase::FixedBody) {
            const std::size_t need =
                contentLength_ - response_.body.size();
            const std::size_t take = std::min(need, size - consumed);
            response_.body.append(data + consumed, take);
            consumed += take;
            if (response_.body.size() == contentLength_)
                phase_ = Phase::Complete;
            continue;
        }
        if (phase_ == Phase::ChunkData) {
            const std::size_t take =
                std::min(chunkRemaining_, size - consumed);
            response_.body.append(data + consumed, take);
            consumed += take;
            chunkRemaining_ -= take;
            if (chunkRemaining_ == 0)
                phase_ = Phase::ChunkDataEnd;
            continue;
        }
        const char c = data[consumed++];
        if (c != '\n') {
            line_.push_back(c);
            if (line_.size() > 65536)
                fail("response line exceeds 64 KiB");
            continue;
        }
        if (!line_.empty() && line_.back() == '\r')
            line_.pop_back();
        std::string line;
        line.swap(line_);
        switch (phase_) {
        case Phase::StatusLine:
            processStatusLine(line);
            break;
        case Phase::Headers:
            processHeaderLine(line);
            break;
        case Phase::ChunkSize: {
            const std::size_t semi = line.find(';');
            const std::string hexpart =
                trimOws(semi == std::string::npos
                            ? line
                            : line.substr(0, semi));
            if (hexpart.empty() || hexpart.size() > 8)
                return fail("malformed chunk size"), consumed;
            std::size_t value = 0;
            for (const char hc : hexpart) {
                value <<= 4;
                if (hc >= '0' && hc <= '9')
                    value |= static_cast<std::size_t>(hc - '0');
                else if (hc >= 'a' && hc <= 'f')
                    value |= static_cast<std::size_t>(hc - 'a' + 10);
                else if (hc >= 'A' && hc <= 'F')
                    value |= static_cast<std::size_t>(hc - 'A' + 10);
                else
                    return fail("malformed chunk size"), consumed;
            }
            chunkRemaining_ = value;
            phase_ = value == 0 ? Phase::Trailers : Phase::ChunkData;
            break;
        }
        case Phase::ChunkDataEnd:
            if (!line.empty())
                return fail("missing CRLF after chunk data"), consumed;
            phase_ = Phase::ChunkSize;
            break;
        case Phase::Trailers:
            if (line.empty())
                phase_ = Phase::Complete;
            break;
        default:
            break;
        }
    }
    return consumed;
}

void
HttpResponseParser::processStatusLine(const std::string &line)
{
    if (line.size() < 12 || line.compare(0, 5, "HTTP/") != 0 ||
        line[8] != ' ')
        return fail("malformed status line");
    int status = 0;
    for (int i = 9; i < 12; ++i) {
        const char c = line[static_cast<std::size_t>(i)];
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return fail("malformed status code");
        status = status * 10 + (c - '0');
    }
    response_.status = status;
    phase_ = Phase::Headers;
}

void
HttpResponseParser::processHeaderLine(const std::string &line)
{
    if (line.empty())
        return finishHeaders();
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0)
        return fail("malformed response header");
    response_.headers.emplace_back(toLower(line.substr(0, colon)),
                                   trimOws(line.substr(colon + 1)));
}

void
HttpResponseParser::finishHeaders()
{
    if (const std::string *te =
            response_.header("transfer-encoding");
        te != nullptr && hasToken(*te, "chunked")) {
        response_.chunked = true;
        phase_ = Phase::ChunkSize;
        return;
    }
    if (const std::string *cl = response_.header("content-length")) {
        if (!parseContentLength(*cl, contentLength_))
            return fail("malformed content-length");
        phase_ = contentLength_ > 0 ? Phase::FixedBody
                                    : Phase::Complete;
        return;
    }
    // 100 Continue interim responses carry neither; they are complete
    // at the blank line. Anything else without a length is treated as
    // complete too (the gateway always sends a length or chunks).
    phase_ = Phase::Complete;
}

} // namespace ecolo::gateway
