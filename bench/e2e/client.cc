#include "client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace e2e {

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ---- HTTP ----

HttpConnection::~HttpConnection() { close(); }

void
HttpConnection::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    pending_.clear();
}

bool
HttpConnection::connect(std::string &error)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{};
    tv.tv_sec = timeoutMs_ / 1000;
    tv.tv_usec = (timeoutMs_ % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        error = std::string("connect: ") + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

std::string
HttpConnection::encode(const std::string &method, const std::string &path,
                       const std::string &body)
{
    std::string out = method + " " + path +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty() || method == "POST") {
        out += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
    }
    out += "\r\n";
    out += body;
    return out;
}

namespace {

/** Case-insensitive "name:" prefix match on one header line. */
bool
headerIs(const std::string &line, const char *name)
{
    const std::size_t n = std::strlen(name);
    if (line.size() <= n || line[n] != ':')
        return false;
    for (std::size_t i = 0; i < n; ++i) {
        const char a = line[i] >= 'A' && line[i] <= 'Z'
                           ? static_cast<char>(line[i] - 'A' + 'a')
                           : line[i];
        if (a != name[i])
            return false;
    }
    return true;
}

std::string
headerValue(const std::string &line)
{
    std::size_t i = line.find(':') + 1;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
        ++i;
    return line.substr(i);
}

} // namespace

HttpReply
HttpConnection::request(const std::string &method, const std::string &path,
                        const std::string &body)
{
    HttpReply reply;
    if (fd_ < 0 && !connect(reply.error))
        return reply;

    const std::string wire = encode(method, path, body);
    for (std::size_t off = 0; off < wire.size();) {
        const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                                 MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            reply.error = std::string("send: ") + std::strerror(errno);
            close();
            return reply;
        }
        off += static_cast<std::size_t>(n);
    }

    std::size_t headerEnd = std::string::npos;
    std::size_t total = 0;
    bool closeAfter = false;
    char buf[16384];
    for (;;) {
        if (headerEnd == std::string::npos) {
            headerEnd = pending_.find("\r\n\r\n");
            if (headerEnd != std::string::npos) {
                // Status line, then the two headers this client needs.
                std::size_t lineStart = 0;
                std::size_t contentLength = std::string::npos;
                bool first = true;
                while (lineStart < headerEnd) {
                    std::size_t lineEnd = pending_.find("\r\n", lineStart);
                    const std::string line =
                        pending_.substr(lineStart, lineEnd - lineStart);
                    if (first) {
                        if (line.compare(0, 5, "HTTP/") != 0 ||
                            line.size() < 12) {
                            reply.error = "malformed status line";
                            close();
                            return reply;
                        }
                        reply.status = std::atoi(line.c_str() + 9);
                        first = false;
                    } else if (headerIs(line, "content-length")) {
                        contentLength = static_cast<std::size_t>(
                            std::strtoull(headerValue(line).c_str(),
                                          nullptr, 10));
                    } else if (headerIs(line, "transfer-encoding")) {
                        reply.error = "chunked responses are not expected";
                        close();
                        return reply;
                    } else if (headerIs(line, "connection") &&
                               headerValue(line) == "close") {
                        closeAfter = true;
                    }
                    lineStart = lineEnd + 2;
                }
                if (contentLength == std::string::npos) {
                    reply.error = "response without Content-Length";
                    close();
                    return reply;
                }
                total = headerEnd + 4 + contentLength;
            }
        }
        if (headerEnd != std::string::npos && pending_.size() >= total)
            break;
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            reply.error = n == 0 ? "connection closed mid-response"
                                 : (errno == EAGAIN || errno == EWOULDBLOCK
                                        ? "receive timeout"
                                        : std::string("recv: ") +
                                              std::strerror(errno));
            close();
            return reply;
        }
        pending_.append(buf, static_cast<std::size_t>(n));
    }
    reply.body = pending_.substr(headerEnd + 4, total - headerEnd - 4);
    pending_.erase(0, total);
    reply.ok = true;
    if (closeAfter)
        close();
    return reply;
}

// ---- JSON ----

const Json *
Json::get(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
Json::num(const std::string &key, double fallback) const
{
    const Json *v = get(key);
    return v != nullptr && v->kind == Kind::Number ? v->number : fallback;
}

std::string
Json::str(const std::string &key) const
{
    const Json *v = get(key);
    return v != nullptr && v->kind == Kind::String ? v->string : "";
}

namespace {

class Reader
{
  public:
    explicit Reader(const std::string &text) : s_(text) {}

    bool document(Json &out)
    {
        if (!value(out, 0))
            return false;
        skipSpace();
        if (pos_ != s_.size())
            return fail("trailing bytes");
        return true;
    }

    std::string error;

  private:
    bool fail(const char *what)
    {
        if (error.empty())
            error = std::string(what) + " at byte " + std::to_string(pos_);
        return false;
    }

    void skipSpace()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
                s_[pos_] == '\t'))
            ++pos_;
    }

    bool literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        return true;
    }

    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool hex4(unsigned &out)
    {
        if (pos_ + 4 > s_.size())
            return fail("short \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = s_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad \\u escape");
        }
        return true;
    }

    bool string(std::string &out)
    {
        ++pos_; // opening quote
        for (;;) {
            const std::size_t run = s_.find_first_of("\"\\", pos_);
            if (run == std::string::npos)
                return fail("unterminated string");
            out.append(s_, pos_, run - pos_);
            pos_ = run + 1;
            if (s_[run] == '"')
                return true;
            if (pos_ >= s_.size())
                return fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                unsigned cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xd800 && cp < 0xdc00 &&
                    s_.compare(pos_, 2, "\\u") == 0) {
                    pos_ += 2;
                    unsigned lo = 0;
                    if (!hex4(lo))
                        return false;
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                return fail("bad escape");
            }
        }
    }

    bool value(Json &out, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= s_.size())
            return fail("unexpected end");
        const char c = s_[pos_];
        if (c == '{') {
            out.kind = Json::Kind::Object;
            ++pos_;
            skipSpace();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipSpace();
                if (pos_ >= s_.size() || s_[pos_] != '"')
                    return fail("expected key");
                std::string key;
                if (!string(key))
                    return false;
                skipSpace();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                out.members.emplace_back(std::move(key), Json());
                if (!value(out.members.back().second, depth + 1))
                    return false;
                skipSpace();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < s_.size() && s_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            out.kind = Json::Kind::Array;
            ++pos_;
            skipSpace();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                out.items.emplace_back();
                if (!value(out.items.back(), depth + 1))
                    return false;
                skipSpace();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < s_.size() && s_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = Json::Kind::String;
            return string(out.string);
        }
        if (c == 't' || c == 'f') {
            out.kind = Json::Kind::Bool;
            out.boolean = c == 't';
            return literal(c == 't' ? "true" : "false");
        }
        if (c == 'n') {
            out.kind = Json::Kind::Null;
            return literal("null");
        }
        char *end = nullptr;
        out.number = std::strtod(s_.c_str() + pos_, &end);
        if (end == s_.c_str() + pos_)
            return fail("bad value");
        out.kind = Json::Kind::Number;
        pos_ = static_cast<std::size_t>(end - s_.c_str());
        return true;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

bool
Json::parse(const std::string &text, Json &out, std::string &error)
{
    out = Json();
    Reader reader(text);
    if (reader.document(out))
        return true;
    error = reader.error;
    return false;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "\\u%04x",
                              static_cast<unsigned>(c));
                out += hex;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace e2e
