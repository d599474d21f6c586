/**
 * @file
 * The load generator's own wire layer: a blocking keep-alive HTTP/1.1
 * client and a small JSON reader.
 *
 * Both are written here rather than taken from src/gateway on purpose:
 * the client's cost is inside every measured latency, so it must not
 * speed up or slow down when a change touches the gateway's parser.
 */

#ifndef E2E_CLIENT_HH
#define E2E_CLIENT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/** 64-bit FNV-1a, for cheap report fingerprints. */
std::uint64_t fnv1a(const std::string &bytes);

/** One HTTP response as the client saw it. */
struct HttpReply
{
    bool ok = false;   //!< a complete response arrived
    int status = 0;
    std::string body;
    std::string error; //!< transport failure, when !ok
};

/** One keep-alive connection to 127.0.0.1:port; reconnects on demand. */
class HttpConnection
{
  public:
    explicit HttpConnection(std::uint16_t port, int timeout_ms = 30000)
        : port_(port), timeoutMs_(timeout_ms)
    {}
    ~HttpConnection();

    HttpConnection(const HttpConnection &) = delete;
    HttpConnection &operator=(const HttpConnection &) = delete;

    /** Send one request and read its whole response. */
    HttpReply request(const std::string &method, const std::string &path,
                      const std::string &body = "");

    /** The exact bytes request() puts on the wire for this call. */
    static std::string encode(const std::string &method,
                              const std::string &path,
                              const std::string &body);

  private:
    bool connect(std::string &error);
    void close();

    std::uint16_t port_;
    int timeoutMs_;
    int fd_ = -1;
    std::string pending_; //!< bytes received past the last response
};

/** A parsed JSON value; objects keep member order. */
struct Json
{
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> members;

    /** Member by key; nullptr when absent or not an object. */
    const Json *get(const std::string &key) const;
    /** Number member or `fallback`. */
    double num(const std::string &key, double fallback = 0.0) const;
    /** String member or "". */
    std::string str(const std::string &key) const;

    /** Parse one document; false (with `error`) on malformed input. */
    static bool parse(const std::string &text, Json &out,
                      std::string &error);
};

/** `s` as a JSON string literal. */
std::string jsonString(const std::string &s);

/** A double with enough digits to round-trip through strtod. */
std::string jsonDouble(double v);

} // namespace e2e

#endif // E2E_CLIENT_HH
