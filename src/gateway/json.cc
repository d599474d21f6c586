#include "gateway/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "telemetry/events.hh" // jsonEscape

namespace ecolo::gateway {

const JsonValue *
JsonValue::member(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : members_)
        if (name == key)
            return &value;
    return nullptr;
}

std::string
jsonQuote(const std::string &s)
{
    // One reserve and appends, not "\"" + ... + "\"": the same bytes,
    // without the temporaries GCC 12's -Wrestrict misreads in Release.
    const std::string escaped = telemetry::jsonEscape(s);
    std::string quoted;
    quoted.reserve(escaped.size() + 2);
    quoted.push_back('"');
    quoted.append(escaped);
    quoted.push_back('"');
    return quoted;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no Inf/NaN; null beats invalid output
    const double rounded = std::nearbyint(v);
    if (rounded == v && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Recursive-descent parser over the input bytes. All failures funnel
 * through fail() so every message names the byte offset.
 */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::size_t max_depth)
        : text_(text), maxDepth_(max_depth)
    {}

    util::Result<JsonValue>
    run()
    {
        skipWs();
        auto value = parseValue(0);
        if (!value)
            return value;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing bytes after JSON document");
        return value;
    }

  private:
    util::Error
    failError(const std::string &what) const
    {
        return ECOLO_ERROR(util::ErrorCode::ParseError, "json: ", what,
                           " at byte ", pos_);
    }

    util::Result<JsonValue>
    fail(const std::string &what) const
    {
        return failError(what);
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(const char *literal)
    {
        std::size_t n = 0;
        while (literal[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, literal) != 0)
            return false;
        pos_ += n;
        return true;
    }

    util::Result<JsonValue>
    parseValue(std::size_t depth)
    {
        if (depth > maxDepth_)
            return fail("nesting deeper than the configured limit");
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
        case '{':
            return parseObject(depth);
        case '[':
            return parseArray(depth);
        case '"':
            return parseString();
        case 't':
        case 'f':
            return parseBool();
        case 'n':
            if (!consume("null"))
                return fail("invalid literal");
            return JsonValue{};
        default:
            return parseNumber();
        }
    }

    util::Result<JsonValue>
    parseBool()
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::Bool;
        if (consume("true")) {
            v.bool_ = true;
            return v;
        }
        if (consume("false")) {
            v.bool_ = false;
            return v;
        }
        return fail("invalid literal");
    }

    util::Result<JsonValue>
    parseNumber()
    {
        const std::size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        // int part: 0, or [1-9][0-9]*
        if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek())))
            return fail("invalid number");
        if (peek() == '0') {
            ++pos_;
        } else {
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!atEnd() && peek() == '.') {
            ++pos_;
            if (atEnd() ||
                !std::isdigit(static_cast<unsigned char>(peek())))
                return fail("invalid number: digits must follow '.'");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (atEnd() ||
                !std::isdigit(static_cast<unsigned char>(peek())))
                return fail("invalid number: empty exponent");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double parsed = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("invalid number");
        JsonValue v;
        v.kind_ = JsonValue::Kind::Number;
        v.number_ = parsed;
        return v;
    }

    util::Result<JsonValue>
    parseString()
    {
        auto text = parseStringBody();
        if (!text)
            return text.error();
        JsonValue v;
        v.kind_ = JsonValue::Kind::String;
        v.string_ = text.take();
        return v;
    }

    util::Result<std::string>
    parseStringBody()
    {
        ++pos_; // opening quote, guaranteed by the caller
        std::string out;
        for (;;) {
            if (atEnd())
                return failError("unterminated string");
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c < 0x20)
                return failError(
                    "raw control character in string");
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                ++pos_;
                continue;
            }
            ++pos_; // backslash
            if (atEnd())
                return failError("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"':
                out.push_back('"');
                break;
            case '\\':
                out.push_back('\\');
                break;
            case '/':
                out.push_back('/');
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                auto unit = parseHex4();
                if (!unit)
                    return unit.error();
                std::uint32_t code = unit.value();
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // High surrogate: the low half must follow.
                    if (atEnd() || text_[pos_] != '\\' ||
                        pos_ + 1 >= text_.size() ||
                        text_[pos_ + 1] != 'u')
                        return failError("lone high surrogate");
                    pos_ += 2;
                    auto low = parseHex4();
                    if (!low)
                        return low.error();
                    if (low.value() < 0xDC00 || low.value() > 0xDFFF)
                        return failError("invalid low surrogate");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low.value() - 0xDC00);
                } else if (code >= 0xDC00 && code <= 0xDFFF) {
                    return failError("lone low surrogate");
                }
                appendUtf8(out, code);
                break;
            }
            default:
                return failError("unknown escape");
            }
        }
    }

    util::Result<std::uint32_t>
    parseHex4()
    {
        if (pos_ + 4 > text_.size())
            return failError("truncated \\u escape");
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return failError("non-hex digit in \\u escape");
        }
        pos_ += 4;
        return value;
    }

    static void
    appendUtf8(std::string &out, std::uint32_t code)
    {
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    util::Result<JsonValue>
    parseArray(std::size_t depth)
    {
        ++pos_; // '['
        JsonValue v;
        v.kind_ = JsonValue::Kind::Array;
        skipWs();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            auto item = parseValue(depth + 1);
            if (!item)
                return item;
            v.items_.push_back(item.take());
            skipWs();
            if (atEnd())
                return fail("unterminated array");
            const char c = text_[pos_++];
            if (c == ']')
                return v;
            if (c != ',') {
                --pos_;
                return fail("expected ',' or ']' in array");
            }
        }
    }

    util::Result<JsonValue>
    parseObject(std::size_t depth)
    {
        ++pos_; // '{'
        JsonValue v;
        v.kind_ = JsonValue::Kind::Object;
        skipWs();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            if (atEnd() || peek() != '"')
                return fail("expected object key");
            auto key = parseStringBody();
            if (!key)
                return key.error();
            for (const auto &[name, unused] : v.members_) {
                (void)unused;
                if (name == key.value())
                    return fail("duplicate object key '" + key.value() +
                                "'");
            }
            skipWs();
            if (atEnd() || text_[pos_++] != ':') {
                if (!atEnd())
                    --pos_;
                return fail("expected ':' after object key");
            }
            skipWs();
            auto value = parseValue(depth + 1);
            if (!value)
                return value;
            v.members_.emplace_back(key.take(), value.take());
            skipWs();
            if (atEnd())
                return fail("unterminated object");
            const char c = text_[pos_++];
            if (c == '}')
                return v;
            if (c != ',') {
                --pos_;
                return fail("expected ',' or '}' in object");
            }
        }
    }

    const std::string &text_;
    const std::size_t maxDepth_;
    std::size_t pos_ = 0;
};

util::Result<JsonValue>
JsonValue::parse(const std::string &text, std::size_t max_depth)
{
    return JsonParser(text, max_depth).run();
}

} // namespace ecolo::gateway
