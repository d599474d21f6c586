/**
 * @file
 * Strict JSON for the HTTP gateway: a small immutable value tree, a
 * total Result-typed parser, and quoting helpers for response writers.
 *
 * The parser accepts exactly RFC 8259 JSON -- no comments, no trailing
 * commas, no bare NaN/Infinity, no trailing garbage -- and is bounded:
 * nesting beyond `max_depth` is rejected (a 10k-bracket body must cost
 * a 400, not a stack overflow), and every failure carries the byte
 * offset so a client can find its typo. Object member order is
 * preserved; duplicate keys are rejected outright rather than silently
 * last-wins, because a request that says "param" twice is a bug on the
 * caller's side that quiet acceptance would hide.
 *
 * Writing stays string-based (jsonQuote + ostringstream) on purpose:
 * every response body the gateway emits is assembled from a handful of
 * known-shape fields, and a builder API would be more code than the
 * responses themselves.
 */

#ifndef ECOLO_GATEWAY_JSON_HH
#define ECOLO_GATEWAY_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/result.hh"

namespace ecolo::gateway {

/** One parsed JSON value; a tree of these owns all its storage. */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @pre isBool() */
    bool asBool() const { return bool_; }
    /** @pre isNumber() */
    double asNumber() const { return number_; }
    /** @pre isString() */
    const std::string &asString() const { return string_; }
    /** @pre isArray() */
    const std::vector<JsonValue> &items() const { return items_; }
    /** @pre isObject(); insertion order preserved. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    { return members_; }

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *member(const std::string &key) const;

    /**
     * Parse one complete JSON document. Trailing non-whitespace bytes,
     * duplicate object keys, and nesting beyond `max_depth` are
     * ParseErrors; the message always carries a byte offset.
     */
    static util::Result<JsonValue> parse(const std::string &text,
                                         std::size_t max_depth = 64);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** `s` as a quoted JSON string literal (quotes included). */
std::string jsonQuote(const std::string &s);

/**
 * Render a double the way the gateway's JSON bodies need it: integers
 * without a trailing ".0" mess, everything else with enough digits to
 * round-trip.
 */
std::string jsonNumber(double v);

} // namespace ecolo::gateway

#endif // ECOLO_GATEWAY_JSON_HH
