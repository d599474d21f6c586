/**
 * @file
 * Minimal key=value configuration parsing shared by the scenario files and
 * the command-line tool.
 *
 * Format: one `key = value` pair per line; `#` starts a comment; blank
 * lines ignored; keys are dot-separated lowerCamel paths
 * (e.g. `battery.capacityKwh = 0.2`). Unknown keys are an error by default
 * so typos fail loudly; duplicate keys are rejected rather than silently
 * last-wins.
 *
 * Two API tiers: the try* functions return util::Result with structured
 * errors that name the source file, line number, and offending text; the
 * legacy entry points wrap them and ECOLO_FATAL, preserving CLI behavior.
 */

#ifndef ECOLO_UTIL_KEYVALUE_HH
#define ECOLO_UTIL_KEYVALUE_HH

#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "util/result.hh"

namespace ecolo {

/** A parsed key=value document with typed, consumption-tracked access. */
class KeyValueConfig
{
  public:
    KeyValueConfig() = default;

    /**
     * Parse from a stream. @param source_name appears in diagnostics
     * (file path, or a placeholder like "<string>").
     */
    static util::Result<KeyValueConfig>
    tryParse(std::istream &is, const std::string &source_name = "<input>");

    /** Parse a file by path; IoError when unreadable. */
    static util::Result<KeyValueConfig>
    tryParseFile(const std::string &path);

    /** Parse from a stream; ECOLO_FATAL on malformed lines. */
    static KeyValueConfig parse(std::istream &is);

    /** Parse a file by path; ECOLO_FATAL if unreadable. */
    static KeyValueConfig parseFile(const std::string &path);

    /** Programmatic insertion (CLI overrides). */
    void set(const std::string &key, const std::string &value);

    /**
     * Structured typed getters; the outer Result fails when the key is
     * present but unparseable, the inner optional is empty when the key
     * is absent. Every successful get marks the key consumed.
     */
    util::Result<std::optional<double>>
    tryGetDouble(const std::string &key) const;
    util::Result<std::optional<long>>
    tryGetInt(const std::string &key) const;

    /**
     * Typed getters; return std::nullopt when absent, ECOLO_FATAL when
     * present but unparseable. Every successful get marks the key
     * consumed.
     */
    std::optional<double> getDouble(const std::string &key) const;
    std::optional<long> getInt(const std::string &key) const;
    std::optional<std::string> getString(const std::string &key) const;

    /** Keys that were never read (typos); empty means all consumed. */
    std::set<std::string> unconsumedKeys() const;

    /**
     * Every key=value pair, key-sorted. This is the document's canonical
     * content -- comments, blank lines and declaration order have already
     * been normalized away -- which is what the serving result cache
     * hashes to content-address a scenario. Does not mark keys consumed.
     */
    std::map<std::string, std::string> entries() const;

    std::size_t size() const { return values_.size(); }

    /** Name of the parsed source ("<input>" for programmatic configs). */
    const std::string &sourceName() const { return sourceName_; }

    /** "source:line" of a key, or just the source when set via set(). */
    std::string locate(const std::string &key) const;

  private:
    struct Entry
    {
        std::string value;
        int line = 0; //!< 0 when inserted programmatically
    };

    std::map<std::string, Entry> values_;
    std::string sourceName_ = "<input>";
    mutable std::set<std::string> consumed_;
};

} // namespace ecolo

#endif // ECOLO_UTIL_KEYVALUE_HH
