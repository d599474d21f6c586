/**
 * @file
 * Binary checkpoint serialization primitives.
 *
 * Year-long multi-seed campaigns must survive crashes and resume
 * *bit-identically*, so the writer stores doubles as raw IEEE-754 bytes
 * (no text round-trip) and every section is framed by a four-byte tag the
 * reader verifies. The reader never throws or aborts on corrupt input: it
 * latches the first failure into a structured Error and returns zeros
 * thereafter, so callers validate once per section via status().
 *
 * Format: little-endian on every platform we target; a header magic +
 * version gate incompatible layouts.
 */

#ifndef ECOLO_UTIL_STATE_IO_HH
#define ECOLO_UTIL_STATE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/result.hh"

namespace ecolo::util {

inline constexpr std::uint32_t kStateMagic = 0x45435053; // "ECPS"
inline constexpr std::uint32_t kStateVersion = 1;

/** Streaming binary writer for checkpoint state. */
class StateWriter
{
  public:
    explicit StateWriter(std::ostream &os);

    /** Write the file header (magic + version). */
    void header();

    /** Four-char section tag, e.g. "RNG ". */
    void tag(const char (&name)[5]);

    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void f64(double v);
    void boolean(bool v);
    void str(const std::string &s);

    void f64Vector(const std::vector<double> &v);
    void sizeVector(const std::vector<std::size_t> &v);

    /** True if every write so far reached the stream. */
    bool good() const;

  private:
    void raw(const void *data, std::size_t size);

    std::ostream &os_;
};

/** Streaming binary reader; latches the first failure. */
class StateReader
{
  public:
    explicit StateReader(std::istream &is);

    /** Verify the file header; fails on magic/version mismatch. */
    void header();

    /** Verify the next section tag matches. */
    void tag(const char (&name)[5]);

    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    bool boolean();
    std::string str();

    std::vector<std::uint64_t> u64Vector();
    std::vector<double> f64Vector();
    std::vector<std::size_t> sizeVector();

    bool ok() const { return status_.ok(); }
    /** Success, or the first structured failure encountered. */
    const Result<void> &status() const { return status_; }

    /** Record an external consistency failure (e.g. config mismatch). */
    void fail(Error error);

  private:
    bool raw(void *data, std::size_t size);

    std::istream &is_;
    Result<void> status_;
};

} // namespace ecolo::util

#endif // ECOLO_UTIL_STATE_IO_HH
