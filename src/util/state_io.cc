#include "util/state_io.hh"

#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

namespace ecolo::util {

namespace {

/** Refuse absurd vector lengths from corrupt/truncated files. */
constexpr std::uint64_t kMaxVectorElements = 1ULL << 32;

} // namespace

// ---- StateWriter ----

StateWriter::StateWriter(std::ostream &os) : os_(os) {}

void
StateWriter::raw(const void *data, std::size_t size)
{
    os_.write(static_cast<const char *>(data),
              static_cast<std::streamsize>(size));
}

void
StateWriter::header()
{
    u32(kStateMagic);
    u32(kStateVersion);
}

void
StateWriter::tag(const char (&name)[5])
{
    raw(name, 4);
}

void
StateWriter::u32(std::uint32_t v)
{
    raw(&v, sizeof(v));
}

void
StateWriter::u64(std::uint64_t v)
{
    raw(&v, sizeof(v));
}

void
StateWriter::i64(std::int64_t v)
{
    raw(&v, sizeof(v));
}

void
StateWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
StateWriter::boolean(bool v)
{
    const std::uint8_t byte = v ? 1 : 0;
    raw(&byte, 1);
}

void
StateWriter::str(const std::string &s)
{
    u64(s.size());
    raw(s.data(), s.size());
}

void
StateWriter::f64Vector(const std::vector<double> &v)
{
    u64(v.size());
    for (double x : v)
        f64(x);
}

void
StateWriter::sizeVector(const std::vector<std::size_t> &v)
{
    u64(v.size());
    for (std::size_t x : v)
        u64(x);
}

bool
StateWriter::good() const
{
    return os_.good();
}

// ---- StateReader ----

StateReader::StateReader(std::istream &is) : is_(is) {}

bool
StateReader::raw(void *data, std::size_t size)
{
    if (!status_.ok())
        return false;
    is_.read(static_cast<char *>(data),
             static_cast<std::streamsize>(size));
    if (!is_) {
        status_ = ECOLO_ERROR(ErrorCode::StateError,
                              "checkpoint truncated or unreadable");
        return false;
    }
    return true;
}

void
StateReader::header()
{
    const std::uint32_t magic = u32();
    const std::uint32_t version = u32();
    if (!status_.ok())
        return;
    if (magic != kStateMagic) {
        status_ = ECOLO_ERROR(ErrorCode::StateError,
                              "not an EdgeTherm checkpoint (bad magic)");
    } else if (version != kStateVersion) {
        status_ = ECOLO_ERROR(ErrorCode::StateError,
                              "unsupported checkpoint version ", version,
                              " (expected ", kStateVersion, ")");
    }
}

void
StateReader::tag(const char (&name)[5])
{
    char got[5] = {0, 0, 0, 0, 0};
    if (!raw(got, 4))
        return;
    if (std::memcmp(got, name, 4) != 0) {
        status_ = ECOLO_ERROR(ErrorCode::StateError,
                              "checkpoint section mismatch: expected '",
                              name, "', found '", got, "'");
    }
}

std::uint32_t
StateReader::u32()
{
    std::uint32_t v = 0;
    raw(&v, sizeof(v));
    return v;
}

std::uint64_t
StateReader::u64()
{
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
}

std::int64_t
StateReader::i64()
{
    std::int64_t v = 0;
    raw(&v, sizeof(v));
    return v;
}

double
StateReader::f64()
{
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return status_.ok() ? v : 0.0;
}

bool
StateReader::boolean()
{
    std::uint8_t byte = 0;
    raw(&byte, 1);
    return byte != 0;
}

std::string
StateReader::str()
{
    const std::uint64_t size = u64();
    if (!status_.ok())
        return "";
    if (size > kMaxVectorElements) {
        status_ = ECOLO_ERROR(ErrorCode::StateError,
                              "checkpoint string length corrupt: ", size);
        return "";
    }
    std::string s(size, '\0');
    if (size > 0)
        raw(s.data(), size);
    return status_.ok() ? s : "";
}

std::vector<std::uint64_t>
StateReader::u64Vector()
{
    const std::uint64_t size = u64();
    if (!status_.ok() || size > kMaxVectorElements) {
        if (status_.ok())
            status_ = ECOLO_ERROR(ErrorCode::StateError,
                                  "checkpoint vector length corrupt: ",
                                  size);
        return {};
    }
    std::vector<std::uint64_t> v(size);
    for (auto &x : v)
        x = u64();
    return status_.ok() ? v : std::vector<std::uint64_t>{};
}

std::vector<double>
StateReader::f64Vector()
{
    const std::uint64_t size = u64();
    if (!status_.ok() || size > kMaxVectorElements) {
        if (status_.ok())
            status_ = ECOLO_ERROR(ErrorCode::StateError,
                                  "checkpoint vector length corrupt: ",
                                  size);
        return {};
    }
    std::vector<double> v(size);
    for (auto &x : v)
        x = f64();
    return status_.ok() ? v : std::vector<double>{};
}

std::vector<std::size_t>
StateReader::sizeVector()
{
    const auto wide = u64Vector();
    std::vector<std::size_t> v(wide.size());
    for (std::size_t i = 0; i < wide.size(); ++i)
        v[i] = static_cast<std::size_t>(wide[i]);
    return v;
}

void
StateReader::fail(Error error)
{
    if (status_.ok())
        status_ = std::move(error);
}

} // namespace ecolo::util
