#include "util/state_io.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

namespace {

using namespace ecolo::util;

TEST(StateIo, ScalarRoundTrip)
{
    std::stringstream buffer;
    StateWriter writer(buffer);
    writer.header();
    writer.tag("TEST");
    writer.u32(0xdeadbeefu);
    writer.u64(std::numeric_limits<std::uint64_t>::max());
    writer.i64(-123456789012345LL);
    writer.f64(3.141592653589793);
    writer.boolean(true);
    writer.boolean(false);
    writer.str("hello checkpoint");
    ASSERT_TRUE(writer.good());

    StateReader reader(buffer);
    reader.header();
    reader.tag("TEST");
    EXPECT_EQ(reader.u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.u64(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(reader.i64(), -123456789012345LL);
    EXPECT_EQ(reader.f64(), 3.141592653589793);
    EXPECT_TRUE(reader.boolean());
    EXPECT_FALSE(reader.boolean());
    EXPECT_EQ(reader.str(), "hello checkpoint");
    EXPECT_TRUE(reader.ok());
}

TEST(StateIo, DoublesAreBitExact)
{
    // The whole point of binary serialization: NaN, subnormals, and
    // values that do not survive a text round-trip come back bitwise.
    const double values[] = {
        0.1, -0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::quiet_NaN(),
        std::nextafter(1.0, 2.0)};
    std::stringstream buffer;
    StateWriter writer(buffer);
    for (double v : values)
        writer.f64(v);

    StateReader reader(buffer);
    for (double v : values) {
        const double back = reader.f64();
        std::uint64_t expect_bits, got_bits;
        std::memcpy(&expect_bits, &v, sizeof v);
        std::memcpy(&got_bits, &back, sizeof back);
        EXPECT_EQ(got_bits, expect_bits);
    }
    EXPECT_TRUE(reader.ok());
}

TEST(StateIo, VectorRoundTrip)
{
    std::stringstream buffer;
    StateWriter writer(buffer);
    const std::vector<double> doubles{1.5, -2.25, 0.0};
    const std::vector<std::size_t> sizes{7, 0, 99};
    writer.f64Vector(doubles);
    writer.sizeVector(sizes);

    StateReader reader(buffer);
    EXPECT_EQ(reader.f64Vector(), doubles);
    EXPECT_EQ(reader.sizeVector(), sizes);
    EXPECT_TRUE(reader.ok());
}

TEST(StateIo, TagMismatchLatchesStructuredError)
{
    std::stringstream buffer;
    StateWriter writer(buffer);
    writer.header();
    writer.tag("AAAA");
    writer.u64(7);

    StateReader reader(buffer);
    reader.header();
    reader.tag("BBBB");
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().error().code, ErrorCode::StateError);
    // Latched: subsequent reads return zeros instead of garbage.
    EXPECT_EQ(reader.u64(), 0u);
    EXPECT_FALSE(reader.status().ok());
}

TEST(StateIo, BadMagicRejected)
{
    std::stringstream buffer;
    buffer << "this is not a checkpoint file at all";
    StateReader reader(buffer);
    reader.header();
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().error().code, ErrorCode::StateError);
}

TEST(StateIo, TruncatedInputFailsInsteadOfAborting)
{
    std::stringstream buffer;
    StateWriter writer(buffer);
    writer.header();
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);

    StateReader reader(truncated);
    reader.header();
    reader.u64();
    EXPECT_FALSE(reader.ok());
}

TEST(StateIo, ExternalFailMarksReader)
{
    std::stringstream buffer;
    StateWriter writer(buffer);
    writer.u64(40);

    StateReader reader(buffer);
    const auto servers = reader.u64();
    ASSERT_TRUE(reader.ok());
    if (servers != 14) // caller-side consistency check
        reader.fail(ECOLO_ERROR(ErrorCode::StateError,
                                "server count mismatch: ", servers));
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.status().error().message.find("mismatch"),
              std::string::npos);
}

} // namespace
