/** @file Unit tests for the key=value configuration parser. */

#include <gtest/gtest.h>

#include <sstream>

#include "util/keyvalue.hh"

namespace ecolo {
namespace {

KeyValueConfig
parse(const std::string &text)
{
    std::istringstream in(text);
    return KeyValueConfig::parse(in);
}

TEST(KeyValue, ParsesBasicPairs)
{
    const auto kv = parse("a = 1\nb.c = hello\n");
    EXPECT_EQ(kv.size(), 2u);
    EXPECT_EQ(*kv.getString("b.c"), "hello");
}

TEST(KeyValue, IgnoresCommentsAndBlankLines)
{
    const auto kv = parse("# header\n\n  a = 1  # trailing\n\n");
    EXPECT_EQ(kv.size(), 1u);
    EXPECT_DOUBLE_EQ(*kv.getDouble("a"), 1.0);
}

TEST(KeyValue, TrimsWhitespace)
{
    const auto kv = parse("  key.name   =   0.25  \n");
    EXPECT_DOUBLE_EQ(*kv.getDouble("key.name"), 0.25);
}

TEST(KeyValue, TypedGetters)
{
    const auto kv = parse("d = 3.5\ni = -7\ns = x\n");
    EXPECT_DOUBLE_EQ(*kv.getDouble("d"), 3.5);
    EXPECT_EQ(*kv.getInt("i"), -7);
    EXPECT_EQ(*kv.getString("s"), "x");
}

TEST(KeyValue, MissingKeysReturnNullopt)
{
    const auto kv = parse("a = 1\n");
    EXPECT_FALSE(kv.getDouble("missing").has_value());
    EXPECT_FALSE(kv.getInt("missing").has_value());
    EXPECT_FALSE(kv.getString("missing").has_value());
}

TEST(KeyValue, UnconsumedKeysTracked)
{
    const auto kv = parse("used = 1\nunused = 2\n");
    kv.getDouble("used");
    const auto unread = kv.unconsumedKeys();
    ASSERT_EQ(unread.size(), 1u);
    EXPECT_EQ(*unread.begin(), "unused");
}

TEST(KeyValue, SetOverrides)
{
    KeyValueConfig kv;
    kv.set("x", "42");
    EXPECT_EQ(*kv.getInt("x"), 42);
    kv.set("x", "43");
    EXPECT_EQ(*kv.getInt("x"), 43);
}

TEST(KeyValueDeathTest, MalformedInputs)
{
    EXPECT_DEATH(parse("no equals sign\n"), "no '='");
    EXPECT_DEATH(parse("= value\n"), "empty key");
    EXPECT_DEATH(parse("a = 1\na = 2\n"), "duplicate");
    const auto kv = parse("n = notanumber\n");
    EXPECT_DEATH(kv.getDouble("n"), "not a number");
    const auto kv2 = parse("n = 1.5\n");
    EXPECT_DEATH(kv2.getInt("n"), "not an integer");
}

TEST(KeyValueDeathTest, MissingFile)
{
    EXPECT_DEATH(KeyValueConfig::parseFile("/nonexistent/path.cfg"),
                 "cannot open");
}

util::Result<KeyValueConfig>
tryParse(const std::string &text)
{
    std::istringstream in(text);
    return KeyValueConfig::tryParse(in, "site.cfg");
}

TEST(KeyValueTry, MalformedLineNamesSourceLineAndText)
{
    const auto result = tryParse("a = 1\nthis line is broken\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, util::ErrorCode::ParseError);
    const std::string &message = result.error().message;
    EXPECT_NE(message.find("site.cfg"), std::string::npos);
    EXPECT_NE(message.find("2"), std::string::npos);
    EXPECT_NE(message.find("this line is broken"), std::string::npos);
}

TEST(KeyValueTry, DuplicateKeyNamesBothLines)
{
    const auto result = tryParse("a = 1\nb = 2\na = 3\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, util::ErrorCode::ParseError);
    EXPECT_NE(result.error().message.find("duplicate"),
              std::string::npos);
    EXPECT_NE(result.error().message.find("a"), std::string::npos);
}

TEST(KeyValueTry, UnparseableValueIsStructured)
{
    auto parsed = tryParse("n = notanumber\n");
    ASSERT_TRUE(parsed.ok());
    const auto value = parsed.value().tryGetDouble("n");
    ASSERT_FALSE(value.ok());
    EXPECT_EQ(value.error().code, util::ErrorCode::ParseError);
    EXPECT_NE(value.error().message.find("not a number"),
              std::string::npos);
    // Absent keys are an empty optional, not an error.
    const auto missing = parsed.value().tryGetDouble("missing");
    ASSERT_TRUE(missing.ok());
    EXPECT_FALSE(missing.value().has_value());
}

TEST(KeyValueTry, MissingFileIsIoError)
{
    const auto result =
        KeyValueConfig::tryParseFile("/nonexistent/path.cfg");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, util::ErrorCode::IoError);
}

TEST(KeyValueTry, LocateReportsSourceAndLine)
{
    auto parsed = tryParse("a = 1\n\nb = 2\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().sourceName(), "site.cfg");
    EXPECT_EQ(parsed.value().locate("b"), "site.cfg:3");
}

} // namespace
} // namespace ecolo
