/** @file Unit tests for the table printer. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "util/table.hh"

namespace ecolo {
namespace {

TEST(TextTable, AlignsColumns)
{
    TextTable table({"name", "value"});
    table.addRow("alpha", 1);
    table.addRow("b", 22.5);
    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("name   value"), std::string::npos);
    EXPECT_NE(out.find("alpha  1"), std::string::npos);
    EXPECT_NE(out.find("b      22.5"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    TextTable table({"a", "b"});
    table.addRow(1, 2);
    table.addRow("x", "y");
    std::ostringstream oss;
    table.printCsv(oss);
    EXPECT_EQ(oss.str(), "a,b\n1,2\nx,y\n");
}

TEST(TextTable, RowCount)
{
    TextTable table({"only"});
    EXPECT_EQ(table.rows(), 0u);
    table.addRow(42);
    EXPECT_EQ(table.rows(), 1u);
}

TEST(TextTable, MixedCellTypes)
{
    TextTable table({"str", "int", "dbl"});
    table.addRow(std::string("s"), 7, 1.25);
    std::ostringstream oss;
    table.printCsv(oss);
    EXPECT_EQ(oss.str(), "str,int,dbl\ns,7,1.25\n");
}

TEST(Fixed, FormatsPrecision)
{
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(2.0, 0), "2");
    EXPECT_EQ(fixed(-1.5, 1), "-1.5");
}

/** The stream formatter fixed() used before it moved to to_chars. */
std::string
streamFixed(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

TEST(Fixed, MatchesTheStreamFormatter)
{
    std::vector<double> values = {
        0.125, 0.375, 2.5, 3.5, 0.5, 1.5, -2.5, 1.005, 2.675, 1e-7,
        0.0, -0.0, 1e300, -1e300, 1e22, 123456789.125,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()};
    // Seeded values over the magnitudes reports print, and random bit
    // patterns over every finite double.
    std::mt19937_64 rng(20261020);
    std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
    std::uniform_int_distribution<int> exponent(-8, 12);
    for (int i = 0; i < 20000; ++i)
        values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            values.push_back(v);
    }
    // Halfway ties at each precision: k + 0.5 ulp-exact in binary.
    for (int k = 0; k < 64; ++k)
        values.push_back(static_cast<double>(k) + 0.5);
    for (int k = 0; k < 64; ++k)
        values.push_back(static_cast<double>(2 * k + 1) / 8.0);

    std::size_t mismatches = 0;
    for (int precision = 0; precision <= 6; ++precision) {
        for (const double v : values) {
            const std::string want = streamFixed(v, precision);
            const std::string got = fixed(v, precision);
            if (got != want && ++mismatches <= 10)
                ADD_FAILURE() << "fixed(" << std::hexfloat << v << ", "
                              << precision << ") = '" << got
                              << "', stream gives '" << want << "'";
        }
    }
    EXPECT_EQ(mismatches, 0u) << " of " << 7 * values.size();
}

TEST(Banner, ContainsTitle)
{
    std::ostringstream oss;
    printBanner(oss, "Fig. 8");
    EXPECT_NE(oss.str().find("== Fig. 8 =="), std::string::npos);
}

} // namespace
} // namespace ecolo
