#include "util/table.hh"

#include <algorithm>
#include <charconv>
#include <iomanip>

#include "util/logging.hh"

namespace ecolo {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    ECOLO_ASSERT(!headers_.empty(), "a table needs at least one column");
}

void
TextTable::addRowStrings(std::vector<std::string> row)
{
    ECOLO_ASSERT(row.size() == headers_.size(),
                 "row width ", row.size(), " != header width ",
                 headers_.size());
    rows_.push_back(std::move(row));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
            if (c + 1 < row.size())
                os << "  ";
        }
        os << "\n";
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        print_row(row);
}

void
TextTable::printCsv(std::ostream &os) const
{
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << ",";
        }
        os << "\n";
    };
    print_row(headers_);
    for (const auto &row : rows_)
        print_row(row);
}

std::string
fixed(double value, int precision)
{
    // std::to_chars formats as printf("%.*f") does, which is what the
    // std::fixed stream manipulator calls, without a stream or locale.
    // Sign, DBL_MAX's 309 integral digits, point and 200 decimals fit.
    ECOLO_ASSERT(precision <= 200, "fixed() precision ", precision,
                 " above 200");
    char buf[512];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                         std::chars_format::fixed,
                                         precision);
    ECOLO_ASSERT(ec == std::errc(), "fixed() buffer too small");
    return std::string(buf, end);
}

void
printBanner(std::ostream &os, const std::string &title)
{
    os << "\n== " << title << " ==\n";
}

} // namespace ecolo
