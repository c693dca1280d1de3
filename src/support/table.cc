#include "support/table.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "support/logging.hh"

namespace etc {

Table::Table(std::vector<std::string> header)
    : header_(std::move(header))
{
    if (header_.empty())
        panic("Table: header must have at least one column");
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size())
        panic("Table::addRow: got ", row.size(), " cells, expected ",
              header_.size());
    rows_.push_back(std::move(row));
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> width(header_.size());
    for (size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(width[c]))
               << row[c];
            if (c + 1 < row.size())
                os << "  ";
        }
        os << '\n';
    };

    emit(header_);
    size_t total = 0;
    for (size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c + 1 < width.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit(row);
}

void
Table::printCsv(std::ostream &os) const
{
    auto quote = [](const std::string &cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos)
            return cell;
        std::string out = "\"";
        for (char ch : cell) {
            if (ch == '"')
                out += '"';
            out += ch;
        }
        out += '"';
        return out;
    };
    auto emit = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << quote(row[c]);
            if (c + 1 < row.size())
                os << ',';
        }
        os << '\n';
    };
    emit(header_);
    for (const auto &row : rows_)
        emit(row);
}

std::string
formatDouble(double value, int digits)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(digits) << value;
    return oss.str();
}

std::string
formatPercent(double fraction, int digits)
{
    return formatDouble(fraction * 100.0, digits) + "%";
}

std::string
readableDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace etc
