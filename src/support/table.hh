/**
 * @file
 * Fixed-width text tables and CSV emission for reproducing the paper's
 * tables on stdout and persisting raw results, and the number
 * formatters every text, JSON and metrics output shares.
 */

#ifndef ETC_SUPPORT_TABLE_HH
#define ETC_SUPPORT_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace etc {

/**
 * A simple column-aligned text table.
 *
 * Usage:
 * @code
 *   Table t({"Algorithm", "Errors", "% Failures"});
 *   t.addRow({"Susan", "2200", "0%"});
 *   t.print(std::cout);
 * @endcode
 */
class Table
{
  public:
    /** Construct with the header row. */
    explicit Table(std::vector<std::string> header);

    /** Append a data row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Render column-aligned text with a rule under the header. */
    void print(std::ostream &os) const;

    /** Render as CSV (RFC-4180 quoting for commas/quotes/newlines). */
    void printCsv(std::ostream &os) const;

    /** @return number of data rows. */
    size_t rowCount() const { return rows_.size(); }

    /** @return number of columns. */
    size_t columnCount() const { return header_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits fractional digits. */
std::string formatDouble(double value, int digits = 2);

/** Format a fraction as a percentage string, e.g. 0.125 -> "12.5%". */
std::string formatPercent(double fraction, int digits = 1);

/** @return @p value as "%.17g" text: readable, and exact enough to
 *  round-trip (exact codecs store the bit pattern beside it). */
std::string readableDouble(double value);

} // namespace etc

#endif // ETC_SUPPORT_TABLE_HH
