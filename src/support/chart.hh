/**
 * @file
 * ASCII line/scatter chart used to render the paper's figures in a
 * terminal. Each figure prints both the raw series (as a table) and a
 * chart so the shape of the reproduction is visible at a glance.
 */

#ifndef ETC_SUPPORT_CHART_HH
#define ETC_SUPPORT_CHART_HH

#include <ostream>
#include <string>
#include <vector>

namespace etc {

/** One named data series of (x, y) points. */
struct Series
{
    std::string name;             //!< legend label
    char marker = '*';            //!< glyph plotted for this series
    std::vector<double> xs;       //!< x coordinates
    std::vector<double> ys;       //!< y coordinates
};

/**
 * Renders one or more series onto a character grid with axes and a
 * legend. Intended for quick visual inspection, not publication.
 */
class AsciiChart
{
  public:
    /**
     * @param title   printed above the plot
     * @param xLabel  x-axis caption
     * @param yLabel  y-axis caption
     * @param width   plot-area width in characters
     * @param height  plot-area height in characters
     */
    AsciiChart(std::string title, std::string xLabel, std::string yLabel,
               unsigned width = 64, unsigned height = 20);

    /** Add a series; points with non-finite coordinates are skipped. */
    void addSeries(Series series);

    /** Optionally draw a horizontal threshold line at @p y. */
    void setThreshold(double y, std::string label);

    /** Render the chart. */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::string xLabel_;
    std::string yLabel_;
    unsigned width_;
    unsigned height_;
    std::vector<Series> series_;
    bool hasThreshold_ = false;
    double threshold_ = 0.0;
    std::string thresholdLabel_;
};

} // namespace etc

#endif // ETC_SUPPORT_CHART_HH
