#include "bench/common.hh"

#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "store/cell_key.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace etc::bench {

using core::CellSummary;

uint64_t
parseCountValue(const std::string &flag, const std::string &text,
                uint64_t max)
{
    // Digits only: std::stoull would accept a leading '-' and wrap.
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        fatal("bad value for ", flag, ": '", text, "'");
    uint64_t value = 0;
    for (char c : text) {
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (max - digit) / 10)
            fatal("bad value for ", flag, ": '", text, "'");
        value = value * 10 + digit;
    }
    return value;
}

unsigned
parseCount32(const std::string &flag, const std::string &text)
{
    return static_cast<unsigned>(parseCountValue(
        flag, text, std::numeric_limits<unsigned>::max()));
}

uint64_t
parseSeedValue(const std::string &flag, const std::string &text)
{
    if (text.rfind("0x", 0) == 0) {
        try {
            return store::parseHexU64(text);
        } catch (const std::invalid_argument &) {
            fatal("bad value for ", flag, ": '", text, "'");
        }
    }
    return parseCountValue(flag, text,
                           std::numeric_limits<uint64_t>::max());
}

const fault::InjectionPolicy &
parsePolicyName(const std::string &name)
{
    try {
        return fault::resolveInjectionPolicy(name);
    } catch (const std::invalid_argument &error) {
        fatal(error.what());
    }
}

unsigned
parseGangWidthValue(const std::string &flag, const std::string &text)
{
    if (text == "auto")
        return fault::GANG_WIDTH_AUTO;
    unsigned width = parseCount32(flag, text);
    if (width > sim::GangSimulator::MAX_LANES)
        fatal(flag, " must be 'auto' or 0..",
              sim::GangSimulator::MAX_LANES, ", got '", text, "'");
    return width;
}

void
emitCellJson(const std::string &workloadName, const std::string &policy,
             unsigned errors, const CellSummary &cell,
             const core::StudyConfig &config)
{
    std::ostringstream line;
    line.setf(std::ios::fixed);
    line.precision(4);
    line << "BENCH_JSON {"
         << "\"workload\":\"" << workloadName << "\","
         << "\"policy\":\"" << policy << "\","
         << "\"errors\":" << errors << ","
         << "\"trials\":" << cell.trials << ","
         << "\"completed\":" << cell.completed << ","
         << "\"wall_s\":" << cell.wallSeconds << ","
         << "\"trials_per_sec\":" << cell.trialsPerSecond() << ","
         << "\"total_instructions\":" << cell.totalInstructions << ","
         << "\"trials_pruned\":" << cell.trialsPruned << ","
         << "\"threads\":" << config.threads << "}";
    // stderr, with the progress lines: stdout holds only reproduced
    // results and must stay byte-identical across thread counts,
    // which wall-clock telemetry never is. One write, so concurrent
    // lines never interleave.
    line << '\n';
    std::cerr << line.str() << std::flush;
}

void
banner(std::ostream &os, const std::string &experiment,
       const std::string &caption)
{
    os << '\n'
       << "==========================================================\n"
       << experiment << '\n'
       << caption << '\n'
       << "==========================================================\n";
}

namespace {

/** Series marker of policy index @p i (stable, cycling). */
char
seriesMarker(size_t i)
{
    static const char markers[] = {'o', 'x', '+', '*', '#', '@', '%',
                                   '~'};
    return markers[i % sizeof(markers)];
}

/** The registry chart label of @p policy (the name if unregistered:
 *  stores may hold cells of policies this process never saw). */
std::string
chartLabelOf(const std::string &policy)
{
    if (const auto *registered = fault::findInjectionPolicy(policy))
        return registered->chartLabel;
    return policy;
}

} // namespace

void
printFigure(std::ostream &os, const std::string &title,
            const std::string &yLabel,
            const std::vector<std::string> &policies,
            const std::vector<SweepPoint> &points,
            const std::function<double(const CellSummary &)> &fidelityOf,
            double threshold)
{
    Table table({"errors", "policy", "trials", "completed", "% failed",
                 "95% CI", "fidelity"});
    for (const auto &p : points) {
        for (size_t i = 0; i < policies.size(); ++i) {
            const auto &cell = p.cell(i);
            auto ci = wilsonInterval(cell.crashed + cell.timedOut,
                                     cell.trials);
            std::string ciText = "[";
            ciText += formatPercent(ci.low);
            ciText += ", ";
            ciText += formatPercent(ci.high);
            ciText += "]";
            table.addRow({
                i == 0 ? std::to_string(p.errors) : "",
                policies[i],
                std::to_string(cell.trials),
                std::to_string(cell.completed),
                formatPercent(cell.failureRate()),
                ciText,
                formatDouble(fidelityOf(cell)),
            });
        }
    }
    table.print(os);

    AsciiChart fidelityChart(title, "errors inserted", yLabel);
    for (size_t i = 0; i < policies.size(); ++i) {
        Series series;
        series.name = chartLabelOf(policies[i]);
        series.marker = seriesMarker(i);
        for (const auto &p : points) {
            series.xs.push_back(p.errors);
            series.ys.push_back(fidelityOf(p.cell(i)));
        }
        fidelityChart.addSeries(series);
    }
    if (!std::isnan(threshold))
        fidelityChart.setThreshold(threshold, "fidelity threshold");
    os << '\n';
    fidelityChart.print(os);

    AsciiChart failChart(title + " -- catastrophic failures",
                         "errors inserted", "% failed runs");
    for (size_t i = 0; i < policies.size(); ++i) {
        Series series;
        series.name = "failures (" + policies[i] + ")";
        series.marker = seriesMarker(i);
        for (const auto &p : points) {
            series.xs.push_back(p.errors);
            series.ys.push_back(100.0 * p.cell(i).failureRate());
        }
        failChart.addSeries(series);
    }
    os << '\n';
    failChart.print(os);
}

} // namespace etc::bench
