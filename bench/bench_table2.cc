/**
 * @file
 * Table 2 reproduction: percentage of catastrophic failures (crashes
 * or "infinite" runs) with and without protecting control data, at the
 * paper's two error counts per application.
 *
 * Absolute rates differ from the paper because our kernels are far
 * shorter than the SPEC/MiBench reference runs (the same error count
 * is a much higher error *density* here); the shape to check is:
 * protected rates are near zero at low error counts and far below the
 * unprotected rates everywhere.
 */

#include <iostream>

#include "support/logging.hh"

#include "bench/common.hh"

using namespace etc;
using fault::PROTECTED_POLICY;
using fault::UNPROTECTED_POLICY;

namespace {

struct Table2Row
{
    const char *app;
    std::vector<unsigned> errorCounts;
    /** Paper-reported % failures (with, without) per error count. */
    std::vector<std::pair<const char *, const char *>> paper;
};

const std::vector<Table2Row> rows = {
    {"susan", {2200}, {{"0%", "10%"}}},
    {"mpeg", {20, 120}, {{"0%", "100%"}, {"0%", "100%"}}},
    {"mcf", {1, 340}, {{"0%", "100%"}, {"6%", "100%"}}},
    {"blowfish", {2, 20}, {{"0%", "10%"}, {"19%", "48%"}}},
    {"gsm", {10, 40}, {{"0%", "100%"}, {"0%", "100%"}}},
    {"art", {4}, {{"0%", "0%"}}},
    {"adpcm", {3, 56}, {{"2%", "8.5%"}, {"8%", "53.5%"}}},
};

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseBenchArgs(argc, argv);

    constexpr unsigned TRIALS = 30;
    Table table({"Algorithm", "Errors", "Total instrs",
                 "% fail (protected)", "paper", "% fail (unprotected)",
                 "paper"});

    for (const auto &row : rows) {
        auto workload = workloads::createWorkload(
            row.app, workloads::Scale::Bench);
        core::StudyConfig config;
        opts.applyTo(config);
        config.trials = opts.trialsOr(TRIALS);
        core::ErrorToleranceStudy study(*workload, config);
        for (size_t i = 0; i < row.errorCounts.size(); ++i) {
            unsigned errors = row.errorCounts[i];
            inform("table2: ", row.app, " @ ", errors, " errors");
            auto prot = study.runCell(errors, PROTECTED_POLICY);
            bench::emitCellJson(row.app, "protected", errors, prot,
                                study.config());
            auto unprot =
                study.runCell(errors, UNPROTECTED_POLICY);
            bench::emitCellJson(row.app, "unprotected", errors, unprot,
                                study.config());
            table.addRow({
                i == 0 ? row.app : "",
                std::to_string(errors),
                std::to_string(study.goldenInstructions()),
                formatPercent(prot.failureRate()),
                row.paper[i].first,
                formatPercent(unprot.failureRate()),
                row.paper[i].second,
            });
        }
    }
    bench::banner("Table 2",
                  "Catastrophic failures with and without protecting "
                  "control data");
    table.print(std::cout);
    std::cout << "\n(paper columns: values reported by Thaker et al. "
                 "on 144M-42B instruction runs)\n";
    return 0;
}
