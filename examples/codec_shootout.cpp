/**
 * @file
 * Example: which speech codec degrades more gracefully on unreliable
 * hardware -- ADPCM or the GSM-style LPC codec?
 *
 * This is the embedded-domain question the paper's introduction
 * motivates: perceptual applications can absorb data errors, so how
 * much of each codec could run on cheap, error-prone silicon? The
 * example contrasts:
 *
 *   - the *fraction* of each codec that is low-reliability-eligible
 *     (ADPCM ~90% -- predicated data flow; GSM ~20% -- branchy
 *     encoder decisions), and
 *   - the output quality (SNR vs. the fault-free decode) as errors
 *     are injected into that eligible fraction.
 *
 * Build & run:  ./build/examples/codec_shootout
 */

#include <iostream>

#include "core/study.hh"
#include "fidelity/metrics.hh"
#include "support/table.hh"
#include "workloads/adpcm.hh"
#include "workloads/gsm.hh"

using namespace etc;

namespace {

double
snrVsGolden(const std::vector<uint8_t> &golden,
            const std::vector<uint8_t> &test)
{
    return fidelity::snrDb(fidelity::asInt16(golden),
                           fidelity::asInt16(test));
}

} // namespace

int
main()
{
    workloads::AdpcmWorkload adpcm(
        workloads::AdpcmWorkload::scaled(workloads::Scale::Bench));
    workloads::GsmWorkload gsm(
        workloads::GsmWorkload::scaled(workloads::Scale::Bench));

    core::StudyConfig config;
    config.trials = 20;
    core::ErrorToleranceStudy adpcmStudy(adpcm, config);
    core::ErrorToleranceStudy gsmStudy(gsm, config);

    std::cout << "low-reliability-eligible dynamic instructions:\n"
              << "  adpcm: "
              << formatPercent(adpcmStudy.profile().taggedFraction())
              << "   gsm: "
              << formatPercent(gsmStudy.profile().taggedFraction())
              << "\n\n";

    Table table({"errors", "codec", "% failed", "SNR vs clean (dB)"});
    for (unsigned errors : {2u, 8u, 32u}) {
        for (auto *entry :
             {static_cast<core::ErrorToleranceStudy *>(&adpcmStudy),
              static_cast<core::ErrorToleranceStudy *>(&gsmStudy)}) {
            auto cell =
                entry->runCell(errors, fault::PROTECTED_POLICY);
            // Mean SNR of completed trials against the golden decode.
            double snrSum = 0.0;
            unsigned counted = 0;
            // CellSummary already carries the workload metric; for a
            // like-for-like comparison compute SNR for both codecs.
            // (adpcm's own metric is byte similarity.)
            auto injectable = fault::injectableWithProtection(
                entry->workload().program(),
                entry->protection().tagged);
            fault::CampaignRunner runner(entry->workload().program(),
                                         std::move(injectable));
            fault::CampaignConfig campaign;
            campaign.trials = config.trials;
            campaign.errors = errors;
            campaign.seed = config.seed ^ (uint64_t{errors} << 32) ^ 0x1;
            auto rerun = runner.run(campaign);
            for (const auto &outcome : rerun.outcomes) {
                if (!outcome.run.completed())
                    continue;
                snrSum += snrVsGolden(runner.goldenOutput(),
                                      outcome.output);
                ++counted;
            }
            table.addRow({
                std::to_string(errors),
                entry->workload().name(),
                formatPercent(cell.failureRate()),
                counted ? formatDouble(snrSum / counted) : "-",
            });
        }
    }
    table.print(std::cout);
    std::cout << "\nReading: ADPCM exposes 4x more of its execution to "
                 "cheap hardware, at the cost of steeper SNR loss per "
                 "error; GSM protects its control-heavy encoder and "
                 "degrades more gently.\n";
    return 0;
}
