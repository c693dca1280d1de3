/**
 * @file
 * Example: visual error tolerance of SUSAN edge detection.
 *
 * Runs the susan workload through increasing error counts with the
 * control-data protection on, writes the fault-free and the most
 * degraded edge maps as PGM images (viewable with any image tool),
 * and prints the PSNR ladder -- a miniature of the paper's Figure 1
 * that you can *look at*.
 *
 * Build & run:  ./build/examples/edge_detection_study
 * Output:       susan_golden.pgm, susan_errors_<n>.pgm
 */

#include <fstream>
#include <iostream>

#include "core/study.hh"
#include "workloads/susan.hh"

using namespace etc;

namespace {

void
writePgm(const std::string &path, unsigned width, unsigned height,
         const std::vector<uint8_t> &pixels)
{
    std::ofstream out(path, std::ios::binary);
    out << "P5\n" << width << ' ' << height << "\n255\n";
    out.write(reinterpret_cast<const char *>(pixels.data()),
              static_cast<std::streamsize>(pixels.size()));
    std::cout << "wrote " << path << " (" << width << "x" << height
              << ")\n";
}

} // namespace

int
main()
{
    workloads::SusanWorkload workload(
        workloads::SusanWorkload::scaled(workloads::Scale::Bench));
    const unsigned width = workload.params().width - 4;
    const unsigned height = workload.params().height - 4;

    core::StudyConfig config;
    config.trials = 8;
    core::ErrorToleranceStudy study(workload, config);
    writePgm("susan_golden.pgm", width, height, study.goldenOutput());

    std::cout << "\nerrors  mean PSNR (dB)  acceptable (>= "
              << workload.params().fidelityThresholdDb << " dB)\n";
    for (unsigned errors : {50u, 200u, 800u, 3200u}) {
        auto cell =
            study.runCell(errors, fault::PROTECTED_POLICY);
        std::cout << errors << "\t" << cell.meanFidelity() << "\t\t"
                  << static_cast<int>(100 * cell.acceptableRate())
                  << "%\n";
    }

    // Render one corrupted output for inspection: rerun a single trial
    // at a heavy error count and dump its edge map.
    auto heavy = study.runCell(3200, fault::PROTECTED_POLICY, 1);
    if (heavy.completed == 1) {
        // Reconstruct the trial output by rerunning the same seed.
        auto injectable = fault::injectableWithProtection(
            workload.program(), study.protection().tagged);
        fault::CampaignRunner runner(workload.program(),
                                     std::move(injectable));
        fault::CampaignConfig campaign;
        campaign.trials = 1;
        campaign.errors = 3200;
        campaign.seed = config.seed ^ (uint64_t{3200} << 32) ^ 0x1;
        auto result = runner.run(campaign);
        if (result.completed == 1) {
            auto out = result.outcomes.front().output;
            out.resize(static_cast<size_t>(width) * height, 0);
            writePgm("susan_errors_3200.pgm", width, height, out);
        }
    }
    std::cout << "\nCompare the two .pgm files: edges survive thousands "
                 "of data errors because control stays protected.\n";
    return 0;
}
