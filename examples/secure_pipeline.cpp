/**
 * @file
 * Example: an encrypt-store-decrypt pipeline on unreliable hardware.
 *
 * Blowfish is the interesting stress case for control-data protection:
 * its data path tolerates bit errors gracefully (one corrupted block =
 * eight wrong bytes), but its key schedule and S-box addressing do
 * not. This example runs the pipeline at increasing error rates in
 * three configurations and reports failure rates and plaintext
 * recovery:
 *
 *   1. paper protection      (CVar tags, addresses unprotected)
 *   2. hardened protection   (CVar + address operands protected)
 *   3. no protection         (everything injectable)
 *
 * Build & run:  ./build/examples/secure_pipeline
 */

#include <iostream>

#include "core/study.hh"
#include "support/table.hh"
#include "workloads/blowfish.hh"

using namespace etc;

int
main()
{
    workloads::BlowfishWorkload workload(
        workloads::BlowfishWorkload::scaled(workloads::Scale::Bench));
    std::cout << "plaintext bytes: " << workload.plaintext().size()
              << ", program: " << workload.program().size()
              << " instructions\n\n";

    core::StudyConfig paper;
    paper.trials = 15;
    core::StudyConfig hardened = paper;
    hardened.protection.protectAddresses = true;

    core::ErrorToleranceStudy paperStudy(workload, paper);
    core::ErrorToleranceStudy hardenedStudy(workload, hardened);

    Table table({"errors", "config", "% failed", "% bytes recovered"});
    for (unsigned errors : {4u, 16u, 64u}) {
        struct Row
        {
            const char *label;
            core::ErrorToleranceStudy *study;
            const char *policy;
        };
        const Row rows[] = {
            {"paper protection", &paperStudy, fault::PROTECTED_POLICY},
            {"hardened (+addresses)", &hardenedStudy,
             fault::PROTECTED_POLICY},
            {"no protection", &paperStudy, fault::UNPROTECTED_POLICY},
        };
        for (const Row &row : rows) {
            auto cell = row.study->runCell(errors, row.policy);
            table.addRow({
                std::to_string(errors),
                row.label,
                formatPercent(cell.failureRate()),
                formatPercent(cell.meanFidelity()),
            });
        }
    }
    table.print(std::cout);
    std::cout << "\nReading: with control (and optionally address) "
                 "protection the pipeline degrades by isolated blocks; "
                 "without it, runs crash or garble the whole stream.\n";
    return 0;
}
