#include "bench/experiments.hh"

#include <iostream>
#include <limits>

#include "store/result_store.hh"

namespace etc::bench {

namespace {

constexpr double NO_THRESHOLD =
    std::numeric_limits<double>::quiet_NaN();

} // namespace

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> registry = {
        {
            "fig1",
            "Figure 1",
            "Susan: PSNR of pictures with error vs. errors "
            "inserted (threshold 10 dB)",
            "Figure 1: Susan",
            "PSNR (dB)",
            "susan",
            workloads::Scale::Bench,
            {100, 500, 920, 1100, 1550, 2300},
            25,
            {"protected", "unprotected"},
            0,
            FidelityMetric::Mean,
            10.0,
        },
        {
            "fig2",
            "Figure 2",
            "MPEG: % bad frames and % failed executions vs. "
            "errors inserted (threshold 10% bad frames)",
            "Figure 2: MPEG",
            "% bad frames",
            "mpeg",
            workloads::Scale::Bench,
            {25, 50, 100, 250, 500},
            25,
            {"protected", "unprotected"},
            0,
            FidelityMetric::MeanPercent,
            10.0,
        },
        {
            "fig3",
            "Figure 3",
            "MCF: % optimal schedules found and % failed "
            "executions vs. errors inserted",
            "Figure 3: MCF",
            "% optimal schedules",
            "mcf",
            workloads::Scale::Bench,
            {0, 1, 2, 5, 10, 20, 50},
            25,
            {"protected", "unprotected"},
            // Corrupted parent walks spin forever; a 4x budget
            // detects them without burning the full default timeout
            // allowance.
            4.0,
            FidelityMetric::AcceptablePct,
            NO_THRESHOLD,
        },
        {
            "fig4",
            "Figure 4",
            "Blowfish: % bytes correct and % failed executions "
            "vs. errors inserted",
            "Figure 4: Blowfish",
            "% bytes correct",
            "blowfish",
            workloads::Scale::Bench,
            {1, 5, 10, 20, 30, 40},
            20,
            {"protected", "unprotected"},
            0,
            FidelityMetric::MeanPercent,
            NO_THRESHOLD,
        },
        {
            "fig5",
            "Figure 5",
            "GSM: SNR vs. fault-free decode and % failed "
            "executions vs. errors inserted",
            "Figure 5: GSM",
            "SNR (dB) vs fault-free output",
            "gsm",
            workloads::Scale::Bench,
            {1, 5, 10, 20, 30, 40},
            25,
            {"protected", "unprotected"},
            0,
            FidelityMetric::Mean,
            NO_THRESHOLD,
        },
        {
            "fig6",
            "Figure 6",
            "ART: % images recognized and % failed executions "
            "vs. errors inserted",
            "Figure 6: ART",
            "% images recognized",
            "art",
            workloads::Scale::Bench,
            {0, 1, 2, 3, 4},
            40,
            {"protected", "unprotected"},
            0,
            FidelityMetric::AcceptablePct,
            NO_THRESHOLD,
        },
        // Not paper figures: minute-scale sweeps over the test-scale
        // inputs, sized for CI cache smoke tests and local sanity
        // checks of the store/orchestration machinery.
        {
            "smoke",
            "Smoke sweep",
            "ADPCM at test scale: tiny sweep for cache and "
            "orchestration validation (not a paper figure)",
            "Smoke: ADPCM (test scale)",
            "fidelity",
            "adpcm",
            workloads::Scale::Test,
            {1, 3, 5},
            12,
            {"protected", "unprotected"},
            0,
            FidelityMetric::Mean,
            NO_THRESHOLD,
        },
        {
            "smoke-gsm",
            "Smoke sweep (GSM)",
            "GSM at test scale: tiny sweep for cache and "
            "orchestration validation (not a paper figure)",
            "Smoke: GSM (test scale)",
            "SNR (dB) vs fault-free output",
            "gsm",
            workloads::Scale::Test,
            {1, 4},
            8,
            {"protected"},
            0,
            FidelityMetric::Mean,
            NO_THRESHOLD,
        },
        // The policy ablation the paper only implies: the same
        // workload swept under every built-in injection policy --
        // the legacy pair, the result-kind slices, and the harsher
        // bit-error models -- at test scale so the whole grid runs
        // in seconds.
        {
            "ablation_policies",
            "Ablation: injection policies",
            "ADPCM at test scale under every built-in injection "
            "policy: which results faults corrupt, and how",
            "Ablation: ADPCM across injection policies",
            "fraction bytes correct",
            "adpcm",
            workloads::Scale::Test,
            {1, 3},
            10,
            {"protected", "unprotected", "control-only", "data-only",
             "unprotected-regs", "protected-burst2",
             "unprotected-low16"},
            0,
            FidelityMetric::Mean,
            NO_THRESHOLD,
        },
    };
    return registry;
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &exp : experiments())
        if (exp.name == name)
            return &exp;
    return nullptr;
}

std::string
experimentNames()
{
    std::string names;
    for (const auto &exp : experiments()) {
        if (!names.empty())
            names += ", ";
        names += exp.name;
    }
    return names;
}

double
fidelityOf(const Experiment &exp, const core::CellSummary &cell)
{
    switch (exp.metric) {
      case FidelityMetric::Mean: return cell.meanFidelity();
      case FidelityMetric::MeanPercent:
        return 100.0 * cell.meanFidelity();
      case FidelityMetric::AcceptablePct:
        return 100.0 * cell.acceptableRate();
    }
    return 0.0;
}

core::StudyConfig
makeStudyConfig(const Experiment &exp, const BenchOptions &opts)
{
    core::StudyConfig config;
    opts.applyTo(config);
    if (exp.budgetFactor > 0)
        config.budgetFactor = exp.budgetFactor;
    return config;
}

ExperimentStudy::ExperimentStudy(const Experiment &exp,
                                 const BenchOptions &opts)
    : exp(exp),
      workload(workloads::createWorkload(exp.workload, exp.scale)),
      study(*workload, makeStudyConfig(exp, opts))
{}

std::vector<std::string>
sweepPolicies(const Experiment &exp, const BenchOptions &opts)
{
    return opts.policies.empty() ? exp.policies : opts.policies;
}

std::vector<std::pair<unsigned, std::string>>
experimentCells(const Experiment &exp,
                const std::vector<std::string> &policies)
{
    std::vector<std::pair<unsigned, std::string>> cells;
    for (unsigned errors : exp.errorCounts)
        for (const auto &policy : policies)
            cells.emplace_back(errors, policy);
    return cells;
}

std::vector<std::pair<unsigned, std::string>>
experimentCells(const Experiment &exp)
{
    return experimentCells(exp, exp.policies);
}

std::vector<SweepPoint>
sweepPointsFrom(const Experiment &exp,
                const std::vector<std::string> &policies,
                const std::vector<core::CellSummary> &summaries)
{
    std::vector<SweepPoint> points;
    size_t next = 0;
    for (unsigned errors : exp.errorCounts) {
        SweepPoint point;
        point.errors = errors;
        for (size_t i = 0; i < policies.size(); ++i)
            point.cells.push_back(summaries.at(next++));
        points.push_back(std::move(point));
    }
    return points;
}

std::vector<store::CellKey>
experimentCellKeys(const Experiment &exp, const BenchOptions &opts)
{
    ExperimentStudy lab(exp, opts);
    unsigned trials = opts.trialsOr(exp.defaultTrials);

    std::vector<store::CellKey> keys;
    for (auto [errors, policy] :
         experimentCells(exp, sweepPolicies(exp, opts)))
        keys.push_back(lab.study.cellKey(errors, policy, trials));
    return keys;
}

StoredSweep
loadExperimentFromStore(const Experiment &exp, const BenchOptions &opts,
                        store::ResultStore &cache)
{
    return loadExperimentFromStore(exp, sweepPolicies(exp, opts),
                                   experimentCellKeys(exp, opts),
                                   cache);
}

StoredSweep
loadExperimentFromStore(const Experiment &exp,
                        const std::vector<std::string> &policies,
                        const std::vector<store::CellKey> &keys,
                        store::ResultStore &cache)
{
    StoredSweep sweep;
    std::vector<core::CellSummary> summaries;
    for (const auto &key : keys) {
        if (auto summary = cache.loadCell(key))
            summaries.push_back(std::move(*summary));
        else
            sweep.missing.push_back(key);
    }
    if (sweep.missing.empty())
        sweep.points = sweepPointsFrom(exp, policies, summaries);
    return sweep;
}

void
renderExperiment(std::ostream &os, const Experiment &exp,
                 const std::vector<std::string> &policies,
                 const std::vector<SweepPoint> &points)
{
    banner(os, exp.experiment, exp.caption);
    printFigure(os, exp.title, exp.yLabel, policies, points,
                [&exp](const core::CellSummary &cell) {
                    return fidelityOf(exp, cell);
                },
                exp.threshold);
}

void
renderExperiment(std::ostream &os, const Experiment &exp,
                 const std::vector<SweepPoint> &points)
{
    renderExperiment(os, exp, exp.policies, points);
}

void
renderExperiment(const Experiment &exp,
                 const std::vector<std::string> &policies,
                 const std::vector<SweepPoint> &points)
{
    renderExperiment(std::cout, exp, policies, points);
}

} // namespace etc::bench
