/**
 * @file
 * Registry of the paper's figure sweeps (plus CI-scale smoke sweeps).
 *
 * Every figure reproduction is the same shape -- banner, workload,
 * study, error-count sweep, table + ASCII charts -- varying only in
 * the data collected here. `etc_lab run --experiment figN` is the one
 * driver that executes these sweeps; the campaign daemon and its
 * workers run the same entries cell by cell, so a figure rendered by
 * `etc_lab run`, by `etc_lab report` straight from cached records,
 * and by the daemon's GET /v1/figures/<name> is byte-identical.
 */

#ifndef ETC_BENCH_EXPERIMENTS_HH
#define ETC_BENCH_EXPERIMENTS_HH

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hh"

namespace etc::store {
struct CellKey;
class ResultStore;
} // namespace etc::store

namespace etc::bench {

/** How a cell's plotted fidelity value is derived. */
enum class FidelityMetric
{
    Mean,           //!< meanFidelity()
    MeanPercent,    //!< 100 * meanFidelity()
    AcceptablePct,  //!< 100 * acceptableRate()
};

/** One registered sweep (a paper figure or a smoke-scale sweep). */
struct Experiment
{
    std::string name;       //!< CLI identifier ("fig5", "smoke", ...)
    std::string experiment; //!< banner headline ("Figure 5")
    std::string caption;    //!< banner caption
    std::string title;      //!< chart title ("Figure 5: GSM")
    std::string yLabel;     //!< fidelity axis caption
    std::string workload;   //!< workload factory name
    workloads::Scale scale = workloads::Scale::Bench;
    std::vector<unsigned> errorCounts;
    unsigned defaultTrials = 25;

    /** Injection policies swept at every error count (registry
     *  names, render order). Paper figures sweep the legacy pair,
     *  which is also the default -- an entry that never sets the
     *  field sweeps something rather than silently nothing. */
    std::vector<std::string> policies = {fault::PROTECTED_POLICY,
                                         fault::UNPROTECTED_POLICY};

    double budgetFactor = 0; //!< 0 = the StudyConfig default
    FidelityMetric metric = FidelityMetric::Mean;
    double threshold;        //!< NaN = no threshold line
};

/** All registered experiments, figure order first. */
const std::vector<Experiment> &experiments();

/** @return the registry entry named @p name, or nullptr. */
const Experiment *findExperiment(const std::string &name);

/** @return comma-separated registry names (for usage messages). */
std::string experimentNames();

/** @return the plotted fidelity value of @p cell under @p exp. */
double fidelityOf(const Experiment &exp, const core::CellSummary &cell);

/** Study configuration for @p exp with the common knobs applied. */
core::StudyConfig makeStudyConfig(const Experiment &exp,
                                  const BenchOptions &opts);

/**
 * The workload of @p exp and the study of it under @p opts: the one
 * place a driver (etc_lab, the daemon's scheduler, a fleet worker)
 * gets the study it keys, runs and promotes cells through. Building
 * one runs the protection analysis only -- nothing is simulated until
 * a cell runs.
 */
struct ExperimentStudy
{
    ExperimentStudy(const Experiment &exp, const BenchOptions &opts);

    const Experiment &exp;
    std::unique_ptr<workloads::Workload> workload;
    core::ErrorToleranceStudy study; //!< over *workload

    /** Serializes runs on the study, which is not thread-safe, where
     *  threads share it (the daemon's and an agent's executors).
     *  Keying a cell only reads its immutable analysis and config. */
    std::mutex runMutex;
};

/** The swept policy list: opts.policies when set, else the
 *  experiment's own. */
std::vector<std::string> sweepPolicies(const Experiment &exp,
                                       const BenchOptions &opts);

/** The (errors, policy) cells of the sweep, in sweep order. */
std::vector<std::pair<unsigned, std::string>>
experimentCells(const Experiment &exp,
                const std::vector<std::string> &policies);

/** experimentCells() over the experiment's own policy list. */
std::vector<std::pair<unsigned, std::string>>
experimentCells(const Experiment &exp);

/**
 * Fold per-cell summaries (one per experimentCells() entry, in that
 * order) back into sweep points.
 */
std::vector<SweepPoint> sweepPointsFrom(
    const Experiment &exp, const std::vector<std::string> &policies,
    const std::vector<core::CellSummary> &summaries);

/**
 * Result of loading a whole experiment sweep from the result store
 * without simulating anything (cell keys are rebuilt from static
 * analysis alone).
 */
struct StoredSweep
{
    /** Sweep points, valid iff missing is empty. */
    std::vector<SweepPoint> points;

    /** Keys of the cells with no usable stored record. */
    std::vector<store::CellKey> missing;

    bool complete() const { return missing.empty(); }
};

/**
 * The store keys of every cell of @p exp's sweep (in
 * experimentCells() order), rebuilt from static analysis alone -- no
 * simulation. Callers that look cells up repeatedly (the campaign
 * service's figure endpoint) compute these once and reuse them.
 */
std::vector<store::CellKey> experimentCellKeys(const Experiment &exp,
                                               const BenchOptions &opts);

/**
 * Load every cell of @p exp from @p cache. `etc_lab report` and the
 * campaign service's GET /v1/figures/<name> both render from this, so
 * their output is byte-identical.
 */
StoredSweep loadExperimentFromStore(const Experiment &exp,
                                    const BenchOptions &opts,
                                    store::ResultStore &cache);

/** loadExperimentFromStore() over precomputed experimentCellKeys()
 *  (@p policies must be the list the keys were built from). */
StoredSweep loadExperimentFromStore(
    const Experiment &exp, const std::vector<std::string> &policies,
    const std::vector<store::CellKey> &keys, store::ResultStore &cache);

/** Print @p exp's banner, table, and charts for the swept points
 *  (@p policies parallel to each point's cells). */
void renderExperiment(std::ostream &os, const Experiment &exp,
                      const std::vector<std::string> &policies,
                      const std::vector<SweepPoint> &points);

/** renderExperiment() over the experiment's own policy list. */
void renderExperiment(std::ostream &os, const Experiment &exp,
                      const std::vector<SweepPoint> &points);

/** renderExperiment() to std::cout. */
void renderExperiment(const Experiment &exp,
                      const std::vector<std::string> &policies,
                      const std::vector<SweepPoint> &points);

} // namespace etc::bench

#endif // ETC_BENCH_EXPERIMENTS_HH
