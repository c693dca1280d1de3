/**
 * @file
 * Registry of the paper's artifacts -- its six figures, three tables,
 * Section 5.3 cost estimate and three ablations -- plus CI-scale
 * smoke sweeps.
 *
 * An Experiment is one sweep: one workload's cells under one study
 * configuration. A figure is one sweep, shown as a table plus ASCII
 * charts; a paper table lists its sweeps and lays out their cells
 * next to each sweep's analysis and profile (Table 1, Table 3 and the
 * cost estimate run no trials). `etc_lab run`, `etc_lab report` and
 * the daemon's GET /v1/figures/<name> render both through one path,
 * byte-identically, and the daemon's workers lease each cell under
 * its sweep's own registry name.
 */

#ifndef ETC_BENCH_EXPERIMENTS_HH
#define ETC_BENCH_EXPERIMENTS_HH

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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

/** One registered sweep: a paper figure, a smoke-scale sweep, or one
 *  of a paper table's sweeps (whose banner and chart fields are
 *  unused). */
struct Experiment
{
    std::string name{};       //!< CLI identifier ("fig5", "smoke", ...)
    std::string experiment{}; //!< banner headline ("Figure 5")
    std::string caption{};    //!< banner caption
    std::string title{};      //!< chart title ("Figure 5: GSM")
    std::string yLabel{};     //!< fidelity axis caption
    std::string workload{};   //!< workload factory name
    workloads::Scale scale = workloads::Scale::Bench;
    std::vector<unsigned> errorCounts{};
    unsigned defaultTrials = 25;

    /** Injection policies swept at every error count (registry
     *  names, render order). Paper figures sweep the legacy pair,
     *  which is also the default -- an entry that never sets the
     *  field sweeps something rather than silently nothing. */
    std::vector<std::string> policies = {fault::PROTECTED_POLICY,
                                         fault::UNPROTECTED_POLICY};

    double budgetFactor = 0; //!< 0 = the StudyConfig default
    FidelityMetric metric = FidelityMetric::Mean;
    double threshold = std::numeric_limits<double>::quiet_NaN();
                             //!< NaN = no threshold line

    /** The ablations' axes, applied by makeStudyConfig() as
     *  budgetFactor is: the platform's memory fault model (a cell-key
     *  field) and the CVar analysis switches (the key's program hash
     *  covers the injectable set they yield). Paper defaults
     *  otherwise. */
    sim::MemoryModel memoryModel = sim::MemoryModel::Lenient;
    analysis::ProtectionConfig protection{};
};

/** @return the sweep named @p name -- a figure or smoke sweep, or
 *  one of a paper table's sweeps -- or nullptr. */
const Experiment *findExperiment(const std::string &name);

/** @return comma-separated top-level registry names (for usage
 *  messages). */
std::string experimentNames();

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
     *  threads share it (the daemon's local executors). Keying a cell
     *  only reads its immutable analysis and config. */
    std::mutex runMutex;
};

/**
 * The studies of registry sweeps under one set of options, each built
 * on first use: `etc_lab run` runs cells through them, and paper
 * tables read their analysis and profile columns from them.
 */
class SweepStudies
{
  public:
    explicit SweepStudies(BenchOptions opts) : opts_(std::move(opts)) {}

    const BenchOptions &options() const { return opts_; }

    /** The study of registry sweep @p exp (keyed by its address). */
    ExperimentStudy &of(const Experiment &exp);

    /** Every study built so far. */
    std::vector<ExperimentStudy *> built() const;

  private:
    BenchOptions opts_;
    std::map<const Experiment *, std::unique_ptr<ExperimentStudy>>
        studies_;
};

/** A sweep's points, one per error count. */
using SweepPoints = std::vector<SweepPoint>;

struct PaperTable;

/** Lays out a paper table's rows: @p points holds each row's swept
 *  points, in row order. */
using TableRenderer = Table (*)(const PaperTable &table,
                                const std::vector<SweepPoints> &points,
                                SweepStudies &studies);

/** One row group of a paper table and the registry data beside it. */
struct TableRow
{
    /** The study the row reports on: with error counts, one of the
     *  table's sweeps, under its own registry name. */
    Experiment study;
    std::string label;              //!< the ablation variant's label
    std::vector<std::string> paper; //!< values the paper reports
};

/** A paper table: the sweeps it runs and how it renders them. */
struct PaperTable
{
    std::string name;       //!< CLI identifier ("table2", ...)
    std::string experiment; //!< banner headline ("Table 2")
    std::string caption;    //!< banner caption
    std::string footnote;   //!< printed under the table ("" = none)
    TableRenderer render;
    std::vector<TableRow> rows; //!< render order
};

/** A registry name resolved: the sweeps it runs and how it renders. */
struct Artifact
{
    std::string name;
    const Experiment *figure = nullptr; //!< a sweep, shown as a figure
    const PaperTable *table = nullptr;  //!< or a paper table

    /** The sweeps in render order: the figure itself, or the table's
     *  rows' studies (a study without error counts runs nothing). */
    std::vector<const Experiment *> sweeps;

    /** Banner headline ("Figure 5", "Table 2"). */
    const std::string &headline() const;

    /** Cells of every sweep under its own policies. */
    size_t cells() const;
};

/** Every top-level registry name: the figure and smoke sweeps, then
 *  the paper tables. */
std::vector<Artifact> artifacts();

/**
 * Resolve @p name -- a figure or smoke sweep, or a paper table -- or
 * nullopt. `etc_lab` run/resume/report/list, POST /v1/jobs and GET
 * /v1/figures/<name> all resolve names through this.
 */
std::optional<Artifact> findArtifact(const std::string &name);

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
SweepPoints sweepPointsFrom(const Experiment &exp,
                            const std::vector<std::string> &policies,
                            const std::vector<core::CellSummary> &summaries);

/**
 * Result of loading a whole experiment sweep from the result store
 * without simulating anything (cell keys are rebuilt from static
 * analysis alone).
 */
struct StoredSweep
{
    /** Sweep points, valid iff missing is empty. */
    SweepPoints points;

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

/** Load every cell of @p exp from @p cache. */
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
                      const SweepPoints &points);

/** Tally of one runArtifact() call. */
struct ArtifactRun
{
    size_t cells = 0;         //!< cells of every sweep
    size_t cellsCached = 0;   //!< loaded whole from the store
    size_t cellsComputed = 0; //!< simulated, or resumed from shards
    bool interrupted = false; //!< a stop request cut the run short
};

/**
 * Run every cell of @p artifact through @p studies and render it to
 * @p os -- what `etc_lab run` prints. Per sweep, the stored cells load
 * without simulating, and the others run as one engine pass of
 * @p stripes stripes per cell, each persisted as it ends
 * (ErrorToleranceStudy::runCells). Each cell's progress and BENCH_JSON
 * lines go to stderr as it lands. A stop request stops starting new
 * stripes, and the run returns interrupted without rendering.
 *
 * @throws FatalError on a table given a --policy override (it names
 *         one sweep's policies)
 */
ArtifactRun runArtifact(std::ostream &os, const Artifact &artifact,
                        SweepStudies &studies, unsigned stripes);

/**
 * Load every cell of @p artifact from @p cache (@p keys holds each
 * sweep's experimentCellKeys()) and render it as runArtifact() does:
 * `etc_lab report` and GET /v1/figures/<name> both render this way.
 *
 * @return the keys of the cells with no stored record (nothing is
 *         rendered unless it is empty)
 * @throws FatalError on a table given a --policy override
 */
std::vector<store::CellKey> renderFromStore(
    std::ostream &os, const Artifact &artifact,
    const std::vector<std::vector<store::CellKey>> &keys,
    store::ResultStore &cache, SweepStudies &studies);

} // namespace etc::bench

#endif // ETC_BENCH_EXPERIMENTS_HH
