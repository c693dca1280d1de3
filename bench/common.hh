/**
 * @file
 * Shared infrastructure of `etc_lab` and the campaign service: the
 * campaign flags parsed through one function, the BENCH_JSON perf
 * record, and the figure renderer.
 *
 * Every paper artifact runs through `etc_lab run --experiment <name>`
 * (see experiments.hh): a figure prints each series as an aligned
 * table and as ASCII charts, so the reproduction's *shape* is visible
 * at a glance, and a paper table prints its rows next to the paper's
 * values. EXPERIMENTS.md records paper-vs-measured for each.
 */

#ifndef ETC_BENCH_COMMON_HH
#define ETC_BENCH_COMMON_HH

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/study.hh"
#include "support/chart.hh"
#include "support/table.hh"
#include "workloads/workload.hh"

namespace etc::bench {

/** One swept error count: a cell per swept injection policy. */
struct SweepPoint
{
    unsigned errors = 0;

    /** One summary per swept policy, in the sweep's policy order. */
    std::vector<core::CellSummary> cells;

    /** The cell of policy index @p i (bounds-checked). */
    const core::CellSummary &cell(size_t i) const { return cells.at(i); }
};

/**
 * The campaign options `etc_lab`, the daemon and its workers share.
 * Campaign results are bit-identical for every thread count, so
 * --threads only changes wall-clock time, never the reproduced
 * numbers.
 */
struct BenchOptions
{
    unsigned threads = 0; //!< campaign worker threads (0 = all cores)
    unsigned trials = 0;  //!< 0 = use the experiment's default

    /** --policy NAME (repeatable): override the swept injection
     *  policies; empty = the experiment's own list. Names are
     *  validated against the policy registry at parse time. */
    std::vector<std::string> policies;

    /** Golden-run checkpoint spacing (instructions; 0 = none). No
     *  flag sets it: only the benchmark's probe and the tests do, and
     *  deleting it waits for ROADMAP item 3. */
    uint64_t checkpointInterval =
        fault::CampaignRunner::DEFAULT_CHECKPOINT_INTERVAL;

    /** Master study seed; cells and their cache keys derive from it. */
    uint64_t seed = core::StudyConfig{}.seed;

    /** Result-store root (--cache-dir); empty = no persistence. */
    std::string cacheDir;

    /** Most trial lanes per gang (0 = scalar; see
     *  core::StudyConfig::gangWidth). Set like checkpointInterval. */
    unsigned gangWidth = fault::GANG_WIDTH_AUTO;

    /** --trace-out FILE: emit Chrome Trace Event JSONL spans there
     *  (empty = tracing off). finishCampaignFlags() opens the tracer.
     *  Observation only -- results are identical with tracing on or
     *  off. */
    std::string traceOut;

    /** @return the trial count: this option, or @p dflt when unset. */
    unsigned
    trialsOr(unsigned dflt) const
    {
        return trials ? trials : dflt;
    }

    /** Apply the common knobs to a study configuration. */
    void
    applyTo(core::StudyConfig &config) const
    {
        config.threads = threads;
        config.checkpointInterval = checkpointInterval;
        config.seed = seed;
        config.cacheDir = cacheDir;
        config.gangWidth = gangWidth;
    }
};

/**
 * Parse argv[i] into @p opts when it is one of the campaign flags --
 * --threads, --trials, --policy, --seed, --cache-dir, --trace-out
 * (see the BenchOptions fields and `etc_lab --help`) -- consuming its
 * value.
 * `--trials 0` is rejected: 0 previously meant "experiment default",
 * which silently masked typos; omit the flag instead.
 *
 * @return false when argv[i] is not a campaign flag
 * @throws FatalError on a bad or missing value
 */
bool parseCampaignFlag(int argc, char **argv, int &i, BenchOptions &opts);

/** Open the tracer when --trace-out was given (once, after the last
 *  flag). */
void finishCampaignFlags(const BenchOptions &opts);

/**
 * The value of @p flag when argv[i] is `flag VALUE` (consuming VALUE)
 * or `flag=VALUE`; nullopt when argv[i] is some other argument.
 * @throws FatalError when the value is missing
 */
std::optional<std::string> flagValue(int argc, char **argv, int &i,
                                     const std::string &flag);

/**
 * Shared flag-value parsers (etc_lab and the campaign service use
 * them). All throw FatalError on bad input; callers attach their own
 * usage/exit policy.
 */

/** Overflow-checked decimal parse into [0, max]. */
uint64_t parseCountValue(const std::string &flag,
                         const std::string &text, uint64_t max);

/** parseCountValue() narrowed to unsigned. */
unsigned parseCount32(const std::string &flag, const std::string &text);

/** Decimal or 0x-hex 64-bit seed. */
uint64_t parseSeedValue(const std::string &flag,
                        const std::string &text);

/** Parse a gang-width value: "auto" or 0..GangSimulator::MAX_LANES
 *  (the benchmark's probe's --gang-width; etc_lab has no such flag). */
unsigned parseGangWidthValue(const std::string &flag,
                             const std::string &text);

/**
 * The one policy-name validator every CLI flag and request field
 * routes through: resolves @p name against the process-wide policy
 * registry, rethrowing the registry's unknown-name error (which lists
 * the known policies) as FatalError for uniform CLI reporting.
 */
const fault::InjectionPolicy &parsePolicyName(const std::string &name);

/**
 * Emit one machine-readable perf record for a campaign cell to stderr
 * (stdout stays byte-identical across thread counts), prefixed with
 * "BENCH_JSON " so harnesses can grep it into a BENCH_*.json perf
 * trajectory:
 *
 *   BENCH_JSON {"workload":...,"policy":...,"errors":...,"trials":...,
 *               "completed":...,"wall_s":...,"trials_per_sec":...,
 *               "total_instructions":...,"trials_pruned":...,
 *               "threads":...}
 */
void emitCellJson(const std::string &workloadName,
                  const std::string &policy, unsigned errors,
                  const core::CellSummary &cell,
                  const core::StudyConfig &config);

/** The banner every figure and paper table opens with. */
void banner(std::ostream &os, const std::string &experiment,
            const std::string &caption);

/**
 * Print a fidelity/failure figure: a table of the swept cells (one
 * row per error count and policy) plus ASCII charts with one series
 * per policy, labeled with the policy's chart label. Writing to an
 * in-memory stream produces the same bytes `etc_lab run` puts on
 * stdout -- the campaign service's GET /v1/figures/<name> relies on
 * this for its byte-identity contract with `etc_lab report`.
 *
 * @param os           destination stream
 * @param title        chart title (e.g. "Figure 1: Susan")
 * @param yLabel       fidelity axis caption
 * @param policies     the swept policy names (parallel to each
 *                     point's cells vector)
 * @param fidelityOf   extracts the plotted fidelity value of a cell
 * @param threshold    optional fidelity threshold line (NaN = none)
 */
void printFigure(std::ostream &os, const std::string &title,
                 const std::string &yLabel,
                 const std::vector<std::string> &policies,
                 const std::vector<SweepPoint> &points,
                 const std::function<double(const core::CellSummary &)>
                     &fidelityOf,
                 double threshold);

} // namespace etc::bench

#endif // ETC_BENCH_COMMON_HH
