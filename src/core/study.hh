/**
 * @file
 * ErrorToleranceStudy: the library's top-level API, tying together the
 * paper's whole pipeline for one application:
 *
 *   workload program
 *     -> CVar static analysis (tag low-reliability instructions)
 *     -> fault-free profiling (Table 3 numbers, golden output)
 *     -> fault-injection campaigns at chosen error counts under a
 *        named injection policy (see fault/policy.hh) -- the paper's
 *        two points are the legacy "protected" (inject only into
 *        tagged instructions) and "unprotected" (inject into every
 *        result) policies
 *     -> outcome classification (Table 2) + per-trial fidelity
 *        (Figures 1-6).
 *
 * Typical use (see examples/quickstart.cpp):
 * @code
 *   auto workload = workloads::createWorkload("susan");
 *   core::ErrorToleranceStudy study(*workload, {});
 *   auto cell = study.runCell(100, "protected");
 *   std::cout << cell.failureRate() << '\n';
 * @endcode
 */

#ifndef ETC_CORE_STUDY_HH
#define ETC_CORE_STUDY_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/control_protection.hh"
#include "fault/campaign.hh"
#include "fault/policy.hh"
#include "sim/profiler.hh"
#include "workloads/workload.hh"

namespace etc::store {
struct CellKey;
struct ShardRecord;
class ResultStore;
} // namespace etc::store

namespace etc::core {

/** Study-wide configuration. */
struct StudyConfig
{
    /** CVar analysis options (paper defaults). */
    analysis::ProtectionConfig protection;

    /** Trials per campaign cell. */
    unsigned trials = 20;

    /** Master seed; every cell derives deterministically from it. */
    uint64_t seed = 0xe77;

    /** Timeout at budgetFactor x the golden instruction count. */
    double budgetFactor = 10.0;

    /**
     * Worker threads per campaign cell (0 = all cores). Cell results
     * are bit-identical for every thread count; see CampaignRunner.
     */
    unsigned threads = 1;

    /**
     * Memory fault model. Lenient matches the paper's SimpleScalar
     * platform; Strict is the bounds-checking ablation.
     */
    sim::MemoryModel memoryModel = sim::MemoryModel::Lenient;

    /**
     * Retired instructions between golden-run checkpoints; trials
     * fast-forward past their fault-free prefix by restoring the
     * nearest one (see sim/checkpoint.hh). 0 disables checkpointing
     * (full-replay trials). Either way, cell results are bit-identical.
     * Only the benchmark's probe and the tests set it (`etc_lab` runs
     * the default); deleting it waits for ROADMAP item 3.
     */
    uint64_t checkpointInterval =
        fault::CampaignRunner::DEFAULT_CHECKPOINT_INTERVAL;

    /**
     * Root directory of the persistent result store (see
     * store/result_store.hh). Empty disables persistence. With a
     * cache, runCell() first consults the store: a complete record
     * is returned without executing a single trial, stored shards of
     * a partially-computed cell are reused and only the missing
     * trial ranges run, and every freshly computed cell is persisted.
     * Thread count and checkpoint interval are not part of the cache
     * key -- results are bit-identical across both.
     */
    std::string cacheDir;

    /**
     * Trial lanes per gang on the checkpointed fast path (see
     * CampaignConfig::gangWidth): 0 forces scalar execution,
     * GANG_WIDTH_AUTO (default) lets the runner pick. Purely an
     * execution strategy -- cell results are bit-identical for every
     * width -- so it is, like the thread count, not part of the cache
     * key. Only the benchmark's probe and the tests set it.
     */
    unsigned gangWidth = fault::GANG_WIDTH_AUTO;

    /**
     * Skip simulating trials whose every drawn flip the masked-fault
     * prover (analysis/vulnerability.hh) proved harmless (it lands in
     * provably dead bits of its site's register result), synthesizing
     * the exact simulator outcome instead. Results are
     * bit-identical on or off (and therefore, like the thread count
     * and checkpoint interval, it is not part of the cache key); the
     * skipped-trial count is reported as CellSummary::trialsPruned.
     * Only the tests turn it on; deleting it waits for ROADMAP item 3.
     */
    bool staticPrune = false;
};

/** Aggregated results of one (error count, policy) campaign cell. */
struct CellSummary
{
    unsigned errors = 0;
    std::string policy = fault::PROTECTED_POLICY;
    unsigned trials = 0;
    unsigned completed = 0;
    unsigned crashed = 0;
    unsigned timedOut = 0;

    /** Trials the static-prune fast path synthesized instead of
     *  simulating (counted under completed; 0 with pruning off). */
    uint64_t trialsPruned = 0;

    /** Fidelity score of each completed trial. */
    std::vector<workloads::FidelityScore> fidelities;

    /** Wall-clock seconds the campaign took (perf tracking only). */
    double wallSeconds = 0.0;

    /** Dynamic instructions summed over all trials. With trial
     *  fast-forwarding, restored prefixes count as executed, so this
     *  is thread- and checkpoint-invariant. */
    uint64_t totalInstructions = 0;

    /** Campaign throughput (perf tracking only; 0 if untimed). */
    double
    trialsPerSecond() const
    {
        return wallSeconds > 0.0 ? trials / wallSeconds : 0.0;
    }

    /** Fraction of trials that crashed or timed out. */
    double
    failureRate() const
    {
        return trials
                   ? static_cast<double>(crashed + timedOut) / trials
                   : 0.0;
    }

    /** Mean fidelity metric over completed trials. */
    double meanFidelity() const;

    /** Fraction of *all* trials that completed with acceptable
     *  fidelity. */
    double acceptableRate() const;
};

/** One stripe run by ErrorToleranceStudy::runStripes(), persisted. */
struct StripeResult
{
    unsigned index = 0; //!< which of the cell's stripes

    /** The trials [lo, hi) summary covers: the stripe's, or the whole
     *  cell's when the store already held the cell complete. */
    unsigned lo = 0;
    unsigned hi = 0;
    CellSummary summary;

    /** Trials simulated for the stripe (0 when the store held it). */
    uint64_t trialsSimulated = 0;

    /** The pass's wall time credited to the stripe's simulation. */
    double wallSeconds = 0.0;
};

/**
 * Thrown by ErrorToleranceStudy::runCell() when a stop request (see
 * support/shutdown.hh) left some of the cell's stripes unstarted. The
 * started stripes finished and are persisted as shards, so a later
 * run resumes from them.
 */
class CellInterrupted : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * One application's full error-tolerance characterization.
 */
class ErrorToleranceStudy
{
  public:
    /**
     * Run the static analysis and open the result store. Nothing is
     * simulated until a cell runs (or profile() is first read), so a
     * study is cheap enough to build just to key cells.
     *
     * @param workload the application (not owned; must outlive this)
     * @param config   study configuration
     */
    ErrorToleranceStudy(const workloads::Workload &workload,
                        StudyConfig config);

    ~ErrorToleranceStudy();

    /** The CVar analysis result (tags, CVar sets, static counts). */
    const analysis::ProtectionResult &protection() const
    {
        return protection_;
    }

    /** Fault-free dynamic statistics (Table 3 row), profiled on the
     *  first call. */
    const sim::DynamicProfile &profile() const;

    /** The fault-free output stream. */
    const std::vector<uint8_t> &goldenOutput() const;

    /** Dynamic instruction count of the fault-free run. */
    uint64_t goldenInstructions() const;

    /**
     * Run one campaign cell.
     *
     * With a result store attached, a stored cell is returned without
     * simulating, and otherwise the trials no stored shard covers run
     * as one engine pass (CampaignRunner::runPass) split into
     * @p stripes persisted stripes: each stripe is written as a shard
     * the moment its last trial ends, and the tiling shards are then
     * promoted into the cell record. There, a stop request stops
     * starting new stripes; the started ones finish and persist, and
     * CellInterrupted is thrown. Without a store the cell always runs
     * to the end. Stripes change what is persisted, never the results.
     *
     * @param errors         bit flips per trial
     * @param policyName     registered injection policy
     * @param trialsOverride nonzero to override config.trials
     * @param stripes        shard stripes per cell (with a store)
     * @throws FatalError on an unregistered policy name
     * @throws CellInterrupted when a stop request left stripes unrun
     */
    CellSummary runCell(unsigned errors, const std::string &policyName,
                        unsigned trialsOverride = 0, unsigned stripes = 1);

    /** Receives each stripe of runStripes() once it is persisted. It
     *  runs inside the engine's serialized range hook, where every
     *  other finishing stripe waits for it, so it must not block. */
    using StripeSink = std::function<void(StripeResult stripe)>;

    /**
     * Run the chosen @p stripes (indices among the cell's @p count
     * shardRange() stripes) in one engine pass, and hand each to
     * @p done the moment it is persisted. The lease executors run
     * a cell's granted stripes through this.
     *
     * With a result store attached, a stored cell hands every stripe
     * over as the whole cell, and a stripe is otherwise tiled like
     * runCell() tiles a cell: stored shards inside it are reused and
     * only the gaps simulate (each persisted as a shard as it ends),
     * so a stripe already stored reaches @p done without simulating.
     * A stop request stops starting new stripes there; the ones left
     * unstarted never reach @p done. Stripes are never promoted here.
     *
     * @throws FatalError on an unregistered policy name or a stripe
     *         index out of range
     */
    void runStripes(unsigned errors, const std::string &policyName,
                    unsigned trials, unsigned count,
                    const std::vector<unsigned> &stripes,
                    const StripeSink &done);

    /** The [lo, hi) trial stripe of shard @p index out of @p count. */
    static std::pair<unsigned, unsigned> shardRange(unsigned trials,
                                                    unsigned index,
                                                    unsigned count);

    /** The canonical result-store key of one cell of this study. */
    store::CellKey cellKey(unsigned errors,
                           const std::string &policyName,
                           unsigned trials) const;

    /** The attached result store, or nullptr when caching is off. */
    store::ResultStore *resultStore() { return store_.get(); }

    /** Trials actually simulated by this study (cache hits run 0). */
    uint64_t trialsExecuted() const { return trialsExecuted_; }

    const workloads::Workload &workload() const { return workload_; }
    const StudyConfig &config() const { return config_; }

  private:
    fault::CampaignRunner &runner(const fault::InjectionPolicy &policy);

    /** Receives finished range @p range of a pass as a cell piece. */
    using PieceSink =
        std::function<void(size_t range, store::ShardRecord piece)>;

    /** Receives range @p range of tileRanges() once it is tiled: its
     *  pieces, of which the first @p reused are stored shards and the
     *  rest were simulated. */
    using TileSink =
        std::function<void(size_t range,
                           std::vector<store::ShardRecord> pieces,
                           size_t reused)>;

    /**
     * Simulate @p ranges of the cell @p key in one engine pass. Each
     * trial's fidelity is scored on its worker as soon as it finishes
     * (its output is then dropped), and each range reaches @p sink,
     * serialized, the moment its last trial ends. A range's wall time
     * runs from the previous range's completion (or the pass start)
     * to its own, so the pieces' wall times sum to the pass.
     *
     * @param stoppable honor stop requests (support/shutdown.hh):
     *                  ranges not yet started when one arrives never
     *                  reach @p sink
     */
    void simulate(const store::CellKey &key,
                  const fault::InjectionPolicy &policy,
                  const std::vector<fault::TrialRange> &ranges,
                  bool stoppable, const PieceSink &sink);

    /**
     * Tile each of the disjoint @p ranges of the cell with the usable
     * @p stored shards inside it plus the gaps between them. All gaps
     * are cut at the boundaries of @p stripes equal stripes of the
     * cell and simulated in one pass, each persisted as a shard as it
     * ends (with a store). A range reaches @p done once its last
     * piece is in, so a range the store already tiles reaches it
     * before the pass; when a stop request (with @p stoppable) left
     * gaps unrun, their range never does.
     */
    void tileRanges(const store::CellKey &key,
                    const fault::InjectionPolicy &policy,
                    std::vector<store::ShardRecord> stored,
                    const std::vector<fault::TrialRange> &ranges,
                    unsigned stripes, bool stoppable,
                    const TileSink &done);

    const workloads::Workload &workload_;
    const StudyConfig config_;
    analysis::ProtectionResult protection_;
    mutable std::optional<sim::DynamicProfile> profile_;
    std::map<std::string, std::unique_ptr<fault::CampaignRunner>>
        runners_; //!< one per policy, built on first use
    std::unique_ptr<store::ResultStore> store_;
    uint64_t trialsExecuted_ = 0;
};

/**
 * The protection analysis a study of (@p workload, @p config) runs,
 * computable without any simulation (the report path uses this to
 * rebuild cache keys without executing anything).
 */
analysis::ProtectionResult computeStudyProtection(
    const workloads::Workload &workload, const StudyConfig &config);

/**
 * Build the canonical result-store key of one campaign cell. The key
 * content-addresses the program and the policy's injectable set (and,
 * for non-legacy policies, the policy's descriptor hash), so it never
 * aliases records across workload, analysis, or policy changes;
 * thread count and checkpoint interval are excluded because results
 * are bit-identical across both. Legacy policy keys are byte-stable
 * with the keys of the pre-policy protected/unprotected switch.
 */
store::CellKey makeCellKey(const workloads::Workload &workload,
                           const analysis::ProtectionResult &protection,
                           const StudyConfig &config, unsigned errors,
                           const fault::InjectionPolicy &policy,
                           unsigned trials);

/** makeCellKey() resolving @p policyName through the registry. */
store::CellKey makeCellKey(const workloads::Workload &workload,
                           const analysis::ProtectionResult &protection,
                           const StudyConfig &config, unsigned errors,
                           const std::string &policyName,
                           unsigned trials);

} // namespace etc::core

#endif // ETC_CORE_STUDY_HH
