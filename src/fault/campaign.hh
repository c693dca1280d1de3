/**
 * @file
 * Monte-Carlo fault-injection campaigns.
 *
 * A campaign fixes a program, an injectable-instruction set plus flip
 * semantics (i.e. an injection policy) and an error count, then runs
 * many independently seeded trials. Each trial reruns the program with
 * a fresh uniform injection plan and classifies the outcome; completed
 * trials keep their output stream so the caller can score fidelity
 * against the fault-free (golden) output.
 *
 * One path per pass: runPass() takes any number of a cell's trial
 * ranges, draws every trial's plan from Rng::forStream(seed, t),
 * synthesizes the trials static pruning proves harmless, runs the rest
 * of every range as one TrialPool grid in range order (each task
 * writes only its own trials' outcome slots), and folds each range's
 * tallies from its outcomes in trial order the moment its last task
 * ends. A cell's results are therefore bit-identical for every thread
 * count, gang width, checkpoint interval, pruning mode, and range
 * split; runRange() is the one-range pass.
 *
 * Trial fast-forwarding: every trial replays the golden run bit-for-bit
 * until its first injection site, so the golden profiling run records
 * periodic Checkpoints (see sim/checkpoint.hh) and each trial restores
 * the nearest one at-or-before its first site instead of starting from
 * reset. From there one site loop finishes the trial: the simulator's
 * hookless fast path runs from site to site, and the bit flips are
 * applied directly at each pause. With checkpointInterval 0 the scalar
 * executor instead replays each trial in full through the Injector
 * retire hook, an independent oracle for the fast path.
 *
 * Gang execution: on the checkpointed path, each range's trials are
 * sorted by their first injection site and dealt into near-equal
 * gangs, one per worker, of at most CampaignConfig::gangWidth lanes;
 * a gang's lanes share one checkpoint restore and one fetch/decode
 * stream (sim/gang.hh). A lane whose fault diverges control flow is
 * evicted: it leaves the gang with a state snapshot and finishes in
 * the same site loop on a scalar simulator, so results match
 * gangWidth = 0 (pure scalar) bit for bit. A gang pays only while its
 * lanes stay in lockstep, so a pass stops ganging once its finished
 * gangs hold at least GANG_FALLBACK_MIN_LANES lanes and more than
 * GANG_FALLBACK_EVICTION_RATIO of them were evicted: every gang that
 * starts later runs its trials one by one on the scalar simulator.
 * The choice reads how often the cell's faults diverge, never the
 * width or the cell, and moves only wall time. On every path the
 * pass's grid deals one task per trial; the first of a gang's tasks
 * to start runs the gang (its other tasks then have nothing to do),
 * so a fallen-back gang's trials spread over idle workers.
 *
 * "Infinite execution" is detected by an instruction budget of
 * budgetFactor x the golden run's dynamic instruction count.
 *
 * Static pruning: with staticPrune enabled, the masked-fault prover
 * (analysis/vulnerability.hh) computes, per static site, the bits that
 * are MAY-live in the site's register destination before the golden
 * run, which then records that live mask per injectable dynamic
 * instruction. A trial whose every drawn flip mask lands entirely in
 * dead bits of its site's register result provably retires the exact
 * golden instruction stream with the exact golden output, so the
 * runner synthesizes that outcome instead of simulating: same
 * tallies, same per-trial records, same RNG stream (the plan is still
 * sampled). The skipped-trial count is reported as
 * CampaignResult::trialsPruned.
 */

#ifndef ETC_FAULT_CAMPAIGN_HH
#define ETC_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/injection.hh"
#include "sim/checkpoint.hh"
#include "sim/gang.hh"
#include "sim/outcome.hh"
#include "sim/simulator.hh"

namespace etc::fault {

/** CampaignConfig::gangWidth sentinel: let the runner pick a width
 *  (only the benchmark's probe and the tests pick their own). */
inline constexpr unsigned GANG_WIDTH_AUTO = 0xffffffffu;

/**
 * The width GANG_WIDTH_AUTO resolves to on the checkpointed path.
 * 32 wins over narrower gangs because the shared fetch/decode/
 * reconcile work amortizes over more lanes while the per-lane work
 * (dense register columns, copy-on-write pages) scales linearly.
 */
inline constexpr unsigned DEFAULT_GANG_WIDTH = 32;

/**
 * When a pass stops ganging (see the file comment): its finished
 * gangs hold at least GANG_FALLBACK_MIN_LANES lanes, and more than
 * GANG_FALLBACK_EVICTION_RATIO of them were evicted. Constants, not
 * knobs: results are bit-identical either way, and the ratio was
 * chosen from a sweep of 1/4, 1/2 and 3/4 on the paper's figures
 * (BENCH_gang_fallback.json).
 */
inline constexpr unsigned GANG_FALLBACK_MIN_LANES = 8;
inline constexpr double GANG_FALLBACK_EVICTION_RATIO = 0.5;

/** Knobs of one campaign cell. */
struct CampaignConfig
{
    unsigned trials = 20;       //!< independent runs
    unsigned errors = 1;        //!< bit flips per run
    uint64_t seed = 0x5eed;     //!< master seed (trial i derives from it)
    double budgetFactor = 10.0; //!< timeout at factor x golden length
    unsigned threads = 1;       //!< worker threads (0 = all cores)

    /**
     * Most trial lanes per gang on the checkpointed fast path: 0
     * forces pure scalar execution, GANG_WIDTH_AUTO (default) picks
     * DEFAULT_GANG_WIDTH, anything else is clamped to
     * sim::GangSimulator::MAX_LANES. A range of L live trials over W
     * workers deals gangs of at most min(gangWidth, ceil(L / W))
     * lanes, which run scalar anyway once the pass's gangs diverge
     * (see the file comment). Purely an execution strategy --
     * results are bit-identical for every value -- so it is NOT part
     * of a cell's identity.
     */
    unsigned gangWidth = GANG_WIDTH_AUTO;
};

/** One trial's record. */
struct TrialOutcome
{
    sim::RunResult run;
    uint64_t injected = 0;          //!< flips actually performed
    std::vector<uint8_t> output;    //!< output stream (if completed)
};

/**
 * Aggregated campaign cell results -- either a whole cell or, when
 * produced by runRange() or one range of runPass(), the shard covering
 * trials [firstTrial, firstTrial + trials).
 */
struct CampaignResult
{
    unsigned trials = 0;     //!< trials in this (partial) result
    uint64_t firstTrial = 0; //!< global index of outcomes[0]
    unsigned completed = 0;
    unsigned crashed = 0;   //!< memory fault / bad jump / div0 / overflow
    unsigned timedOut = 0;  //!< "infinite execution"

    /**
     * Trials whose outcome was synthesized by the static-prune fast
     * path instead of simulated (always counted under completed;
     * purely informational -- the records are bit-identical either
     * way).
     */
    uint64_t trialsPruned = 0;

    std::vector<TrialOutcome> outcomes;

    /** Fraction of trials that ended catastrophically. */
    double
    failureRate() const
    {
        return trials ? static_cast<double>(crashed + timedOut) / trials
                      : 0.0;
    }
};

/** The trials [lo, hi) of a cell. */
struct TrialRange
{
    uint64_t lo = 0;
    uint64_t hi = 0;
};

/**
 * What CampaignRunner::runPass() reports while it runs. Every hook may
 * be empty.
 */
struct PassHooks
{
    /**
     * Consulted once per range, right before its first trial starts;
     * true leaves that range unstarted, so it never reaches rangeDone.
     * Ranges with no trial to simulate complete without asking.
     */
    std::function<bool()> stopStarting;

    /**
     * Trial @p index (its offset in range @p range) has its final
     * outcome. Runs on the worker that finished the trial,
     * concurrently with other trials' calls; it may consume
     * outcome.output (a simulated trial's output is never read
     * again).
     */
    std::function<void(size_t range, uint64_t index,
                       TrialOutcome &outcome)>
        trialDone;

    /**
     * Every trial of range @p range is done; @p result holds its
     * tallies and its outcomes in trial order, as trialDone left
     * them. Calls are serialized, in completion order, on the worker
     * that finished the range's last task (or on the calling thread
     * for a range with nothing to simulate).
     */
    std::function<void(size_t range, CampaignResult &result)> rangeDone;
};

/**
 * Runs campaigns for one (program, injectable set) pair, reusing a
 * single profiling run across all cells.
 */
class CampaignRunner
{
  public:
    /**
     * Default retired-instruction distance between checkpoints: fine
     * enough that a trial re-executes only a small slice of its
     * prefix, coarse enough that capture overhead and page storage
     * stay negligible against the trial grid it accelerates.
     */
    static constexpr uint64_t DEFAULT_CHECKPOINT_INTERVAL = 8192;

    /**
     * @param program            the workload program
     * @param injectable         static bitmap of injectable instructions
     * @param model              memory fault model for every trial
     * @param checkpointInterval retired instructions between golden-run
     *                           checkpoints; 0 disables checkpointing
     *                           and trial fast-forwarding entirely
     *                           (the tests' and benchmark's oracle)
     * @param resultKinds        corruptible result kinds (ResultKind
     *                           bitmask; default: all, the legacy
     *                           unrestricted behavior)
     * @param bitModel           per-error flip-mask model (default:
     *                           the paper's uniform single flip)
     * @param staticPrune        synthesize (instead of simulate)
     *                           trials whose every drawn flip the
     *                           masked-fault prover proved harmless;
     *                           results stay bit-identical (see file
     *                           header). Only bench_micro and the
     *                           tests turn it on (ROADMAP item 3)
     */
    CampaignRunner(const assembly::Program &program,
                   std::vector<bool> injectable,
                   sim::MemoryModel model = sim::MemoryModel::Lenient,
                   uint64_t checkpointInterval =
                       DEFAULT_CHECKPOINT_INTERVAL,
                   unsigned resultKinds = RK_ALL,
                   BitErrorModel bitModel = {},
                   bool staticPrune = false);

    /** @return the fault-free output stream. */
    const std::vector<uint8_t> &goldenOutput() const { return golden_; }

    /** @return dynamic instructions of the fault-free run. */
    uint64_t goldenInstructions() const { return goldenInstructions_; }

    /** @return injectable dynamic instructions in the fault-free run. */
    uint64_t
    injectableDynamicCount() const
    {
        return injectableDynamic_;
    }

    /** @return the configured checkpoint interval (0 = disabled). */
    uint64_t checkpointInterval() const { return checkpointInterval_; }

    /** @return whether the static-prune fast path is enabled. */
    bool staticPrune() const { return staticPrune_; }

    /**
     * @return injectable dynamic instructions with at least one
     *         provably dead result bit (0 with pruning off): the pool
     *         prunable flips can land in. A trial is pruned when every
     *         drawn flip mask stays within its site's dead bits.
     */
    uint64_t prunableDynamicCount() const { return prunableDynamic_; }

    /** @return checkpoints recorded during the golden run. */
    size_t checkpointCount() const { return checkpoints_.size(); }

    /**
     * Run one campaign cell.
     *
     * Outcome tallies and per-trial records are bit-identical for any
     * config.threads value (including 0 = all cores): every trial is a
     * pure function of (config.seed, trial index).
     *
     * @param config trial count / error count / seed / budget / threads
     */
    CampaignResult run(const CampaignConfig &config);

    /**
     * Run the shard of a cell covering trials [lo, hi).
     *
     * The cell is still defined by @p config (config.trials is the
     * cell's total trial grid; trial t keeps drawing its randomness
     * from Rng::forStream(config.seed, t)), so shards of the same
     * cell computed in different processes, at different thread
     * counts, or in any order are fragments of the one monolithic
     * result: shard [lo, hi) reproduces trials lo..hi-1 of run()
     * bit-for-bit, so concatenating a tiling set of them (as the
     * result store does with their summaries) reproduces the cell.
     *
     * @param lo first trial index (inclusive), <= hi
     * @param hi one past the last trial index, <= config.trials
     */
    CampaignResult runRange(const CampaignConfig &config, uint64_t lo,
                            uint64_t hi);

    /**
     * Run several ranges of one cell as one pass: the ranges' tasks
     * form one TrialPool grid, so workers move on to the next range
     * while the previous one's slowest task drains. Tasks start in
     * range order and each range completes (rangeDone) as soon as its
     * last task ends. Each range's result is exactly runRange() over
     * it.
     *
     * @param ranges trial ranges of the cell config.trials defines
     *               (each lo <= hi <= config.trials)
     */
    void runPass(const CampaignConfig &config,
                 const std::vector<TrialRange> &ranges,
                 const PassHooks &hooks);

    /** @return the effective gang width for @p requested (see
     *         CampaignConfig::gangWidth). */
    static unsigned
    resolveGangWidth(unsigned requested)
    {
        if (requested == GANG_WIDTH_AUTO)
            return DEFAULT_GANG_WIDTH;
        return requested < sim::GangSimulator::MAX_LANES
                   ? requested
                   : sim::GangSimulator::MAX_LANES;
    }

  private:
    /** A trial that must be simulated: its outcome slot and plan. */
    struct LiveTrial
    {
        uint64_t slot; //!< index into CampaignResult::outcomes
        InjectionPlan plan;
    };

    /** Injection progress of one trial. */
    struct SiteCursor
    {
        size_t next = 0;       //!< next plan site to apply
        uint64_t injected = 0; //!< flips actually performed
    };

    /** Called with a trial's slot once its outcome is final. */
    using SlotDone = std::function<void(uint64_t slot)>;

    /** Execute one trial on a scalar simulator. */
    void runTrial(sim::Simulator &simulator, const LiveTrial &trial,
                  uint64_t budget, TrialOutcome &outcome) const;

    /**
     * Execute one gang of @p lanes trials end to end (restore, run,
     * flip at pauses, finish divergent lanes, record outcomes),
     * calling @p done as each lane's outcome becomes final.
     *
     * @param firstTrial global index of outcome slot 0 (for spans)
     * @return the lanes evicted to the drain
     */
    unsigned runGang(const LiveTrial *trials, unsigned lanes,
                     uint64_t firstTrial, sim::Simulator &base,
                     sim::Simulator &drain, sim::GangSimulator &gang,
                     uint64_t budget, std::vector<TrialOutcome> &outcomes,
                     const SlotDone &done) const;

    /**
     * Put @p simulator in the golden state of @p checkpoint, or at the
     * program start when it is null.
     *
     * @return the checkpoint (all-zero counters at the program start)
     */
    const sim::Checkpoint &rewind(sim::Simulator &simulator,
                                  const sim::Checkpoint *checkpoint) const;

    /**
     * The site loop: finish a trial on @p simulator from its current
     * state, pausing at each remaining site of @p plan from @p cursor
     * on to apply its flip, and record the outcome.
     *
     * @param injectableRetired injectable retires so far
     * @param instructions      dynamic instructions so far
     */
    void runSites(sim::Simulator &simulator, const InjectionPlan &plan,
                  SiteCursor cursor, uint64_t injectableRetired,
                  uint64_t instructions, uint64_t budget,
                  TrialOutcome &outcome) const;

    /** Apply the flip at @p cursor (the just-retired @p ins) and
     *  advance it. */
    template <typename MachineT, typename MemoryT>
    void flipNext(const InjectionPlan &plan, SiteCursor &cursor,
                  const isa::Instruction &ins, MachineT &machine,
                  MemoryT &memory) const;

    const assembly::Program &program_;
    std::vector<bool> injectable_;
    sim::ByteMask injectableBytes_; //!< fast-path copy of injectable_
    sim::MemoryModel model_;
    unsigned resultKinds_;
    BitErrorModel bitModel_;
    uint64_t checkpointInterval_;
    bool staticPrune_;
    sim::CheckpointStore checkpoints_;
    std::vector<uint8_t> golden_;
    uint64_t goldenInstructions_ = 0;
    uint64_t injectableDynamic_ = 0;

    /**
     * One word per injectable dynamic instruction of the golden run
     * (in retire order): the MAY-live bits of the site's register
     * result -- a drawn flip mask disjoint from it is provably
     * harmless. All-ones (never prunable) for sites whose corruption
     * hits a control or memory result instead. Empty with pruning off.
     */
    std::vector<uint32_t> siteLiveMasks_;
    uint64_t prunableDynamic_ = 0;
};

} // namespace etc::fault

#endif // ETC_FAULT_CAMPAIGN_HH
