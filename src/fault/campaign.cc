#include "fault/campaign.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <limits>
#include <mutex>
#include <optional>

#include "analysis/vulnerability.hh"
#include "fault/trial_pool.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace etc::fault {

namespace {

/**
 * Engine-level campaign metrics. Observation only: counters tick
 * after outcomes are decided and never feed a plan, an RNG draw, or a
 * cache key, so tallies stay bit-identical with telemetry scraped or
 * ignored.
 */
struct EngineMetrics
{
    telemetry::Counter &trialsSimulated = telemetry::counter(
        "etc_trials_simulated_total",
        "Fault-injection trials actually executed by a simulator");
    telemetry::Counter &trialsPruned = telemetry::counter(
        "etc_trials_pruned_total",
        "Trials synthesized bit-identically by the static-prune "
        "prover instead of simulated");
    telemetry::Counter &trialInstructions = telemetry::counter(
        "etc_trial_instructions_total",
        "Instructions retired across simulated trials (including "
        "checkpoint-replayed prefixes)");
    telemetry::Counter &gangBatches = telemetry::counter(
        "etc_gang_batches_total",
        "Lockstep gang launches");
    telemetry::Counter &gangLaneSlots = telemetry::counter(
        "etc_gang_lane_slots_total",
        "Lane slots offered by gang launches (each gang's dealt "
        "width: the widest near-equal gang its range deals at most "
        "min(gang width, ceil(max(range trials, 64) / workers), "
        "ceil(pass trials / workers)) lanes); occupancy = "
        "etc_gang_lanes_total / this");
    telemetry::Counter &gangLanes = telemetry::counter(
        "etc_gang_lanes_total",
        "Trials launched as gang lanes");
    telemetry::Counter &gangEvictions = telemetry::counter(
        "etc_gang_lane_evictions_total",
        "Lanes evicted from lockstep (diverged) and drained through "
        "the scalar simulator");
    telemetry::Counter &gangFallbackTrials = telemetry::counter(
        "etc_gang_scalar_fallback_trials_total",
        "Trials dealt to a gang that ran one by one on the scalar "
        "simulator because the cell's gangs evicted most of their "
        "lanes");
};

EngineMetrics &
engineMetrics()
{
    static EngineMetrics metrics;
    return metrics;
}

/** All flip-mask bits live: the "never prunable" site live mask. */
constexpr uint32_t LIVE_ALL = 0xffffffffu;

/**
 * Chains onto the golden run's profiling hook and additionally
 * records, per injectable retire, the site's live mask (the bits a
 * drawn flip must avoid for the trial to stay provably golden).
 */
class PruneMaskRecorder : public sim::ExecHook
{
  public:
    PruneMaskRecorder(sim::ExecHook &inner,
                      const std::vector<bool> &injectable,
                      const std::vector<uint32_t> &staticLiveMasks,
                      std::vector<uint32_t> &masks)
        : inner_(inner), injectable_(injectable),
          staticLiveMasks_(staticLiveMasks), masks_(masks)
    {
    }

    void
    onRetire(uint32_t staticIdx, const isa::Instruction &ins,
             sim::Machine &machine, sim::Memory &memory) override
    {
        inner_.onRetire(staticIdx, ins, machine, memory);
        if (staticIdx < injectable_.size() && injectable_[staticIdx])
            masks_.push_back(staticLiveMasks_[staticIdx]);
    }

  private:
    sim::ExecHook &inner_;
    const std::vector<bool> &injectable_;
    const std::vector<uint32_t> &staticLiveMasks_;
    std::vector<uint32_t> &masks_;
};

/**
 * Per static site: the flip-mask bits that are (MAY-)live in the
 * site's register destination -- a drawn flip mask disjoint from it is
 * provably harmless (it lands in dead bits, or in bits the hardware
 * discards: $zero writes, flag bits >= 1). The prune fast path only
 * ever skips *register-kind* corruptions: flipResult() always performs
 * (and counts) a register flip, so the synthesized injected count
 * matches simulation exactly. Sites whose corruption would hit a
 * control or memory result instead get LIVE_ALL (never prunable), as
 * does every site when the prover cannot model the program's calls.
 */
std::vector<uint32_t>
computeSiteLiveMasks(const assembly::Program &program,
                     const std::vector<bool> &injectable,
                     unsigned resultKinds)
{
    analysis::BitFlowResult flow = analysis::computeBitFlow(program);
    std::vector<uint32_t> masks(program.size(), LIVE_ALL);
    for (uint32_t i = 0; i < program.size(); ++i) {
        if (!injectable[i])
            continue;
        const isa::Instruction &ins = program.code[i];
        // Mirror flipResult()'s fixed priority: only sites whose first
        // corruptible kind is the register destination are prunable.
        if (!(resultKinds & RK_REGISTER) || !ins.def())
            continue;
        isa::RegId def = *ins.def();
        // liveOut is already empty for $zero (its reads are constant)
        // and confined to bit 0 for the flag register, matching
        // exactly the bits Machine::writeFlat() lets a flip reach.
        masks[i] = flow.liveOut[i][def] &
                   analysis::registerStoredBits(def);
    }
    return masks;
}

/** @return the plan's first injectable-stream site (max: none). */
uint64_t
firstSite(const InjectionPlan &plan)
{
    return plan.sites.empty() ? std::numeric_limits<uint64_t>::max()
                              : plan.sites.front();
}

/** Per-worker state of the gang executor. */
struct GangWorker
{
    GangWorker(const assembly::Program &program, sim::MemoryModel model,
               unsigned width)
        : base(program, model), drain(program, model),
          gang(program, model, width)
    {
    }

    /** Holds the gang's restored image, which the gang's copy-on-write
     *  overlays reference: untouched while the gang runs. */
    sim::Simulator base;
    /** Finishes diverged lanes. */
    sim::Simulator drain;
    sim::GangSimulator gang;
};

} // namespace

CampaignRunner::CampaignRunner(const assembly::Program &program,
                               std::vector<bool> injectable,
                               sim::MemoryModel model,
                               uint64_t checkpointInterval,
                               unsigned resultKinds,
                               BitErrorModel bitModel, bool staticPrune)
    : program_(program), injectable_(std::move(injectable)),
      runs_(program_, injectable_), model_(model),
      resultKinds_(resultKinds), bitModel_(bitModel),
      checkpointInterval_(checkpointInterval), staticPrune_(staticPrune)
{
    std::vector<uint32_t> staticLiveMasks;
    if (staticPrune_)
        staticLiveMasks = computeSiteLiveMasks(program_, injectable_,
                                               resultKinds_);

    // Fault-free profiling run: golden output, dynamic length, and the
    // injectable dynamic count the sampler draws from. With
    // checkpointing enabled the same run also records the periodic
    // snapshots trials fast-forward to; with pruning enabled it also
    // records the per-retire live masks prunable plans are tested
    // against.
    telemetry::TraceSpan goldenSpan("engine", "golden-run");
    sim::Simulator simulator(program_, model_);
    InjectableCounter counter(injectable_);
    sim::ExecHook *hook = &counter;
    std::optional<sim::CheckpointRecorder> recorder;
    if (checkpointInterval_ > 0) {
        // The post-reset image is the snapshot baseline; only pages
        // the run itself writes go into the checkpoint deltas. The
        // recorder counts injectable retires itself.
        simulator.memory().resetDirtyTracking();
        hook = &recorder.emplace(injectable_, checkpointInterval_,
                                 simulator, checkpoints_);
    }
    std::optional<PruneMaskRecorder> pruneRecorder;
    if (staticPrune_)
        hook = &pruneRecorder.emplace(*hook, injectable_, staticLiveMasks,
                                      siteLiveMasks_);
    sim::RunResult result = simulator.run(0, hook);
    if (!result.completed())
        fatal("CampaignRunner: golden run did not complete: ",
              result.toString());
    golden_ = simulator.output();
    goldenInstructions_ = result.instructions;
    injectableDynamic_ =
        recorder ? recorder->injectableRetired() : counter.count();
    for (uint32_t liveMask : siteLiveMasks_)
        prunableDynamic_ += liveMask != LIVE_ALL ? 1 : 0;
    if (staticPrune_ && siteLiveMasks_.size() != injectableDynamic_)
        panic("CampaignRunner: prune mask table size ",
              siteLiveMasks_.size(), " != injectable dynamic count ",
              injectableDynamic_);
}

CampaignResult
CampaignRunner::run(const CampaignConfig &config)
{
    return runRange(config, 0, config.trials);
}

CampaignResult
CampaignRunner::runRange(const CampaignConfig &config, uint64_t lo,
                         uint64_t hi)
{
    CampaignResult result;
    PassHooks hooks;
    hooks.rangeDone = [&result](size_t, CampaignResult &range) {
        result = std::move(range);
    };
    runPass(config, {TrialRange{lo, hi}}, hooks);
    return result;
}

void
CampaignRunner::runPass(const CampaignConfig &config,
                        const std::vector<TrialRange> &ranges,
                        const PassHooks &hooks)
{
    runPass({PassCell{this, config, ranges, hooks}});
}

struct CampaignRunner::CellRun
{
    explicit CellRun(const PassCell &cell)
        : cell(cell), runner(*cell.runner),
          gangWidth(runner.checkpointInterval_ > 0
                        ? resolveGangWidth(cell.config.gangWidth)
                        : 0)
    {
        const CampaignConfig &config = cell.config;
        uint64_t golden = runner.goldenInstructions_;
        budget = static_cast<uint64_t>(static_cast<double>(golden) *
                                       config.budgetFactor);
        budget = std::max(budget, golden + 1000);
    }

    /**
     * Whether most lanes of the cell's finished gangs diverged. A gang
     * then costs more than it shares, so the cell's gangs that start
     * later run their trials scalar instead. Either way each trial is
     * a pure function of its plan, so the choice moves only wall time.
     */
    bool
    gangsDiverge() const
    {
        uint64_t lanes = lanesDone.load();
        return lanes >= GANG_FALLBACK_MIN_LANES &&
               static_cast<double>(lanesEvicted.load()) >
                   GANG_FALLBACK_EVICTION_RATIO *
                       static_cast<double>(lanes);
    }

    const PassCell &cell;
    const CampaignRunner &runner;

    /**
     * Resolved; 0 runs every trial scalar. Gangs ride the checkpointed
     * fast path only: the classic interval-0 Injector path stays
     * gang-free so it remains an independent oracle for the batched
     * interpreter.
     */
    unsigned gangWidth;
    uint64_t budget = 0;
    unsigned maxLanes = 0; //!< the widest of its ranges' widths
    std::atomic<uint64_t> lanesDone{0};
    std::atomic<uint64_t> lanesEvicted{0};
};

struct CampaignRunner::RangeRun
{
    /**
     * One gang of the range (one trial per gang on the scalar paths).
     * The first of a gang's tasks to start fixes how the whole gang
     * runs: in lockstep (that task runs the gang, and its other tasks
     * find nothing left to do) or scalar (every task runs its own
     * trial, so idle workers share the gang's trials).
     */
    struct Gang
    {
        enum Mode : uint8_t { Undecided, Lockstep, Scalar };

        Gang(size_t first, unsigned lanes, unsigned index)
            : first(first), lanes(lanes), index(index)
        {
        }

        size_t first;   //!< first of its trials in the live list
        unsigned lanes; //!< its trials
        unsigned index; //!< its gang index within the range
        std::atomic<uint8_t> mode{Undecided};
    };

    /** A task of the range: trial @p lane of gang @p gang. */
    struct Task
    {
        size_t gang;
        unsigned lane;
    };

    /** Plan drawing: done once the last plan is drawn and dealt. */
    enum State : uint8_t { Drawing, Dealt, Broken };

    RangeRun(CellRun &cell, size_t index, uint64_t lo, uint64_t count)
        : cell(cell), index(index), count(count)
    {
        result.trials = static_cast<unsigned>(count);
        result.firstTrial = lo;
    }

    CellRun &cell;
    size_t index;   //!< among the cell's ranges
    uint64_t count; //!< its trials, and its tasks
    CampaignResult result;

    /** Every drawn trial; once dealt, the live ones sorted by first
     *  site. */
    std::vector<LiveTrial> live;
    std::deque<Gang> gangs;
    std::vector<Task> tasks; //!< one per live trial, in deal order
    /** The widest gang the pass's deal rule gives the range (0 on
     *  the scalar paths): its gangs hold at most this many lanes. */
    unsigned width = 0;

    std::once_flag started;
    bool skipped = false; //!< a stop request left it unstarted
    std::atomic<uint64_t> nextDraw{0};
    std::atomic<uint64_t> drawn{0};
    std::atomic<uint8_t> state{Drawing};
    std::atomic<uint64_t> pending{0}; //!< tasks not yet ended
};

void
CampaignRunner::drawTrial(const CellRun &cell, RangeRun &range,
                          uint64_t index) const
{
    // Plans are a pure function of (seed, trial): the counter-based
    // stream is keyed on the GLOBAL trial index, never on scheduling,
    // on the worker that draws it or on which range runs it. Every
    // plan is drawn, so the RNG stream is consumed identically whether
    // or not the trial is then simulated.
    const CampaignConfig &config = cell.cell.config;
    Rng trialRng =
        Rng::forStream(config.seed, range.result.firstTrial + index);
    LiveTrial &trial = range.live[index];
    trial.plan = samplePlan(injectableDynamic_, config.errors, bitModel_,
                            trialRng);
    // Static-prune fast path: when every drawn flip lands entirely in
    // provably dead bits of its site's register result, the trial
    // retires the exact golden instruction stream with the exact
    // golden output, and every flip is a (counted) register write of
    // dead bits -- so the simulator's outcome is known without
    // running it.
    bool pruned = staticPrune_;
    const InjectionPlan &plan = trial.plan;
    for (size_t k = 0; pruned && k < plan.sites.size(); ++k)
        pruned = !(plan.masks[k] & siteLiveMasks_[plan.sites[k]]);
    if (!pruned) {
        trial.slot = index;
        return;
    }
    trial.slot = LiveTrial::PRUNED;
    TrialOutcome &outcome = range.result.outcomes[index];
    outcome.run.status = sim::RunStatus::Completed;
    outcome.run.instructions = goldenInstructions_;
    outcome.injected = plan.size();
    outcome.output = golden_;
    if (cell.cell.hooks.trialDone)
        cell.cell.hooks.trialDone(range.index, index, outcome);
}

void
CampaignRunner::dealGangs(const CellRun &cell, RangeRun &range) const
{
    std::vector<LiveTrial> &live = range.live;
    std::erase_if(live, [](const LiveTrial &trial) {
        return trial.slot == LiveTrial::PRUNED;
    });
    range.result.trialsPruned = range.count - live.size();
    engineMetrics().trialsPruned.add(range.result.trialsPruned);

    auto deal = [&range](size_t first, unsigned lanes, unsigned index) {
        range.gangs.emplace_back(first, lanes, index);
        for (unsigned lane = 0; lane < lanes; ++lane)
            range.tasks.push_back({range.gangs.size() - 1, lane});
    };
    if (cell.gangWidth == 0 || live.empty()) {
        for (size_t i = 0; i < live.size(); ++i)
            deal(i, 1, 0);
        return;
    }
    // Group by first injection site (stable on trial order). A gang
    // restores the checkpoint of its EARLIEST first site -- instruction
    // accounting includes the restored prefix, so an earlier restore
    // changes nothing but replay length -- and sorting keeps that
    // shared replay short. The sorted trials are dealt into the fewest
    // near-equal contiguous gangs of at most the range's width.
    std::stable_sort(live.begin(), live.end(),
                     [](const LiveTrial &a, const LiveTrial &b) {
                         return firstSite(a.plan) < firstSite(b.plan);
                     });
    uint64_t count = (live.size() + range.width - 1) / range.width;
    for (uint64_t g = 0; g < count; ++g) {
        size_t first = live.size() * g / count;
        size_t next = live.size() * (g + 1) / count;
        deal(first, static_cast<unsigned>(next - first),
             static_cast<unsigned>(g));
    }
}

namespace {

/** A worker's simulators. They serve one cell at a time and are
 *  built on first use. */
struct WorkerSimulators
{
    const PassCell *cell = nullptr; //!< the cell they serve
    std::optional<GangWorker> gang;
    std::optional<sim::Simulator> scalar; //!< on the scalar paths
};

} // namespace

void
CampaignRunner::runPass(const std::vector<PassCell> &cells)
{
    EngineMetrics &metrics = engineMetrics();
    // Deques: the runs hold atomics and are referenced by address.
    std::deque<CellRun> cellRuns;
    std::deque<RangeRun> rangeRuns;
    std::mutex doneMutex; // serializes rangeDone across the pass
    auto finish = [&](RangeRun &range) {
        // The tally folds the outcomes in trial order, so it is
        // bit-identical at any thread count, gang width or split.
        CampaignResult &result = range.result;
        for (const LiveTrial &trial : range.live)
            metrics.trialInstructions.add(
                result.outcomes[trial.slot].run.instructions);
        metrics.trialsSimulated.add(range.live.size());
        for (const TrialOutcome &outcome : result.outcomes) {
            switch (outcome.run.status) {
              case sim::RunStatus::Completed: ++result.completed; break;
              case sim::RunStatus::Timeout: ++result.timedOut; break;
              default: ++result.crashed; break;
            }
        }
        if (const auto &rangeDone = range.cell.cell.hooks.rangeDone) {
            // Held across the call: rangeDone calls are serialized.
            std::lock_guard<std::mutex> lock(doneMutex);
            rangeDone(range.index, result);
        }
        range.result = CampaignResult{};
        range.live = {};
        range.gangs.clear();
        range.tasks = {};
    };

    // The grid: each nonempty range's tasks, one per trial, in cell
    // and range order, keyed by the grid index of the range's first.
    std::vector<std::pair<uint64_t, RangeRun *>> grid;
    uint64_t taskCount = 0;
    unsigned threads = 1;
    for (const PassCell &cell : cells) {
        CellRun &cellRun = cellRuns.emplace_back(cell);
        threads = std::max(threads,
                           TrialPool::resolveWorkers(
                               cell.config.threads,
                               std::numeric_limits<uint64_t>::max()));
        for (size_t r = 0; r < cell.ranges.size(); ++r) {
            auto [lo, hi] = cell.ranges[r];
            if (lo > hi || hi > cell.config.trials)
                panic("CampaignRunner: bad trial range [", lo, ", ", hi,
                      ") over ", cell.config.trials, " trials");
            RangeRun &range = rangeRuns.emplace_back(cellRun, r, lo, hi - lo);
            if (range.count == 0) {
                finish(range);
                continue;
            }
            range.pending = range.count;
            grid.emplace_back(taskCount, &range);
            taskCount += range.count;
        }
    }

    // One deal rule for the whole pass (see CampaignConfig::gangWidth):
    // a range's gangs hold at most `cap` lanes, and its width is the
    // widest of the fewest near-equal gangs that keep to it, as
    // dealGangs() deals them. A cell's gang simulators are as wide as
    // its widest range's gangs.
    unsigned workers = TrialPool::resolveWorkers(threads, taskCount);
    for (RangeRun &range : rangeRuns) {
        CellRun &cell = range.cell;
        if (cell.gangWidth == 0 || range.count == 0)
            continue;
        uint64_t spread = std::max<uint64_t>(range.count,
                                             PASS_LANES_IN_FLIGHT);
        uint64_t cap = std::min<uint64_t>(
            {cell.gangWidth, (spread + workers - 1) / workers,
             (taskCount + workers - 1) / workers});
        uint64_t gangs = (range.count + cap - 1) / cap;
        range.width = static_cast<unsigned>((range.count + gangs - 1) / gangs);
        cell.maxLanes = std::max(cell.maxLanes, range.width);
    }

    // Plan drawing: the workers that reach a range's tasks draw its
    // plans together, and the one that draws the last deals its gangs.
    // Its other workers wait for the deal, which is at most one
    // plan's draw away.
    std::mutex dealMutex;
    std::condition_variable dealCv;
    auto settle = [&](RangeRun &range, RangeRun::State state) {
        {
            std::lock_guard<std::mutex> lock(dealMutex);
            range.state = state;
        }
        dealCv.notify_all();
    };
    auto drawPlans = [&](RangeRun &range) {
        if (range.state.load() == RangeRun::Drawing) {
            const CellRun &cell = range.cell;
            std::optional<telemetry::TraceSpan> span;
            uint64_t drew = 0;
            try {
                for (uint64_t i; (i = range.nextDraw.fetch_add(1)) <
                                 range.count;) {
                    if (!span)
                        span.emplace("engine", "plans");
                    cell.runner.drawTrial(cell, range, i);
                    ++drew;
                    if (range.drawn.fetch_add(1) + 1 == range.count) {
                        cell.runner.dealGangs(cell, range);
                        settle(range, RangeRun::Dealt);
                    }
                }
            } catch (...) {
                settle(range, RangeRun::Broken);
                throw;
            }
            if (span && span->active())
                span->setArgs("{\"trials\":" + std::to_string(drew) +
                              ",\"errors\":" +
                              std::to_string(cell.cell.config.errors) +
                              "}");
            span.reset();
            std::unique_lock<std::mutex> lock(dealMutex);
            dealCv.wait(lock, [&range] {
                return range.state.load() != RangeRun::Drawing;
            });
        }
        return range.state.load() == RangeRun::Dealt;
    };

    // Task @p task of @p range, on the worker that owns @p mine.
    auto runTask = [&](RangeRun &range, const RangeRun::Task &task,
                       WorkerSimulators &mine) {
        CellRun &cell = range.cell;
        const CampaignRunner &runner = cell.runner;
        // A worker moving on to another cell drops the previous cell's
        // simulators: a Memory keeps every page its trials touched.
        if (mine.cell != &cell.cell) {
            mine.gang.reset();
            mine.scalar.reset();
            mine.cell = &cell.cell;
        }
        auto gangWorker = [&]() -> GangWorker & {
            if (!mine.gang)
                mine.gang.emplace(runner.program_, runner.model_,
                                  cell.maxLanes);
            return *mine.gang;
        };
        SlotDone done = [&](uint64_t slot) {
            if (cell.cell.hooks.trialDone)
                cell.cell.hooks.trialDone(range.index, slot,
                                          range.result.outcomes[slot]);
        };
        RangeRun::Gang &gang = range.gangs[task.gang];
        uint8_t mode = gang.mode.load();
        bool decider = false;
        if (mode == RangeRun::Gang::Undecided) {
            uint8_t choice = cell.gangWidth > 0 && !cell.gangsDiverge()
                                 ? RangeRun::Gang::Lockstep
                                 : RangeRun::Gang::Scalar;
            decider = gang.mode.compare_exchange_strong(mode, choice);
            if (decider)
                mode = choice;
        }
        if (mode == RangeRun::Gang::Scalar) {
            const LiveTrial &trial = range.live[gang.first + task.lane];
            telemetry::TraceSpan trialSpan("engine", "trial");
            if (trialSpan.active())
                trialSpan.setArgs(
                    "{\"trial\":" +
                    std::to_string(range.result.firstTrial + trial.slot) +
                    "}");
            sim::Simulator *simulator;
            if (cell.gangWidth > 0) {
                metrics.gangFallbackTrials.add();
                simulator = &gangWorker().drain;
            } else {
                if (!mine.scalar)
                    mine.scalar.emplace(runner.program_, runner.model_);
                simulator = &*mine.scalar;
            }
            runner.runTrial(*simulator, trial, cell.budget,
                            range.result.outcomes[trial.slot]);
            done(trial.slot);
        } else if (decider) {
            metrics.gangBatches.add();
            metrics.gangLaneSlots.add(range.width);
            metrics.gangLanes.add(gang.lanes);
            telemetry::TraceSpan gangSpan("engine", "gang");
            if (gangSpan.active())
                gangSpan.setArgs("{\"gang\":" + std::to_string(gang.index) +
                                 ",\"lanes\":" +
                                 std::to_string(gang.lanes) + "}");
            GangWorker &worker = gangWorker();
            unsigned evicted = runner.runGang(
                range.live.data() + gang.first, gang.lanes,
                range.result.firstTrial, worker.base, worker.drain,
                worker.gang, cell.budget, range.result.outcomes, done);
            cell.lanesEvicted += evicted;
            cell.lanesDone += gang.lanes;
        }
    };

    // Worker-local executors: simulators are self-contained (no
    // global state), so worker-local instances make tasks re-entrant.
    std::vector<WorkerSimulators> simulators(workers);
    TrialPool::run(workers, taskCount, [&](uint64_t t, unsigned w) {
        auto at = std::prev(std::upper_bound(
            grid.begin(), grid.end(), t,
            [](uint64_t task, const auto &entry) {
                return task < entry.first;
            }));
        RangeRun &range = *at->second;
        const PassHooks &hooks = range.cell.cell.hooks;
        std::call_once(range.started, [&] {
            range.skipped = hooks.stopStarting && hooks.stopStarting();
            if (!range.skipped) {
                range.result.outcomes.resize(range.count);
                range.live.resize(range.count);
            }
        });
        if (range.skipped || !drawPlans(range))
            return;

        // The tasks past its live trials stand for pruned ones.
        uint64_t k = t - at->first;
        if (k < range.tasks.size())
            runTask(range, range.tasks[k], simulators[w]);
        if (range.pending.fetch_sub(1) == 1)
            finish(range);
    });
}

const sim::Checkpoint &
CampaignRunner::rewind(sim::Simulator &simulator,
                       const sim::Checkpoint *checkpoint) const
{
    static const sim::Checkpoint programStart;
    if (!checkpoint) {
        simulator.fastReset();
        return programStart;
    }
    simulator.restoreFrom(*checkpoint, golden_);
    return *checkpoint;
}

void
CampaignRunner::runSites(sim::Simulator &simulator,
                         const InjectionPlan &plan, SiteCursor cursor,
                         uint64_t injectableRetired, uint64_t instructions,
                         uint64_t budget, TrialOutcome &outcome) const
{
    // Run hookless from site to site, flipping the scheduled bits at
    // each pause; the final leg (or a crash/timeout on the way) ends
    // the trial.
    sim::RunResult run;
    for (;;) {
        uint64_t stopAfter =
            cursor.next < plan.sites.size()
                ? plan.sites[cursor.next] + 1 - injectableRetired
                : 0; // no more sites: run to completion
        run = simulator.runUntilInjectable(stopAfter, runs_, budget,
                                           instructions);
        instructions = run.instructions;
        if (run.status != sim::RunStatus::Paused)
            break;
        injectableRetired = plan.sites[cursor.next] + 1;
        // faultPc of a paused run is the static index of the
        // just-retired site instruction.
        flipNext(plan, cursor, program_.code[run.faultPc],
                 simulator.machine(), simulator.memory());
    }
    outcome.run = run;
    outcome.injected = cursor.injected;
    if (run.completed())
        outcome.output = simulator.output();
}

template <typename MachineT, typename MemoryT>
void
CampaignRunner::flipNext(const InjectionPlan &plan, SiteCursor &cursor,
                         const isa::Instruction &ins, MachineT &machine,
                         MemoryT &memory) const
{
    if (flipResult(ins, plan.masks[cursor.next], resultKinds_, machine,
                   memory))
        ++cursor.injected;
    ++cursor.next;
}

void
CampaignRunner::runTrial(sim::Simulator &simulator, const LiveTrial &trial,
                         uint64_t budget, TrialOutcome &outcome) const
{
    if (checkpointInterval_ == 0) {
        Injector injector(injectable_, trial.plan, resultKinds_);
        simulator.reset();
        outcome.run = simulator.run(budget, &injector);
        outcome.injected = injector.injectedCount();
        if (outcome.run.completed())
            outcome.output = simulator.output();
        return;
    }
    // Start from the latest checkpoint the first injection site has
    // not yet passed: everything before it is a bit-identical replay
    // of the golden run. A trial with no sites at all (errors == 0) is
    // the golden run, so it may jump to the last checkpoint and
    // execute only the final stretch.
    const sim::Checkpoint &at = rewind(
        simulator, checkpoints_.findForInjectable(firstSite(trial.plan)));
    runSites(simulator, trial.plan, SiteCursor{}, at.injectableRetired,
             at.instructions, budget, outcome);
}

unsigned
CampaignRunner::runGang(const LiveTrial *trials, unsigned lanes,
                        uint64_t firstTrial, sim::Simulator &base,
                        sim::Simulator &drain, sim::GangSimulator &gang,
                        uint64_t budget,
                        std::vector<TrialOutcome> &outcomes,
                        const SlotDone &done) const
{
    // Shared restore: the checkpoint of the gang's earliest first site
    // (trials arrive sorted, so that is lane 0's).
    const sim::Checkpoint *checkpoint =
        checkpoints_.findForInjectable(firstSite(trials[0].plan));
    const sim::Checkpoint &at = rewind(base, checkpoint);
    gang.reset(base.machine(), base.memory(), lanes, at.instructions,
               at.injectableRetired, at.outputLength);

    SiteCursor cursors[sim::GangSimulator::MAX_LANES];
    for (;;) {
        // Next pause target: the earliest unapplied site over the
        // lanes still executing in the gang (evicted lanes finish
        // their own schedules in the drain).
        uint64_t nextSite = std::numeric_limits<uint64_t>::max();
        for (unsigned l = 0; l < lanes; ++l) {
            const auto &sites = trials[l].plan.sites;
            if (gang.laneInGang(l) && cursors[l].next < sites.size())
                nextSite = std::min(nextSite, sites[cursors[l].next]);
        }
        uint64_t stopAfter =
            nextSite == std::numeric_limits<uint64_t>::max()
                ? 0 // no sites left in-gang: run to completion
                : nextSite + 1 - gang.injectableRetired();
        sim::RunResult run = gang.runUntilInjectable(stopAfter, runs_, budget);
        if (run.status != sim::RunStatus::Paused)
            break; // gang drained (every lane has an exit record)
        // Apply every flip scheduled at this site (several lanes can
        // share one). A lane that left the gang before its site is
        // skipped here; the drain applies its remaining flips.
        uint64_t site = gang.injectableRetired() - 1;
        for (unsigned l = 0; l < lanes; ++l) {
            const InjectionPlan &plan = trials[l].plan;
            if (!gang.laneInGang(l) || cursors[l].next >= plan.sites.size() ||
                plan.sites[cursors[l].next] != site)
                continue;
            auto laneMachine = gang.laneMachine(l);
            auto laneMemory = gang.laneMemory(l);
            flipNext(plan, cursors[l], program_.code[run.faultPc],
                     laneMachine, laneMemory);
        }
    }

    unsigned evicted = 0;
    for (const auto &exitRecord : gang.takeExits()) {
        const LiveTrial &trial = trials[exitRecord.lane];
        TrialOutcome &outcome = outcomes[trial.slot];
        if (exitRecord.kind == sim::GangSimulator::ExitKind::Finished) {
            outcome.run = exitRecord.run;
            outcome.injected = cursors[exitRecord.lane].injected;
            if (outcome.run.completed()) {
                outcome.output.assign(
                    golden_.begin(),
                    golden_.begin() +
                        static_cast<ptrdiff_t>(at.outputLength));
                outcome.output.insert(outcome.output.end(),
                                      exitRecord.outputTail.begin(),
                                      exitRecord.outputTail.end());
            }
            done(trial.slot);
            continue;
        }
        // A control-diverged lane: rehydrate the drain simulator with
        // the lane's exact state at the divergence boundary -- shared
        // restore, the lane's overlay pages on top, its registers +
        // divergent PC, and its output so far -- and finish the trial
        // through the site loop, so the result is bit-identical to
        // never having ganged at all.
        ++evicted;
        engineMetrics().gangEvictions.add();
        telemetry::TraceSpan drainSpan("engine", "drain-lane");
        if (drainSpan.active())
            drainSpan.setArgs("{\"trial\":" +
                              std::to_string(firstTrial + trial.slot) +
                              "}");
        rewind(drain, checkpoint);
        for (const auto &[pageNumber, bytes] : exitRecord.pages)
            drain.memory().setPage(pageNumber, bytes);
        drain.machine() = exitRecord.machine;
        drain.appendOutput(exitRecord.outputTail);
        runSites(drain, trial.plan, cursors[exitRecord.lane],
                 exitRecord.injectableRetired, exitRecord.instructions,
                 budget, outcome);
        done(trial.slot);
    }
    return evicted;
}

} // namespace etc::fault
