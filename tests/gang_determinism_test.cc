/**
 * @file
 * Bit-identity contract of the gang interpreter: campaign results on
 * the batched lockstep fast path are byte-identical to the scalar
 * path for every gang width x thread count x checkpoint setting x
 * static-prune setting -- the gang, like checkpointing and pruning,
 * is a pure acceleration, never a result change. Diverged lanes drain
 * through the scalar Simulator, so even the worst case (every lane
 * diverges at its first fault) must reproduce scalar bits exactly, and
 * so must a pass whose gangs diverge so often that its later gangs
 * fall back to scalar. The gang counters pin the one deal rule a pass
 * sizes its gangs by.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/injection.hh"
#include "fault/policy.hh"
#include "sim/gang.hh"
#include "store/cell_key.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "workloads/workload.hh"

#include "shard_slice.hh"

namespace {

using namespace etc;
using namespace etc::fault;

constexpr unsigned TRIALS = 40;

/** Control-only flips per trial that evict most mpeg lanes. */
constexpr unsigned DIVERGENT_ERRORS = 32;

CampaignConfig
cellConfig(unsigned gangWidth, unsigned threads, unsigned errors = 1)
{
    CampaignConfig config;
    config.trials = TRIALS;
    config.errors = errors;
    config.seed = 0x6a76;
    config.threads = threads;
    config.gangWidth = gangWidth;
    return config;
}

/** Every observable bit must match, including per-trial records. */
void
expectIdentical(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.trialsPruned, b.trialsPruned);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].run.status, b.outcomes[i].run.status)
            << "trial " << i;
        EXPECT_EQ(a.outcomes[i].run.instructions,
                  b.outcomes[i].run.instructions)
            << "trial " << i;
        EXPECT_EQ(a.outcomes[i].injected, b.outcomes[i].injected)
            << "trial " << i;
        EXPECT_EQ(a.outcomes[i].output, b.outcomes[i].output)
            << "trial " << i;
    }
}

/** The process-wide value of engine counter @p name. */
uint64_t
counterValue(const std::string &name)
{
    return telemetry::counter(name, "").value();
}

/** A temp path unique to this test run. */
std::filesystem::path
tempTracePath(const std::string &stem)
{
    return std::filesystem::temp_directory_path() /
           (stem + "_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            ".jsonl");
}

/** One workload's runner grid: {checkpoint on, off} x {prune off, on}. */
struct RunnerGrid
{
    std::unique_ptr<workloads::Workload> workload;
    std::vector<bool> injectable;

    /** [checkpointing ? 1 : 0][staticPrune ? 1 : 0] */
    std::unique_ptr<CampaignRunner> runners[2][2];

    explicit RunnerGrid(const std::string &name,
                        const std::string &policyName =
                            UNPROTECTED_POLICY)
    {
        workload =
            workloads::createWorkload(name, workloads::Scale::Test);
        injectable = injectableWithoutProtection(workload->program());
        const InjectionPolicy &policy =
            resolveInjectionPolicy(policyName);
        for (int ckpt = 0; ckpt < 2; ++ckpt)
            for (int prune = 0; prune < 2; ++prune)
                runners[ckpt][prune] = std::make_unique<CampaignRunner>(
                    workload->program(), injectable,
                    sim::MemoryModel::Lenient,
                    ckpt ? CampaignRunner::DEFAULT_CHECKPOINT_INTERVAL
                         : 0,
                    policy.resultKinds, policy.bitModel, prune != 0);
    }

    CampaignRunner &runner(bool ckpt, bool prune)
    {
        return *runners[ckpt ? 1 : 0][prune ? 1 : 0];
    }
};

/** Stripes per cell of the multi-cell passes below. */
constexpr unsigned STRIPES = 4;

/** What a multi-cell runPass() reported for each stripe of each cell. */
struct SweepRecord
{
    /** [cell][stripe] */
    std::vector<std::vector<CampaignResult>> results;
    std::vector<std::vector<unsigned>> calls;

    SweepRecord(size_t cells, unsigned stripes)
        : results(cells, std::vector<CampaignResult>(stripes)),
          calls(cells, std::vector<unsigned>(stripes))
    {
    }

    /** Cell @p c of a pass: @p config.trials in this record's number
     *  of equal stripes, recording into this. */
    PassCell
    cell(size_t c, CampaignRunner &runner, const CampaignConfig &config)
    {
        PassCell cell;
        cell.runner = &runner;
        cell.config = config;
        uint64_t stripes = results[c].size();
        for (uint64_t s = 0; s < stripes; ++s)
            cell.ranges.push_back({config.trials * s / stripes,
                                   config.trials * (s + 1) / stripes});
        cell.hooks.rangeDone = [this, c](size_t range,
                                         CampaignResult &result) {
            ++calls[c][range];
            results[c][range] = std::move(result);
        };
        return cell;
    }

    /** Each stripe of cell @p c landed once, as its slice of @p whole. */
    void
    expectSlicesOf(size_t c, const CampaignResult &whole) const
    {
        for (size_t r = 0; r < results[c].size(); ++r) {
            SCOPED_TRACE("cell " + std::to_string(c) + " stripe " +
                         std::to_string(r));
            EXPECT_EQ(calls[c][r], 1u);
            expectShardIsSliceOf(whole, results[c][r]);
        }
    }
};

TEST(GangDeterminismTest, BitIdenticalAcrossWidthsThreadsCheckpointPrune)
{
    // The ISSUE's acceptance sweep: gang widths {0,1,4,8} x threads
    // {1,4} x checkpoint {on,off} x static-prune {off,on} on two
    // workloads, one of them divergence-heavy (mpeg's control faults
    // split gangs constantly). Every cell must be byte-identical to
    // the scalar checkpoint-on baseline (checkpointing itself is
    // bit-invariant by the checkpoint_test contract).
    for (const char *name : {"mpeg", "susan"}) {
        RunnerGrid grid(name);
        auto baseline = grid.runner(true, false).run(cellConfig(0, 1));
        for (unsigned width : {0u, 1u, 4u, 8u}) {
            for (unsigned threads : {1u, 4u}) {
                for (bool ckpt : {true, false}) {
                    for (bool prune : {false, true}) {
                        auto result = grid.runner(ckpt, prune)
                                          .run(cellConfig(width,
                                                          threads));
                        SCOPED_TRACE(std::string(name) + " width=" +
                                     std::to_string(width) +
                                     " threads=" +
                                     std::to_string(threads) +
                                     " ckpt=" + (ckpt ? "on" : "off") +
                                     " prune=" +
                                     (prune ? "on" : "off"));
                        // Pruned trial counts legitimately differ
                        // between prune on/off; everything else must
                        // not.
                        auto expected = baseline;
                        expected.trialsPruned = result.trialsPruned;
                        expectIdentical(expected, result);
                    }
                }
            }
        }
    }
}

TEST(GangDeterminismTest, ShardMergeIdentity)
{
    // Gangs regroup arbitrarily at shard boundaries (a stripe's
    // trials gang among themselves only); each shard must still
    // equal its slice of the monolithic scalar cell bit for bit.
    RunnerGrid grid("mpeg");
    auto &runner = grid.runner(true, false);
    auto whole = runner.run(cellConfig(0, 1));
    auto config = cellConfig(8, 2);
    expectShardIsSliceOf(whole, runner.runRange(config, 0, 17));
    expectShardIsSliceOf(whole, runner.runRange(config, 17, TRIALS));
}

TEST(GangDeterminismTest, EveryLaneDivergesDrainsToScalarBits)
{
    // Worst case by construction: the control-only policy flips only
    // control-transfer results, so every injected trial diverges from
    // the pack at its first fault and the whole gang drains through
    // the scalar Simulator. The drain must reproduce scalar bits.
    RunnerGrid grid("mpeg", "control-only");
    auto scalar = grid.runner(true, false).run(cellConfig(0, 1));
    for (unsigned width : {4u, 8u}) {
        uint64_t evictions =
            counterValue("etc_gang_lane_evictions_total");
        auto ganged =
            grid.runner(true, false).run(cellConfig(width, 1));
        expectIdentical(scalar, ganged);
        // The pass's first gangs run (and drain) before the fallback
        // can fire, so the drain path stays covered.
        EXPECT_GT(counterValue("etc_gang_lane_evictions_total"),
                  evictions)
            << "width " << width;
    }
}

TEST(GangDeterminismTest, DivergentPassFallsBackToScalarBits)
{
    // Many control-transfer flips knock most mpeg lanes off the
    // pack, so once GANG_FALLBACK_MIN_LANES lanes have finished, the
    // pass's later gang tasks run their trials scalar. One thread
    // fixes which tasks those are; the results are fixed at any count.
    RunnerGrid grid("mpeg", "control-only");
    auto &runner = grid.runner(true, false);
    auto scalar = runner.run(cellConfig(0, 1, DIVERGENT_ERRORS));
    uint64_t fallback =
        counterValue("etc_gang_scalar_fallback_trials_total");
    uint64_t batches = counterValue("etc_gang_batches_total");
    auto ganged = runner.run(cellConfig(4, 1, DIVERGENT_ERRORS));
    expectIdentical(scalar, ganged);
    uint64_t fellBack =
        counterValue("etc_gang_scalar_fallback_trials_total") - fallback;
    uint64_t gangsRun = counterValue("etc_gang_batches_total") - batches;
    // Width 4 deals ten gangs: the first two reach the minimum, the
    // other eight fall back.
    EXPECT_EQ(gangsRun, GANG_FALLBACK_MIN_LANES / 4);
    EXPECT_EQ(fellBack, TRIALS - GANG_FALLBACK_MIN_LANES);
    // At 4 threads the gangs that fall back depend on which finish
    // first; the results do not.
    expectIdentical(scalar,
                    runner.run(cellConfig(4, 4, DIVERGENT_ERRORS)));
}

TEST(GangDeterminismTest, LockstepPassNeverFallsBack)
{
    // Protected susan: no fault leaves the pack, so every gang runs
    // and the fallback never fires.
    auto workload =
        workloads::createWorkload("susan", workloads::Scale::Test);
    core::StudyConfig config;
    config.trials = TRIALS;
    config.gangWidth = 4;
    core::ErrorToleranceStudy study(*workload, config);
    uint64_t fallback =
        counterValue("etc_gang_scalar_fallback_trials_total");
    uint64_t evictions = counterValue("etc_gang_lane_evictions_total");
    uint64_t batches = counterValue("etc_gang_batches_total");
    uint64_t lanes = counterValue("etc_gang_lanes_total");
    auto cell = study.runCell(1, fault::PROTECTED_POLICY);
    EXPECT_EQ(cell.trials, TRIALS);
    EXPECT_EQ(counterValue("etc_gang_lane_evictions_total"), evictions);
    EXPECT_EQ(counterValue("etc_gang_scalar_fallback_trials_total"),
              fallback);
    EXPECT_EQ(counterValue("etc_gang_batches_total") - batches,
              TRIALS / 4);
    EXPECT_EQ(counterValue("etc_gang_lanes_total") - lanes, TRIALS);
}

TEST(GangDeterminismTest, DrainSpansNameGlobalTrials)
{
    // Two ranges of one pass, each below the fallback minimum, so
    // both gang and drain: each drain-lane span must name its trial's
    // global index, not its slot within the range.
    RunnerGrid grid("mpeg", "control-only");
    auto &runner = grid.runner(true, false);
    CampaignConfig config = cellConfig(4, 1, DIVERGENT_ERRORS);
    config.trials = 6;
    auto tracePath = tempTracePath("etc_drain_span_trace");
    telemetry::Tracer::instance().open(tracePath.string());
    runner.runPass(config, {TrialRange{0, 3}, TrialRange{3, 6}},
                   PassHooks{});
    telemetry::Tracer::instance().close();

    std::ifstream trace(tracePath);
    std::string line;
    std::vector<uint64_t> drained;
    const std::string trialArg = "\"trial\":";
    while (std::getline(trace, line)) {
        size_t at = line.find(trialArg);
        if (line.find("\"name\":\"drain-lane\"") != std::string::npos &&
            at != std::string::npos)
            drained.push_back(
                std::stoull(line.substr(at + trialArg.size())));
    }
    std::filesystem::remove(tracePath);

    EXPECT_GE(drained.size(), 2u);
    std::set<uint64_t> unique(drained.begin(), drained.end());
    EXPECT_EQ(unique.size(), drained.size());
    for (uint64_t trial : drained)
        EXPECT_LT(trial, 6u);
    EXPECT_TRUE(std::any_of(drained.begin(), drained.end(),
                            [](uint64_t trial) { return trial >= 3; }));
}

TEST(GangDeterminismTest, TracingIsObservationOnly)
{
    // PR 8 acceptance: telemetry never feeds an RNG draw or a cache
    // key, so a campaign traced via --trace-out must reproduce the
    // untraced bits exactly -- across threads {1,4} x gang widths
    // {0,8}, where per-trial, gang, and drain-lane spans all fire.
    RunnerGrid grid("mpeg");
    auto &runner = grid.runner(true, false);
    auto untraced = runner.run(cellConfig(0, 1));

    auto tracePath = tempTracePath("etc_gang_trace");
    telemetry::Tracer::instance().open(tracePath.string());
    std::vector<CampaignResult> traced;
    for (unsigned threads : {1u, 4u})
        for (unsigned width : {0u, 8u})
            traced.push_back(runner.run(cellConfig(width, threads)));
    telemetry::Tracer::instance().close();

    for (const auto &result : traced)
        expectIdentical(untraced, result);

    // The trace itself materialized as nonempty JSONL.
    EXPECT_GT(std::filesystem::file_size(tracePath), 0u);

    // A traced pass over two cells (drawing spans included) must also
    // give each range the bits of its cell run alone.
    RunnerGrid control("mpeg", "control-only");
    std::vector<CampaignRunner *> cellRunners = {
        &runner, &control.runner(true, false)};
    std::vector<CampaignConfig> configs = {
        cellConfig(0, 1), cellConfig(0, 1, DIVERGENT_ERRORS)};
    std::vector<CampaignResult> alone;
    for (size_t c = 0; c < configs.size(); ++c)
        alone.push_back(cellRunners[c]->run(configs[c]));
    telemetry::Tracer::instance().open(tracePath.string());
    unsigned passes = 0;
    for (unsigned threads : {1u, 4u}) {
        for (unsigned width : {0u, 8u}) {
            SweepRecord sweep(configs.size(), STRIPES);
            std::vector<PassCell> cells;
            for (size_t c = 0; c < configs.size(); ++c) {
                CampaignConfig config = configs[c];
                config.threads = threads;
                config.gangWidth = width;
                cells.push_back(sweep.cell(c, *cellRunners[c], config));
            }
            CampaignRunner::runPass(cells);
            ++passes;
            for (size_t c = 0; c < configs.size(); ++c)
                sweep.expectSlicesOf(c, alone[c]);
        }
    }
    telemetry::Tracer::instance().close();

    // Every range's plans were drawn under an engine/plans span that
    // names the cell's error count.
    std::ifstream trace(tracePath);
    std::string line;
    unsigned plans = 0;
    while (std::getline(trace, line))
        if (line.find("\"name\":\"plans\"") != std::string::npos) {
            ++plans;
            EXPECT_NE(line.find("\"errors\":"), std::string::npos) << line;
        }
    std::filesystem::remove(tracePath);
    EXPECT_GE(plans, passes * configs.size() * STRIPES);
}

/** A workload's runners (mcf's by default) under the paper's two
 *  policies. */
struct PolicyRunners
{
    explicit PolicyRunners(const std::string &name = "mcf")
        : workload(workloads::createWorkload(name, workloads::Scale::Test))
    {
    }

    std::unique_ptr<workloads::Workload> workload;
    std::vector<bool> tagged =
        core::computeStudyProtection(*workload, core::StudyConfig{})
            .tagged;
    CampaignRunner protectedRunner{
        workload->program(),
        resolveInjectionPolicy(PROTECTED_POLICY)
            .injectableBitmap(workload->program(), tagged)};
    CampaignRunner unprotectedRunner{
        workload->program(),
        injectableWithoutProtection(workload->program())};
};

TEST(GangDeterminismTest, SweepPassEqualsCellsRunAlone)
{
    // One pass over a whole sweep (mcf at 0, 1 and 50 errors under
    // both policies, each cell in four stripes) gives every stripe
    // exactly what runRange() over its cell alone gives, for every
    // thread count and gang width.
    PolicyRunners mcf;
    struct Cell
    {
        CampaignRunner *runner;
        unsigned errors;
    };
    std::vector<Cell> sweep;
    for (unsigned errors : {0u, 1u, 50u})
        for (CampaignRunner *runner :
             {&mcf.protectedRunner, &mcf.unprotectedRunner})
            sweep.push_back({runner, errors});
    for (unsigned threads : {1u, 4u}) {
        for (unsigned width : {0u, 8u, GANG_WIDTH_AUTO}) {
            SCOPED_TRACE("threads " + std::to_string(threads) + " width " +
                         std::to_string(width));
            SweepRecord record(sweep.size(), STRIPES);
            std::vector<PassCell> cells;
            for (size_t c = 0; c < sweep.size(); ++c) {
                CampaignConfig config =
                    cellConfig(width, threads, sweep[c].errors);
                config.seed ^= uint64_t{sweep[c].errors} << 32;
                cells.push_back(record.cell(c, *sweep[c].runner, config));
            }
            CampaignRunner::runPass(cells);
            for (size_t c = 0; c < sweep.size(); ++c) {
                const PassCell &cell = cells[c];
                for (size_t r = 0; r < STRIPES; ++r) {
                    SCOPED_TRACE("cell " + std::to_string(c) + " stripe " +
                                 std::to_string(r));
                    EXPECT_EQ(record.calls[c][r], 1u);
                    expectIdentical(
                        sweep[c].runner->runRange(cell.config,
                                                  cell.ranges[r].lo,
                                                  cell.ranges[r].hi),
                        record.results[c][r]);
                }
            }
        }
    }
}

TEST(GangDeterminismTest, FallbackStaysPerCell)
{
    // Unprotected mcf at 50 errors evicts most gang lanes, so its later
    // gangs fall back to scalar; a 0-error cell dealt after it in the
    // same pass stays in lockstep. One thread fixes which gangs fall
    // back, so the pass must count exactly the diverging cell's
    // fallback trials. A pass-wide ratio would send the 0-error cell's
    // gangs to scalar too.
    PolicyRunners mcf;
    CampaignConfig diverging = cellConfig(8, 1, 50);
    CampaignConfig golden = cellConfig(8, 1, 0);
    const std::string fallback = "etc_gang_scalar_fallback_trials_total";

    SweepRecord alone(1, STRIPES);
    uint64_t before = counterValue(fallback);
    CampaignRunner::runPass(
        {alone.cell(0, mcf.unprotectedRunner, diverging)});
    uint64_t aloneFellBack = counterValue(fallback) - before;
    ASSERT_GT(aloneFellBack, 0u) << "the cell no longer diverges";

    SweepRecord pass(2, STRIPES);
    before = counterValue(fallback);
    CampaignRunner::runPass(
        {pass.cell(0, mcf.unprotectedRunner, diverging),
         pass.cell(1, mcf.protectedRunner, golden)});
    EXPECT_EQ(counterValue(fallback) - before, aloneFellBack);

    auto scalar = diverging;
    scalar.gangWidth = 0;
    pass.expectSlicesOf(0, mcf.unprotectedRunner.run(scalar));
    scalar = golden;
    scalar.gangWidth = 0;
    pass.expectSlicesOf(1, mcf.protectedRunner.run(scalar));
}

// One deal rule for the whole pass: in a pass of T trials over W
// workers, a range of L trials deals near-equal gangs of at most
// min(gangWidth, ceil(max(L, 64) / W), ceil(T / W)) lanes. Protected
// susan stays in lockstep, so every dealt gang runs as one, and the
// gang counters read the deal: gangs, lanes, and per gang its range's
// widest gang as lane slots. Every case gives the scalar bits.
TEST(GangDeterminismTest, OneDealRulePerPass)
{
    PolicyRunners susan("susan");
    struct Case
    {
        const char *what;
        unsigned cells, trials, stripes, threads, width;
        uint64_t gangs, slots; //!< per pass
    };
    const Case cases[] = {
        // 200-trial cells in 50-trial stripes: four gangs of 12-13
        // lanes per stripe at 4 threads, two of 25 at 1 or 2.
        {"four 50-trial stripes, 4 threads", 1, 200, 4, 4, GANG_WIDTH_AUTO,
         16, 16 * 13},
        {"four 50-trial stripes, 2 threads", 1, 200, 4, 2, GANG_WIDTH_AUTO,
         8, 8 * 25},
        {"four 50-trial stripes, 1 thread", 1, 200, 4, 1, GANG_WIDTH_AUTO,
         8, 8 * 25},
        // Many small stripes: one gang each.
        {"twelve 6-trial stripes, 4 threads", 3, 24, 4, 4,
         GANG_WIDTH_AUTO, 12, 12 * 6},
        // A pass of few trials still splits over its workers.
        {"one 12-trial range, 4 threads", 1, 12, 1, 4, GANG_WIDTH_AUTO, 4,
         4 * 3},
        // Ranges of 64 trials or more: min(gangWidth, ceil(L / W)).
        {"one 100-trial range, 4 threads", 1, 100, 1, 4, GANG_WIDTH_AUTO,
         4, 4 * 25},
        {"one 64-trial range, 1 thread", 1, 64, 1, 1, GANG_WIDTH_AUTO, 2,
         2 * 32},
        {"one 100-trial range, 2 threads, width 8", 1, 100, 1, 2, 8, 13,
         13 * 8},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        SweepRecord record(c.cells, c.stripes);
        std::vector<PassCell> cells;
        std::vector<CampaignConfig> configs;
        for (unsigned i = 0; i < c.cells; ++i) {
            CampaignConfig config = cellConfig(c.width, c.threads);
            config.trials = c.trials;
            config.seed ^= uint64_t{i} << 32;
            configs.push_back(config);
            cells.push_back(
                record.cell(i, susan.protectedRunner, config));
        }
        const std::string fallback = "etc_gang_scalar_fallback_trials_total";
        uint64_t fellBack = counterValue(fallback);
        uint64_t batches = counterValue("etc_gang_batches_total");
        uint64_t lanes = counterValue("etc_gang_lanes_total");
        uint64_t slots = counterValue("etc_gang_lane_slots_total");
        CampaignRunner::runPass(cells);
        EXPECT_EQ(counterValue(fallback), fellBack);
        EXPECT_EQ(counterValue("etc_gang_batches_total") - batches, c.gangs);
        EXPECT_EQ(counterValue("etc_gang_lanes_total") - lanes,
                  uint64_t{c.cells} * c.trials);
        EXPECT_EQ(counterValue("etc_gang_lane_slots_total") - slots,
                  c.slots);
        for (unsigned i = 0; i < c.cells; ++i) {
            CampaignConfig scalar = configs[i];
            scalar.gangWidth = 0;
            record.expectSlicesOf(i, susan.protectedRunner.run(scalar));
        }
    }
}

TEST(GangDeterminismTest, WidthResolution)
{
    EXPECT_EQ(CampaignRunner::resolveGangWidth(GANG_WIDTH_AUTO),
              DEFAULT_GANG_WIDTH);
    EXPECT_EQ(CampaignRunner::resolveGangWidth(0), 0u);
    EXPECT_EQ(CampaignRunner::resolveGangWidth(5), 5u);
    EXPECT_EQ(CampaignRunner::resolveGangWidth(
                  sim::GangSimulator::MAX_LANES + 7),
              sim::GangSimulator::MAX_LANES);
}

TEST(GangDeterminismTest, StudyCellsAndKeysInvariantAcrossWidths)
{
    // End-to-end through the study layer: summaries, per-trial
    // fidelity bits, and store cache keys -- the figures' and result
    // store's inputs -- are identical for every gang width (the width,
    // like the thread count, is deliberately not part of the key).
    auto workload =
        workloads::createWorkload("mpeg", workloads::Scale::Test);
    core::StudyConfig scalarConfig;
    scalarConfig.trials = 24;
    scalarConfig.gangWidth = 0;
    core::StudyConfig gangConfig = scalarConfig;
    gangConfig.gangWidth = 4;
    gangConfig.threads = 4;

    EXPECT_EQ(core::makeCellKey(
                  *workload,
                  core::computeStudyProtection(*workload, scalarConfig),
                  scalarConfig, 1, fault::UNPROTECTED_POLICY, 24)
                  .fingerprint(),
              core::makeCellKey(
                  *workload,
                  core::computeStudyProtection(*workload, gangConfig),
                  gangConfig, 1, fault::UNPROTECTED_POLICY, 24)
                  .fingerprint());

    core::ErrorToleranceStudy scalar(*workload, scalarConfig);
    core::ErrorToleranceStudy gang(*workload, gangConfig);
    auto a = scalar.runCell(1, fault::UNPROTECTED_POLICY);
    auto b = gang.runCell(1, fault::UNPROTECTED_POLICY);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    ASSERT_EQ(a.fidelities.size(), b.fidelities.size());
    for (size_t i = 0; i < a.fidelities.size(); ++i)
        EXPECT_DOUBLE_EQ(a.fidelities[i].value, b.fidelities[i].value);
}

} // namespace
