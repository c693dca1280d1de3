/**
 * @file
 * Determinism contract of the parallel campaign engine: a campaign
 * cell's outcome tallies and per-trial records are bit-identical for
 * every thread count, because trial t draws its randomness from the
 * counter-based stream Rng::forStream(seed, t) and writes only its own
 * outcome slot.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "asm/builder.hh"
#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/injection.hh"
#include "fault/policy.hh"
#include "fault/trial_pool.hh"
#include "support/logging.hh"
#include "support/rng.hh"

#include "shard_slice.hh"

namespace {

using namespace etc;
using namespace etc::isa;
using namespace etc::assembly;
using namespace etc::fault;

/** A small data loop: sums a table, streams the total. */
Program
sumProgram()
{
    ProgramBuilder b;
    b.dataWords("tbl", {1, 2, 3, 4, 5, 6, 7, 8});
    b.beginFunction("main");
    auto loop = b.newLabel();
    b.la(REG_T0, "tbl");
    b.addi(REG_T1, REG_T0, 32);
    b.li(REG_T2, 0);
    b.bind(loop);
    b.lw(REG_T3, 0, REG_T0);
    b.add(REG_T2, REG_T2, REG_T3);
    b.addi(REG_T0, REG_T0, 4);
    b.blt(REG_T0, REG_T1, loop);
    b.outw(REG_T2);
    b.halt();
    b.endFunction();
    return b.finish();
}

CampaignConfig
cellConfig(unsigned threads)
{
    CampaignConfig config;
    config.trials = 48;
    config.errors = 3;
    config.seed = 0xd5eed;
    config.threads = threads;
    return config;
}

void
expectIdentical(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
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

TEST(CampaignDeterminismTest, IdenticalTalliesAcrossThreadCounts)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    auto serial = runner.run(cellConfig(1));
    auto two = runner.run(cellConfig(2));
    auto eight = runner.run(cellConfig(8));
    expectIdentical(serial, two);
    expectIdentical(serial, eight);
}

TEST(CampaignDeterminismTest, AllCoresMatchesSerial)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    // threads = 0 resolves to the machine's full core count.
    expectIdentical(runner.run(cellConfig(1)), runner.run(cellConfig(0)));
}

TEST(CampaignDeterminismTest, RerunningACellIsReproducible)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    expectIdentical(runner.run(cellConfig(8)), runner.run(cellConfig(8)));
}

TEST(CampaignDeterminismTest, StudyCellIdenticalAcrossThreadCounts)
{
    auto workload = workloads::createWorkload("adpcm",
                                              workloads::Scale::Test);
    core::StudyConfig serialConfig;
    serialConfig.trials = 16;
    core::StudyConfig parallelConfig = serialConfig;
    parallelConfig.threads = 8;

    core::ErrorToleranceStudy serial(*workload, serialConfig);
    core::ErrorToleranceStudy parallel(*workload, parallelConfig);
    auto a = serial.runCell(5, fault::PROTECTED_POLICY);
    auto b = parallel.runCell(5, fault::PROTECTED_POLICY);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
    ASSERT_EQ(a.fidelities.size(), b.fidelities.size());
    for (size_t i = 0; i < a.fidelities.size(); ++i)
        EXPECT_DOUBLE_EQ(a.fidelities[i].value, b.fidelities[i].value);
}

// ---- trial-range sharding -------------------------------------------------

/**
 * Every shard of a {1/1, 2, 4} split of a cell must be bit-identical
 * to its slice of the monolithic cell, on two workloads -- the
 * contract the persistent result store's resume path rests on.
 */
void
expectShardsMergeToMonolith(const assembly::Program &prog,
                            const CampaignConfig &config)
{
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    auto whole = runner.run(config);

    for (unsigned splits : {1u, 2u, 4u}) {
        for (unsigned s = 0; s < splits; ++s) {
            uint64_t lo = uint64_t{config.trials} * s / splits;
            uint64_t hi = uint64_t{config.trials} * (s + 1) / splits;
            auto shard = runner.runRange(config, lo, hi);
            EXPECT_EQ(shard.firstTrial, lo);
            EXPECT_EQ(shard.trials, hi - lo);
            expectShardIsSliceOf(whole, shard);
        }
    }
}

TEST(CampaignDeterminismTest, ShardsMergeToMonolithicCell)
{
    auto config = cellConfig(2);
    expectShardsMergeToMonolith(sumProgram(), config);

    auto adpcm = workloads::createWorkload("adpcm",
                                           workloads::Scale::Test);
    expectShardsMergeToMonolith(adpcm->program(), config);
}

TEST(CampaignDeterminismTest, ShardsMergeAcrossThreadCounts)
{
    // Shards computed at different thread counts are still slices of
    // the serial monolith: sharding composes with thread invariance.
    auto gsm = workloads::createWorkload("gsm", workloads::Scale::Test);
    CampaignRunner runner(gsm->program(),
                          injectableWithoutProtection(gsm->program()));
    auto whole = runner.run(cellConfig(1));

    expectShardIsSliceOf(whole, runner.runRange(cellConfig(4), 0, 17));
    expectShardIsSliceOf(whole, runner.runRange(cellConfig(1), 17, 20));
    expectShardIsSliceOf(whole, runner.runRange(cellConfig(0), 20, 48));
}

TEST(CampaignDeterminismTest, EmptyAndFullRangesAreWellFormed)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    auto config = cellConfig(1);

    auto empty = runner.runRange(config, 7, 7);
    EXPECT_EQ(empty.trials, 0u);
    EXPECT_EQ(empty.outcomes.size(), 0u);

    auto full = runner.runRange(config, 0, config.trials);
    expectIdentical(runner.run(config), full);

    EXPECT_THROW(runner.runRange(config, 8, 4), PanicError);
    EXPECT_THROW(runner.runRange(config, 0, config.trials + 1),
                 PanicError);
}

// ---- one pass over several ranges -----------------------------------------

/** Uneven ranges of a 48-trial cell, with an empty one among them. */
const std::vector<TrialRange> PASS_RANGES = {
    {0, 7}, {7, 20}, {20, 20}, {20, 33}, {33, 48}};

/** Everything runPass() reported for each range. */
struct PassRecord
{
    std::vector<CampaignResult> results;
    std::vector<unsigned> rangeCalls;          //!< rangeDone per range
    std::vector<std::atomic<unsigned>> trialCalls; //!< per global trial

    PassRecord(size_t ranges, size_t trials)
        : results(ranges), rangeCalls(ranges), trialCalls(trials)
    {
    }

    PassHooks
    hooks(const std::vector<TrialRange> &ranges)
    {
        PassHooks hooks;
        hooks.trialDone = [this, &ranges](size_t range, uint64_t index,
                                          TrialOutcome &) {
            trialCalls[ranges[range].lo + index].fetch_add(1);
        };
        hooks.rangeDone = [this](size_t range, CampaignResult &result) {
            ++rangeCalls[range];
            results[range] = std::move(result);
        };
        return hooks;
    }
};

TEST(CampaignDeterminismTest, PassEqualsSeparateRangeRuns)
{
    // The pass deals gangs per range and shares one pool across the
    // ranges; each range must still be exactly runRange() over it,
    // on every executor path.
    auto adpcm = workloads::createWorkload("adpcm",
                                           workloads::Scale::Test);
    const Program &prog = adpcm->program();
    // The independent oracle: the whole cell, serial, replaying every
    // trial through the Injector hook.
    auto oracleConfig = cellConfig(1);
    oracleConfig.errors = 1;
    auto oracle = CampaignRunner(prog, injectableWithoutProtection(prog),
                                 sim::MemoryModel::Lenient, 0)
                      .run(oracleConfig);
    for (uint64_t interval :
         {uint64_t{0}, CampaignRunner::DEFAULT_CHECKPOINT_INTERVAL}) {
        for (bool prune : {false, true}) {
            CampaignRunner runner(prog, injectableWithoutProtection(prog),
                                  sim::MemoryModel::Lenient, interval,
                                  RK_ALL, {}, prune);
            for (unsigned width : {0u, 1u, 8u, GANG_WIDTH_AUTO}) {
                for (unsigned threads : {1u, 4u}) {
                    SCOPED_TRACE("interval " + std::to_string(interval) +
                                 " prune " + std::to_string(prune) +
                                 " width " + std::to_string(width) +
                                 " threads " + std::to_string(threads));
                    auto config = cellConfig(threads);
                    config.errors = 1;
                    config.gangWidth = width;
                    PassRecord pass(PASS_RANGES.size(), config.trials);
                    runner.runPass(config, PASS_RANGES,
                                   pass.hooks(PASS_RANGES));

                    uint64_t pruned = 0;
                    for (size_t r = 0; r < PASS_RANGES.size(); ++r) {
                        auto [lo, hi] = PASS_RANGES[r];
                        auto separate = runner.runRange(config, lo, hi);
                        EXPECT_EQ(pass.rangeCalls[r], 1u) << "range " << r;
                        EXPECT_EQ(pass.results[r].firstTrial, lo);
                        EXPECT_EQ(pass.results[r].trialsPruned,
                                  separate.trialsPruned);
                        expectIdentical(separate, pass.results[r]);
                        expectShardIsSliceOf(oracle, pass.results[r]);
                        pruned += separate.trialsPruned;
                    }
                    EXPECT_EQ(pruned > 0, prune);
                    for (uint64_t t = 0; t < config.trials; ++t)
                        EXPECT_EQ(pass.trialCalls[t].load(), 1u)
                            << "trial " << t;
                }
            }
        }
    }
}

TEST(CampaignDeterminismTest, StoppedPassFinishesOnlyStartedRanges)
{
    auto gsm = workloads::createWorkload("gsm", workloads::Scale::Test);
    CampaignRunner runner(gsm->program(),
                          injectableWithoutProtection(gsm->program()));
    const std::vector<TrialRange> ranges = {
        {0, 12}, {12, 24}, {24, 36}, {36, 48}};
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto config = cellConfig(threads);
        PassRecord pass(ranges.size(), config.trials);
        PassHooks hooks = pass.hooks(ranges);
        // A stop arrives after two ranges were allowed to start.
        std::atomic<unsigned> asked{0};
        hooks.stopStarting = [&asked] { return asked.fetch_add(1) >= 2; };
        runner.runPass(config, ranges, hooks);

        // Each range is asked once; the two started ranges finish
        // (whichever two won the race to start) and the rest never
        // run a trial.
        EXPECT_EQ(asked.load(), ranges.size());
        unsigned finished = 0;
        for (size_t r = 0; r < ranges.size(); ++r) {
            unsigned calls = 0;
            for (uint64_t t = ranges[r].lo; t < ranges[r].hi; ++t)
                calls += pass.trialCalls[t].load();
            if (!pass.rangeCalls[r]) {
                EXPECT_EQ(calls, 0u) << "range " << r;
                continue;
            }
            ++finished;
            EXPECT_EQ(calls, ranges[r].hi - ranges[r].lo);
            expectIdentical(runner.runRange(config, ranges[r].lo,
                                            ranges[r].hi),
                            pass.results[r]);
        }
        EXPECT_EQ(finished, 2u);
        if (threads == 1) { // one worker starts ranges in order
            EXPECT_EQ(pass.rangeCalls,
                      (std::vector<unsigned>{1, 1, 0, 0}));
        }
    }
}

TEST(CampaignDeterminismTest, WorkerScoredFidelitiesMatchScoringAfterwards)
{
    // runCell scores each trial on the worker that ran it and drops
    // its output; scoring the kept outputs of the same cell afterwards
    // must give the same fidelity vector, bit for bit. mpeg's large
    // per-trial output makes it the workload that needs the drop.
    auto mpeg = workloads::createWorkload("mpeg", workloads::Scale::Test);
    constexpr unsigned ERRORS = 2, TRIALS = 24;
    core::StudyConfig config;
    config.threads = 4;
    core::ErrorToleranceStudy study(*mpeg, config);
    auto cell = study.runCell(ERRORS, fault::UNPROTECTED_POLICY, TRIALS);

    const auto &policy =
        fault::resolveInjectionPolicy(fault::UNPROTECTED_POLICY);
    CampaignRunner runner(
        mpeg->program(),
        policy.injectableBitmap(mpeg->program(),
                                study.protection().tagged),
        config.memoryModel, config.checkpointInterval,
        policy.resultKinds, policy.bitModel);
    CampaignConfig campaign;
    campaign.trials = TRIALS;
    campaign.errors = ERRORS;
    campaign.budgetFactor = config.budgetFactor;
    campaign.seed =
        config.seed ^ (uint64_t{ERRORS} << 32) ^ policy.seedSalt();
    auto result = runner.run(campaign);
    std::vector<workloads::FidelityScore> after;
    for (const auto &outcome : result.outcomes)
        if (outcome.run.completed())
            after.push_back(mpeg->scoreFidelity(runner.goldenOutput(),
                                                outcome.output));

    EXPECT_EQ(cell.completed, result.completed);
    ASSERT_EQ(cell.fidelities.size(), after.size());
    ASSERT_FALSE(after.empty());
    for (size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(cell.fidelities[i].value),
                  std::bit_cast<uint64_t>(after[i].value))
            << "fidelity " << i;
        EXPECT_EQ(cell.fidelities[i].acceptable, after[i].acceptable);
        EXPECT_EQ(cell.fidelities[i].unit, after[i].unit);
    }
}

// ---- the primitives the engine's contract rests on -----------------------

TEST(CampaignDeterminismTest, StreamRngIsAPureFunctionOfSeedAndIndex)
{
    Rng a = Rng::forStream(42, 7);
    Rng b = Rng::forStream(42, 7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.next64(), b.next64());

    // Adjacent streams and adjacent seeds must decorrelate.
    Rng c = Rng::forStream(42, 8);
    Rng d = Rng::forStream(43, 7);
    int sameC = 0, sameD = 0;
    Rng base = Rng::forStream(42, 7);
    for (int i = 0; i < 64; ++i) {
        uint64_t r = base.next64();
        if (r == c.next64())
            ++sameC;
        if (r == d.next64())
            ++sameD;
    }
    EXPECT_LT(sameC, 2);
    EXPECT_LT(sameD, 2);
}

TEST(CampaignDeterminismTest, TrialPoolCoversEveryIndexExactlyOnce)
{
    constexpr uint64_t TRIALS = 1000;
    std::vector<std::atomic<unsigned>> hits(TRIALS);
    unsigned workers = TrialPool::resolveWorkers(8, TRIALS);
    TrialPool::run(workers, TRIALS, [&](uint64_t t, unsigned w) {
        EXPECT_LT(w, workers);
        hits[t].fetch_add(1);
    });
    for (uint64_t t = 0; t < TRIALS; ++t)
        EXPECT_EQ(hits[t].load(), 1u) << "trial " << t;
}

TEST(CampaignDeterminismTest, TrialPoolPropagatesExceptions)
{
    EXPECT_THROW(TrialPool::run(4, 100,
                                [&](uint64_t t, unsigned) {
                                    if (t == 17)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
}

TEST(CampaignDeterminismTest, ResolveWorkersClamps)
{
    EXPECT_EQ(TrialPool::resolveWorkers(8, 3), 3u);
    EXPECT_EQ(TrialPool::resolveWorkers(1, 100), 1u);
    EXPECT_GE(TrialPool::resolveWorkers(0, 100), 1u);
    EXPECT_EQ(TrialPool::resolveWorkers(4, 0), 1u);
}

} // namespace
