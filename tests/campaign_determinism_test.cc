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
#include <stdexcept>
#include <vector>

#include "asm/builder.hh"
#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/injection.hh"
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
