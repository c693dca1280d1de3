/**
 * @file
 * Bit-identity contract of the static-prune fast path: campaign
 * results with pruning on are byte-identical to results with it off,
 * at every thread count and checkpoint setting, while a
 * nonzero fraction of trials is synthesized instead of simulated.
 * This is the same contract checkpointing keeps -- pruning is a pure
 * acceleration, never a result change.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/experiments.hh"
#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/injection.hh"
#include "fault/policy.hh"
#include "store/cell_key.hh"
#include "workloads/workload.hh"

#include "shard_slice.hh"

namespace {

using namespace etc;
using namespace etc::fault;

CampaignConfig
cellConfig(unsigned threads, unsigned errors)
{
    CampaignConfig config;
    config.trials = 48;
    config.errors = errors;
    config.seed = 0xd5eed;
    config.threads = threads;
    return config;
}

/** Everything observable must match; trialsPruned alone may differ. */
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

/** A runner pair (prune off / prune on) for one workload x policy. */
struct RunnerPair
{
    std::unique_ptr<workloads::Workload> workload;
    std::vector<bool> injectable;
    std::unique_ptr<CampaignRunner> off;
    std::unique_ptr<CampaignRunner> on;

    RunnerPair(const std::string &name, const std::string &policyName,
               uint64_t checkpointInterval =
                   CampaignRunner::DEFAULT_CHECKPOINT_INTERVAL)
    {
        workload =
            workloads::createWorkload(name, workloads::Scale::Test);
        injectable =
            injectableWithoutProtection(workload->program());
        const InjectionPolicy &policy =
            resolveInjectionPolicy(policyName);
        off = std::make_unique<CampaignRunner>(
            workload->program(), injectable, sim::MemoryModel::Lenient,
            checkpointInterval, policy.resultKinds, policy.bitModel,
            false);
        on = std::make_unique<CampaignRunner>(
            workload->program(), injectable, sim::MemoryModel::Lenient,
            checkpointInterval, policy.resultKinds, policy.bitModel,
            true);
    }
};

TEST(PruneDeterminismTest, BitIdenticalOnOffAcrossThreadCounts)
{
    // The ISSUE's acceptance sweep: prune {off, on} x threads {1, 4}
    // x two workloads, every cell byte-identical.
    for (const char *name : {"mpeg", "adpcm"}) {
        RunnerPair pair(name, UNPROTECTED_POLICY);
        auto baseline = pair.off->run(cellConfig(1, 1));
        EXPECT_EQ(baseline.trialsPruned, 0u) << name;
        for (unsigned threads : {1u, 4u}) {
            auto config = cellConfig(threads, 1);
            expectIdentical(baseline, pair.off->run(config));
            auto pruned = pair.on->run(config);
            expectIdentical(baseline, pruned);
            // The fast path must demonstrably fire: these cells skip
            // a nonzero fraction of their trials.
            EXPECT_GT(pruned.trialsPruned, 0u)
                << name << " threads=" << threads;
        }
    }
}

TEST(PruneDeterminismTest, BitIdenticalWithCheckpointingOff)
{
    // Pruning composes with the classic full-replay Injector path
    // (checkpoint interval 0) exactly as with fast-forwarding.
    RunnerPair pair("mpeg", UNPROTECTED_POLICY, 0);
    auto config = cellConfig(1, 1);
    auto off = pair.off->run(config);
    auto on = pair.on->run(config);
    expectIdentical(off, on);
    EXPECT_GT(on.trialsPruned, 0u);
}

TEST(PruneDeterminismTest, BitIdenticalUnderProtectedPolicy)
{
    // The protected policy restricts injectable sites; pruning must
    // stay result-invariant there too (whether or not it fires).
    RunnerPair pair("adpcm", PROTECTED_POLICY);
    auto config = cellConfig(4, 2);
    expectIdentical(pair.off->run(config), pair.on->run(config));
}

TEST(PruneDeterminismTest, MultiErrorPlansPruneOnlyWhenAllFlipsDead)
{
    // errors > 1: a plan is only synthesized when EVERY drawn flip
    // lands in dead bits, so the pruned count can only shrink as the
    // error count grows -- and identity still holds.
    RunnerPair pair("mpeg", UNPROTECTED_POLICY);
    auto one = pair.on->run(cellConfig(1, 1));
    auto three = pair.on->run(cellConfig(1, 3));
    expectIdentical(pair.off->run(cellConfig(1, 3)), three);
    EXPECT_GE(one.trialsPruned, three.trialsPruned);
}

TEST(PruneDeterminismTest, PrunableDynamicCountExposed)
{
    RunnerPair pair("mpeg", UNPROTECTED_POLICY);
    EXPECT_EQ(pair.off->prunableDynamicCount(), 0u);
    EXPECT_GT(pair.on->prunableDynamicCount(), 0u);
    EXPECT_LE(pair.on->prunableDynamicCount(),
              pair.on->injectableDynamicCount());
    EXPECT_TRUE(pair.on->staticPrune());
    EXPECT_FALSE(pair.off->staticPrune());
}

TEST(PruneDeterminismTest, ShardedRunsCarryPrunedCounts)
{
    // trialsPruned is an order-insensitive sum: shards of a cell sum
    // to the monolithic count, and each is its slice of the cell.
    RunnerPair pair("adpcm", UNPROTECTED_POLICY);
    auto config = cellConfig(2, 1);
    auto whole = pair.on->run(config);
    auto head = pair.on->runRange(config, 0, 20);
    auto tail = pair.on->runRange(config, 20, 48);
    expectShardIsSliceOf(whole, head);
    expectShardIsSliceOf(whole, tail);
    EXPECT_EQ(whole.trialsPruned, head.trialsPruned + tail.trialsPruned);
}

TEST(PruneDeterminismTest, StudyCellIdenticalWithPruneOn)
{
    // End-to-end through the study layer: summaries and per-trial
    // fidelity scores -- the figures' inputs -- are identical, with
    // the pruned count surfaced on the summary.
    auto workload = workloads::createWorkload("mpeg",
                                              workloads::Scale::Test);
    core::StudyConfig offConfig;
    offConfig.trials = 32;
    core::StudyConfig onConfig = offConfig;
    onConfig.staticPrune = true;
    onConfig.threads = 4;

    core::ErrorToleranceStudy off(*workload, offConfig);
    core::ErrorToleranceStudy on(*workload, onConfig);
    auto a = off.runCell(1, fault::UNPROTECTED_POLICY);
    auto b = on.runCell(1, fault::UNPROTECTED_POLICY);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.trialsPruned, 0u);
    EXPECT_GT(b.trialsPruned, 0u);
    ASSERT_EQ(a.fidelities.size(), b.fidelities.size());
    for (size_t i = 0; i < a.fidelities.size(); ++i)
        EXPECT_DOUBLE_EQ(a.fidelities[i].value, b.fidelities[i].value);
}

TEST(PruneDeterminismTest, Fig5CellsIdenticalWithPruneOn)
{
    // Every cell of fig5 at 50 trials, through the study layer: each
    // summary matches with pruning off, fidelity bits included, and
    // the sweep prunes some trials.
    const bench::Experiment *exp = bench::findExperiment("fig5");
    ASSERT_NE(exp, nullptr);
    bench::BenchOptions opts;
    opts.threads = 2;
    core::StudyConfig offConfig = bench::makeStudyConfig(*exp, opts);
    core::StudyConfig onConfig = offConfig;
    onConfig.staticPrune = true;
    auto workload = workloads::createWorkload(exp->workload, exp->scale);
    core::ErrorToleranceStudy off(*workload, offConfig);
    core::ErrorToleranceStudy on(*workload, onConfig);

    uint64_t pruned = 0;
    for (const auto &[errors, policy] : bench::experimentCells(*exp)) {
        SCOPED_TRACE(policy + " errors=" + std::to_string(errors));
        auto a = off.runCell(errors, policy, 50);
        auto b = on.runCell(errors, policy, 50);
        EXPECT_EQ(a.trials, b.trials);
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.crashed, b.crashed);
        EXPECT_EQ(a.timedOut, b.timedOut);
        EXPECT_EQ(a.totalInstructions, b.totalInstructions);
        EXPECT_EQ(a.trialsPruned, 0u);
        ASSERT_EQ(a.fidelities.size(), b.fidelities.size());
        for (size_t i = 0; i < a.fidelities.size(); ++i) {
            EXPECT_EQ(store::doubleBits(a.fidelities[i].value),
                      store::doubleBits(b.fidelities[i].value))
                << "fidelity " << i;
            EXPECT_EQ(a.fidelities[i].acceptable,
                      b.fidelities[i].acceptable);
        }
        pruned += b.trialsPruned;
    }
    EXPECT_GT(pruned, 0u);
}

} // namespace
