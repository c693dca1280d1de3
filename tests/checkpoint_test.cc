/**
 * @file
 * The checkpointing + trial fast-forwarding subsystem:
 *
 *  - Memory's dirty-page tracking and page snapshot interface;
 *  - CheckpointStore capture/restore round-trips (a run resumed from
 *    any checkpoint finishes bit-identically to the golden run);
 *  - dirty-delta correctness (each checkpoint sees the *latest* page
 *    contents at its capture point, not stale or future ones);
 *  - the campaign-equivalence contract: CampaignResults are
 *    bit-identical with checkpointing on vs. off, at 1/4/all threads,
 *    on two real workloads.
 */

#include <gtest/gtest.h>

#include <vector>

#include "asm/builder.hh"
#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/injection.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace {

using namespace etc;
using namespace etc::isa;
using namespace etc::assembly;
using namespace etc::fault;
using namespace etc::sim;

/**
 * A loop with memory traffic: repeatedly rewrites a counter cell and a
 * running sum, streaming partial sums, so consecutive checkpoint
 * intervals keep dirtying the same pages with different values.
 */
Program
accumulateProgram(uint32_t rounds)
{
    ProgramBuilder b;
    b.dataWords("count", {0});
    b.dataWords("sum", {0});
    b.beginFunction("main");
    auto loop = b.newLabel();
    b.la(REG_T0, "count");
    b.la(REG_T1, "sum");
    b.li(REG_T2, static_cast<int32_t>(rounds));
    b.bind(loop);
    b.lw(REG_T3, 0, REG_T0);
    b.addi(REG_T3, REG_T3, 1);
    b.sw(REG_T3, 0, REG_T0);
    b.lw(REG_T4, 0, REG_T1);
    b.add(REG_T4, REG_T4, REG_T3);
    b.sw(REG_T4, 0, REG_T1);
    b.outw(REG_T4);
    b.blt(REG_T3, REG_T2, loop);
    b.halt();
    b.endFunction();
    return b.finish();
}

// ---- Memory dirty tracking -------------------------------------------------

TEST(CheckpointTest, DirtyTrackingRecordsWritesNotReads)
{
    Memory mem(DATA_BASE, DATA_BASE + 64);
    mem.resetDirtyTracking();
    uint32_t value = 0;
    ASSERT_EQ(mem.read(DATA_BASE, value), MemStatus::Ok);
    EXPECT_TRUE(mem.drainDirtyPages().empty())
        << "reads must not dirty pages";

    ASSERT_EQ(mem.write(DATA_BASE, uint32_t{42}), MemStatus::Ok);
    ASSERT_EQ(mem.write(STACK_TOP - 8, uint8_t{7}), MemStatus::Ok);
    auto dirty = mem.drainDirtyPages();
    ASSERT_EQ(dirty.size(), 2u);
    EXPECT_EQ(dirty[0], DATA_BASE >> Memory::PAGE_BITS);
    EXPECT_EQ(dirty[1], (STACK_TOP - 8) >> Memory::PAGE_BITS);
    EXPECT_TRUE(mem.drainDirtyPages().empty()) << "drain must clear";
}

TEST(CheckpointTest, ClearReusesPagesAndZeroes)
{
    Memory mem(DATA_BASE, DATA_BASE + 64);
    ASSERT_EQ(mem.write(DATA_BASE + 8, uint32_t{0xdeadbeef}), MemStatus::Ok);
    const uint8_t *before = mem.pageData(DATA_BASE >> Memory::PAGE_BITS);
    ASSERT_NE(before, nullptr);
    mem.clear();
    const uint8_t *after = mem.pageData(DATA_BASE >> Memory::PAGE_BITS);
    EXPECT_EQ(before, after) << "clear() must reuse the allocation";
    EXPECT_EQ(mem.hostRead32(DATA_BASE + 8), 0u);
    EXPECT_TRUE(mem.drainDirtyPages().empty());
}

TEST(CheckpointTest, SetPageRoundTrip)
{
    Memory mem(DATA_BASE, DATA_BASE + 64);
    std::vector<uint8_t> page(Memory::PAGE_SIZE);
    for (size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<uint8_t>(i * 7);
    mem.setPage(DATA_BASE >> Memory::PAGE_BITS, page.data());
    EXPECT_EQ(mem.hostReadBlock(DATA_BASE, Memory::PAGE_SIZE), page);
    EXPECT_EQ(mem.pageData(0), nullptr) << "page outside both segments";
}

// ---- snapshot / restore round-trip ----------------------------------------

TEST(CheckpointTest, ResumedRunsFinishBitIdenticallyFromEveryCheckpoint)
{
    auto prog = accumulateProgram(200);
    auto injectable = injectableWithoutProtection(prog);

    Simulator golden(prog);
    CheckpointStore store;
    golden.memory().resetDirtyTracking();
    CheckpointRecorder recorder(injectable, 64, golden, store);
    auto goldenRun = golden.run(0, &recorder);
    ASSERT_TRUE(goldenRun.completed());
    ASSERT_GT(store.size(), 3u) << "interval too coarse for this test";

    Simulator resumed(prog);
    StraightRuns runs(prog, injectable);
    for (size_t i = 0; i < store.size(); ++i) {
        const Checkpoint &ckpt = store[i];
        resumed.restoreFrom(ckpt, golden.output());
        auto tail = resumed.runUntilInjectable(0, runs, 0,
                                               ckpt.instructions);
        EXPECT_EQ(tail.status, RunStatus::Completed) << "checkpoint " << i;
        EXPECT_EQ(tail.instructions, goldenRun.instructions)
            << "checkpoint " << i;
        EXPECT_EQ(resumed.output(), golden.output()) << "checkpoint " << i;
    }
}

TEST(CheckpointTest, RestoreReproducesRegistersAndMemoryExactly)
{
    auto prog = accumulateProgram(150);
    auto injectable = injectableWithoutProtection(prog);

    Simulator golden(prog);
    CheckpointStore store;
    golden.memory().resetDirtyTracking();
    CheckpointRecorder recorder(injectable, 128, golden, store);
    ASSERT_TRUE(golden.run(0, &recorder).completed());
    ASSERT_GT(store.size(), 1u);

    // Re-execute the prefix instruction-by-instruction on a fresh
    // simulator and compare full state against each restore.
    for (size_t i = 0; i < store.size(); ++i) {
        const Checkpoint &ckpt = store[i];
        Simulator replay(prog);
        auto prefix = replay.run(ckpt.instructions);
        ASSERT_EQ(prefix.status, RunStatus::Timeout)
            << "prefix replay should stop at the budget";
        ASSERT_EQ(prefix.instructions, ckpt.instructions);

        Simulator restored(prog);
        restored.restoreFrom(ckpt, golden.output());
        EXPECT_TRUE(restored.machine() == replay.machine())
            << "checkpoint " << i;
        EXPECT_EQ(restored.output().size(), ckpt.outputLength);
        EXPECT_EQ(restored.memory().hostRead32(prog.dataAddress("count")),
                  replay.memory().hostRead32(prog.dataAddress("count")))
            << "checkpoint " << i;
        EXPECT_EQ(restored.memory().hostRead32(prog.dataAddress("sum")),
                  replay.memory().hostRead32(prog.dataAddress("sum")))
            << "checkpoint " << i;
    }
}

TEST(CheckpointTest, DirtyDeltasKeepPerCheckpointContents)
{
    // The counter cell is rewritten every iteration, so every capture
    // re-snapshots the same page; each checkpoint must hold the value
    // as of *its* capture point, strictly increasing across
    // checkpoints.
    auto prog = accumulateProgram(300);
    auto injectable = injectableWithoutProtection(prog);

    Simulator golden(prog);
    CheckpointStore store;
    golden.memory().resetDirtyTracking();
    CheckpointRecorder recorder(injectable, 96, golden, store);
    ASSERT_TRUE(golden.run(0, &recorder).completed());
    ASSERT_GT(store.size(), 2u);

    Simulator restored(prog);
    uint32_t previous = 0;
    for (size_t i = 0; i < store.size(); ++i) {
        restored.restoreFrom(store[i], golden.output());
        uint32_t count =
            restored.memory().hostRead32(prog.dataAddress("count"));
        EXPECT_GT(count, previous) << "checkpoint " << i;
        previous = count;
    }
}

TEST(CheckpointTest, FindForInjectablePicksLatestEligible)
{
    auto prog = accumulateProgram(400);
    auto injectable = injectableWithoutProtection(prog);

    Simulator golden(prog);
    CheckpointStore store;
    golden.memory().resetDirtyTracking();
    CheckpointRecorder recorder(injectable, 64, golden, store);
    ASSERT_TRUE(golden.run(0, &recorder).completed());
    ASSERT_GT(store.size(), 2u);

    EXPECT_EQ(store.findForInjectable(0), nullptr)
        << "site before the first checkpoint";
    for (size_t i = 0; i + 1 < store.size(); ++i) {
        // A site exactly at checkpoint i's count must pick i, not i+1.
        const Checkpoint *hit =
            store.findForInjectable(store[i].injectableRetired);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->injectableRetired, store[i].injectableRetired);
        EXPECT_GE(hit->instructions, store[i].instructions);
    }
    const Checkpoint *last = store.findForInjectable(~uint64_t{0});
    ASSERT_NE(last, nullptr);
    EXPECT_EQ(last->instructions, store[store.size() - 1].instructions);
}

// ---- campaign equivalence: checkpointing on vs. off ------------------------

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

class CampaignEquivalenceTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CampaignEquivalenceTest, BitIdenticalWithCheckpointingOnOrOff)
{
    auto workload = workloads::createWorkload(GetParam(),
                                              workloads::Scale::Test);
    const auto &prog = workload->program();
    auto injectable = injectableWithoutProtection(prog);

    // Off: the classic full-replay Injector-hook path. On: a fine
    // interval so trials genuinely restore mid-run checkpoints.
    CampaignRunner fullReplay(prog, injectable, MemoryModel::Lenient, 0);
    CampaignRunner fastForward(prog, injectable, MemoryModel::Lenient,
                               512);
    ASSERT_GT(fastForward.checkpointCount(), 0u)
        << "interval too coarse: trials would never fast-forward";
    ASSERT_EQ(fullReplay.injectableDynamicCount(),
              fastForward.injectableDynamicCount());
    ASSERT_EQ(fullReplay.goldenOutput(), fastForward.goldenOutput());

    CampaignConfig config;
    config.trials = 32;
    config.seed = 0xc4e2;
    // errors == 0 exercises the jump-to-last-checkpoint path; 0
    // threads = all cores: equivalence must hold at every thread count.
    for (unsigned errors : {0u, 3u}) {
        config.errors = errors;
        for (unsigned threads : {1u, 4u, 0u}) {
            config.threads = threads;
            expectIdentical(fullReplay.run(config),
                            fastForward.run(config));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(TwoWorkloads, CampaignEquivalenceTest,
                         ::testing::Values("adpcm", "gsm"));

TEST(CheckpointTest, StudyCellsIdenticalWithCheckpointingOnOrOff)
{
    auto workload = workloads::createWorkload("adpcm",
                                              workloads::Scale::Test);
    core::StudyConfig off;
    off.trials = 12;
    off.checkpointInterval = 0;
    core::StudyConfig on = off;
    on.checkpointInterval = 256;

    core::ErrorToleranceStudy offStudy(*workload, off);
    core::ErrorToleranceStudy onStudy(*workload, on);
    for (const char *policy : {PROTECTED_POLICY, UNPROTECTED_POLICY}) {
        auto a = offStudy.runCell(4, policy);
        auto b = onStudy.runCell(4, policy);
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.crashed, b.crashed);
        EXPECT_EQ(a.timedOut, b.timedOut);
        EXPECT_EQ(a.totalInstructions, b.totalInstructions);
        ASSERT_EQ(a.fidelities.size(), b.fidelities.size());
        for (size_t i = 0; i < a.fidelities.size(); ++i)
            EXPECT_DOUBLE_EQ(a.fidelities[i].value, b.fidelities[i].value);
    }
}

} // namespace
