/**
 * @file
 * Tests for the fault-injection layer: injectable sets, plan sampling,
 * the injector hook, and campaign mechanics (determinism, outcome
 * classification).
 */

#include <gtest/gtest.h>

#include "analysis/control_protection.hh"
#include "asm/builder.hh"
#include "fault/campaign.hh"
#include "fault/injection.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"

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
    b.la(REG_T0, "tbl");              // 0
    b.addi(REG_T1, REG_T0, 32);       // 1: end pointer
    b.li(REG_T2, 0);                  // 2: sum (data)
    b.bind(loop);
    b.lw(REG_T3, 0, REG_T0);          // 3
    b.add(REG_T2, REG_T2, REG_T3);    // 4: data accumulate
    b.addi(REG_T0, REG_T0, 4);        // 5: induction
    b.blt(REG_T0, REG_T1, loop);      // 6,7 (slt + bne)
    b.outw(REG_T2);                   // 8
    b.halt();                         // 9
    b.endFunction();
    return b.finish();
}

// ---- injectable sets -----------------------------------------------------

TEST(InjectableTest, ProtectedSetEqualsTags)
{
    auto prog = sumProgram();
    auto protection =
        analysis::computeControlProtection(prog,
                                           analysis::ProtectionConfig{});
    auto injectable = injectableWithProtection(prog, protection.tagged);
    ASSERT_EQ(injectable.size(), prog.size());
    for (uint32_t i = 0; i < prog.size(); ++i) {
        EXPECT_EQ(injectable[i], static_cast<bool>(protection.tagged[i]))
            << "instruction " << i;
        if (injectable[i]) {
            EXPECT_TRUE(prog.code[i].def().has_value());
        }
    }
}

TEST(InjectableTest, UnprotectedSetCoversAllResults)
{
    auto prog = sumProgram();
    auto injectable = injectableWithoutProtection(prog);
    for (uint32_t i = 0; i < prog.size(); ++i) {
        const auto &ins = prog.code[i];
        bool expected = ins.def().has_value() || ins.isStore() ||
                        ins.isControl();
        EXPECT_EQ(injectable[i], expected) << ins.toString();
    }
    // The halt is not injectable; the branch is.
    EXPECT_FALSE(injectable[9]);
    EXPECT_TRUE(injectable[7]);
}

TEST(InjectableTest, SizeMismatchPanics)
{
    auto prog = sumProgram();
    std::vector<bool> wrong(3, true);
    EXPECT_THROW(injectableWithProtection(prog, wrong), PanicError);
}

// ---- plan sampling -----------------------------------------------------------

TEST(PlanTest, SamplesWithinStream)
{
    Rng rng(5);
    auto plan = samplePlan(1000, 10, BitErrorModel{}, rng);
    EXPECT_EQ(plan.size(), 10u);
    EXPECT_TRUE(std::is_sorted(plan.sites.begin(), plan.sites.end()));
    for (uint64_t site : plan.sites)
        EXPECT_LT(site, 1000u);
    for (uint32_t mask : plan.masks) {
        EXPECT_NE(mask, 0u);
        // Single-flip model: every mask is one-hot.
        EXPECT_EQ(mask & (mask - 1), 0u);
    }
}

TEST(PlanTest, MoreErrorsThanStreamClamps)
{
    Rng rng(5);
    auto plan = samplePlan(4, 100, BitErrorModel{}, rng);
    EXPECT_EQ(plan.size(), 4u);
}

TEST(PlanTest, DeterministicBySeed)
{
    Rng a(77), b(77);
    auto planA = samplePlan(5000, 25, BitErrorModel{}, a);
    auto planB = samplePlan(5000, 25, BitErrorModel{}, b);
    EXPECT_EQ(planA.sites, planB.sites);
    EXPECT_EQ(planA.masks, planB.masks);
}

// ---- injector ------------------------------------------------------------------

TEST(PlanTest, BurstPlanIsPinned)
{
    // Literal sites and masks of a burst-model plan (3 adjacent bits
    // in [4, 20), wrapping inside the range), so a sampler change that
    // moves a draw fails here.
    BitErrorModel burst;
    burst.kind = BitErrorModel::Kind::Burst;
    burst.lo = 4;
    burst.hi = 20;
    burst.burst = 3;
    Rng rng = Rng::forStream(0x6a76, 7);
    auto plan = samplePlan(1000, 6, burst, rng);
    EXPECT_EQ(plan.sites,
              (std::vector<uint64_t>{421, 460, 495, 683, 948, 955}));
    EXPECT_EQ(plan.masks,
              (std::vector<uint32_t>{0x1c0, 0x38000, 0x1c00, 0x1c000,
                                     0x38000, 0x80030}));
    EXPECT_EQ(rng.next64(), 0x9b00ee2826301a39ull);
}

TEST(InjectorTest, FlipsExactlyPlannedSites)
{
    auto prog = sumProgram();
    // Only instruction 4 (the accumulate) is injectable.
    std::vector<bool> injectable(prog.size(), false);
    injectable[4] = true;

    // Flip bit 0 of the 2nd dynamic execution of instruction 4.
    InjectionPlan plan;
    plan.sites = {1};
    plan.masks = {1u << 0};
    Injector injector(injectable, plan);

    sim::Simulator sim(prog);
    auto result = sim.run(0, &injector);
    ASSERT_TRUE(result.completed());
    EXPECT_EQ(injector.injectedCount(), 1u);
    EXPECT_EQ(injector.injectableRetired(), 8u); // 8 loop iterations

    // Golden sum = 36. After the 2nd accumulate the sum was 3 -> 2
    // (bit 0 flip), so the final total is 35.
    auto words = sim.output();
    ASSERT_EQ(words.size(), 4u);
    uint32_t total = words[0] | (words[1] << 8) | (words[2] << 16) |
                     (words[3] << 24);
    EXPECT_EQ(total, 35u);
}

TEST(InjectorTest, NoSitesMeansGoldenRun)
{
    auto prog = sumProgram();
    auto injectable = injectableWithoutProtection(prog);
    Injector injector(injectable, InjectionPlan{});
    sim::Simulator sim(prog);
    ASSERT_TRUE(sim.run(0, &injector).completed());
    EXPECT_EQ(injector.injectedCount(), 0u);

    sim::Simulator golden(prog);
    ASSERT_TRUE(golden.run().completed());
    EXPECT_EQ(sim.output(), golden.output());
}

TEST(InjectorTest, PcFlipOnBranchDisturbsControl)
{
    auto prog = sumProgram();
    std::vector<bool> injectable(prog.size(), false);
    injectable[7] = true; // the bne

    InjectionPlan plan;
    plan.sites = {0};
    plan.masks = {1u << 20}; // high bit -> wild PC
    Injector injector(injectable, plan);
    sim::Simulator sim(prog);
    auto result = sim.run(10000, &injector);
    EXPECT_EQ(injector.injectedCount(), 1u);
    EXPECT_EQ(result.status, sim::RunStatus::BadJump);
}

TEST(InjectorTest, StoreFlipCorruptsMemory)
{
    ProgramBuilder b;
    b.dataWords("slot", {0});
    b.beginFunction("main");
    b.li(REG_T0, 0x10);               // 0
    b.la(REG_T9, "slot");             // 1
    b.sw(REG_T0, 0, REG_T9);          // 2: injectable store
    b.lw(REG_T1, 0, REG_T9);          // 3
    b.outw(REG_T1);                   // 4
    b.halt();                         // 5
    b.endFunction();
    auto prog = b.finish();

    std::vector<bool> injectable(prog.size(), false);
    injectable[2] = true;
    InjectionPlan plan;
    plan.sites = {0};
    plan.masks = {1u << 0};
    Injector injector(injectable, plan);
    sim::Simulator sim(prog);
    ASSERT_TRUE(sim.run(0, &injector).completed());
    EXPECT_EQ(injector.injectedCount(), 1u);
    EXPECT_EQ(sim.output()[0], 0x11); // 0x10 with bit 0 flipped
}

// ---- campaign -------------------------------------------------------------------

TEST(CampaignTest, GoldenRunRecorded)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    EXPECT_GT(runner.goldenInstructions(), 0u);
    EXPECT_GT(runner.injectableDynamicCount(), 0u);
    EXPECT_EQ(runner.goldenOutput().size(), 4u);
}

TEST(CampaignTest, ZeroErrorsAllComplete)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    CampaignConfig config;
    config.trials = 10;
    config.errors = 0;
    auto result = runner.run(config);
    EXPECT_EQ(result.completed, 10u);
    EXPECT_EQ(result.failureRate(), 0.0);
    for (const auto &outcome : result.outcomes)
        EXPECT_EQ(outcome.output, runner.goldenOutput());
}

TEST(CampaignTest, DeterministicBySeed)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    CampaignConfig config;
    config.trials = 16;
    config.errors = 3;
    config.seed = 99;
    auto a = runner.run(config);
    auto b = runner.run(config);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].run.status, b.outcomes[i].run.status);
        EXPECT_EQ(a.outcomes[i].output, b.outcomes[i].output);
        EXPECT_EQ(a.outcomes[i].injected, b.outcomes[i].injected);
    }
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
}

TEST(CampaignTest, DifferentSeedsDiffer)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    CampaignConfig config;
    config.trials = 20;
    config.errors = 2;
    config.seed = 1;
    auto a = runner.run(config);
    config.seed = 2;
    auto b = runner.run(config);
    bool anyDifferent = false;
    for (size_t i = 0; i < a.outcomes.size(); ++i)
        if (a.outcomes[i].output != b.outcomes[i].output ||
            a.outcomes[i].run.status != b.outcomes[i].run.status)
            anyDifferent = true;
    EXPECT_TRUE(anyDifferent);
}

TEST(CampaignTest, ClassificationBuckets)
{
    auto prog = sumProgram();
    CampaignRunner runner(prog, injectableWithoutProtection(prog));
    CampaignConfig config;
    config.trials = 40;
    config.errors = 4;
    auto result = runner.run(config);
    EXPECT_EQ(result.completed + result.crashed + result.timedOut,
              result.trials);
    EXPECT_EQ(result.outcomes.size(), result.trials);
    // Only completed trials carry output.
    for (const auto &outcome : result.outcomes) {
        if (!outcome.run.completed()) {
            EXPECT_TRUE(outcome.output.empty());
        }
    }
}

TEST(CampaignTest, BitmapSizeMismatchPanics)
{
    auto prog = sumProgram();
    EXPECT_THROW(CampaignRunner(prog, std::vector<bool>(2, true)),
                 PanicError);
}

} // namespace
