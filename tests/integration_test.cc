/**
 * @file
 * Cross-module integration tests: bench-scale golden equivalence for
 * every workload, exhaustive single-bit injection on a known value
 * chain, assembler/builder equivalence, and end-to-end study
 * properties across all seven applications.
 */

#include <gtest/gtest.h>

#include "analysis/control_protection.hh"
#include "asm/assembler.hh"
#include "asm/builder.hh"
#include "isa/encoding.hh"
#include "core/study.hh"
#include "fault/campaign.hh"
#include "sim/profiler.hh"
#include "sim/simulator.hh"
#include "workloads/adpcm.hh"
#include "workloads/art.hh"
#include "workloads/blowfish.hh"
#include "workloads/gsm.hh"
#include "workloads/mcf.hh"
#include "workloads/mpeg.hh"
#include "workloads/susan.hh"

namespace {

using namespace etc;
using namespace etc::isa;
using namespace etc::assembly;

// ---- bench-scale golden equivalence (the paper-scale programs) ---------------

TEST(BenchScaleTest, SusanMatchesReference)
{
    workloads::SusanWorkload w(
        workloads::SusanWorkload::scaled(workloads::Scale::Bench));
    sim::Simulator sim(w.program());
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.output(), w.referenceOutput());
}

TEST(BenchScaleTest, AdpcmMatchesReference)
{
    workloads::AdpcmWorkload w(
        workloads::AdpcmWorkload::scaled(workloads::Scale::Bench));
    sim::Simulator sim(w.program());
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.output(), w.referenceOutput());
}

TEST(BenchScaleTest, BlowfishMatchesReference)
{
    workloads::BlowfishWorkload w(
        workloads::BlowfishWorkload::scaled(workloads::Scale::Bench));
    sim::Simulator sim(w.program());
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.output(), w.referenceOutput());
}

TEST(BenchScaleTest, GsmMatchesReference)
{
    workloads::GsmWorkload w(
        workloads::GsmWorkload::scaled(workloads::Scale::Bench));
    sim::Simulator sim(w.program());
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.output(), w.referenceOutput());
}

TEST(BenchScaleTest, MpegMatchesReference)
{
    workloads::MpegWorkload w(
        workloads::MpegWorkload::scaled(workloads::Scale::Bench));
    sim::Simulator sim(w.program());
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.output(), w.referenceOutput());
}

TEST(BenchScaleTest, McfSolvesToOptimum)
{
    workloads::McfWorkload w(
        workloads::McfWorkload::scaled(workloads::Scale::Bench));
    sim::Simulator sim(w.program());
    ASSERT_TRUE(sim.run().completed());
    auto solution = w.parseSolution(sim.output());
    auto [flow, cost] = w.referenceOptimum();
    EXPECT_EQ(solution.flow, flow);
    EXPECT_EQ(solution.cost, cost);
    EXPECT_TRUE(w.feasible(solution));
}

TEST(BenchScaleTest, ArtMatchesReference)
{
    workloads::ArtWorkload w(
        workloads::ArtWorkload::scaled(workloads::Scale::Bench));
    sim::Simulator sim(w.program());
    ASSERT_TRUE(sim.run().completed());
    auto got = w.parseRecognition(sim.output());
    auto ref = w.referenceRecognition();
    EXPECT_EQ(got.bestWindow, ref.bestWindow);
    EXPECT_EQ(got.bestTemplate, ref.bestTemplate);
    EXPECT_NEAR(got.confidence, ref.confidence, 1e-4);
}

// ---- exhaustive single-bit injection -------------------------------------------

/**
 * Inject every bit position into the same dynamic site of a known
 * value chain and verify the output shifts by exactly that bit --
 * i.e., the injector corrupts precisely what it claims to.
 */
class BitSweepTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    static Program
    makeProgram()
    {
        ProgramBuilder b;
        b.beginFunction("main");
        b.li(REG_T0, 0);           // 0 (injected here, site 0)
        b.outw(REG_T0);            // 1
        b.halt();                  // 2
        b.endFunction();
        return b.finish();
    }
};

TEST_P(BitSweepTest, OutputFlipsExactlyThatBit)
{
    unsigned bit = GetParam();
    auto prog = makeProgram();
    std::vector<bool> injectable(prog.size(), false);
    injectable[0] = true;

    fault::InjectionPlan plan;
    plan.sites = {0};
    plan.masks = {uint32_t{1} << bit};
    fault::Injector injector(injectable, plan);
    sim::Simulator sim(prog);
    ASSERT_TRUE(sim.run(0, &injector).completed());
    ASSERT_EQ(injector.injectedCount(), 1u);
    uint32_t word = 0;
    for (int i = 0; i < 4; ++i)
        word |= static_cast<uint32_t>(sim.output()[i]) << (8 * i);
    EXPECT_EQ(word, uint32_t{1} << bit);
}

INSTANTIATE_TEST_SUITE_P(AllBits, BitSweepTest,
                         ::testing::Range(0u, 32u));

// ---- assembler/builder equivalence -----------------------------------------------

TEST(EquivalenceTest, AssemblerAndBuilderProduceSamePrograms)
{
    // The same loop written both ways must produce instruction-
    // identical programs (and therefore identical analyses and runs).
    auto fromText = assemble(R"(
        .data
        tbl:    .word 3, 1, 4, 1, 5
        .text
        .func main
        main:   la   $t0, tbl
                addi $t1, $t0, 20
                li   $t2, 0
        loop:   lw   $t3, 0($t0)
                add  $t2, $t2, $t3
                addi $t0, $t0, 4
                blt  $t0, $t1, loop
                outw $t2
                halt
        .endfunc
    )");

    ProgramBuilder b;
    b.dataWords("tbl", {3, 1, 4, 1, 5});
    b.beginFunction("main");
    auto loop = b.newLabel();
    b.la(REG_T0, "tbl");
    b.addi(REG_T1, REG_T0, 20);
    b.li(REG_T2, 0);
    b.bind(loop);
    b.lw(REG_T3, 0, REG_T0);
    b.add(REG_T2, REG_T2, REG_T3);
    b.addi(REG_T0, REG_T0, 4);
    b.blt(REG_T0, REG_T1, loop);
    b.outw(REG_T2);
    b.halt();
    b.endFunction();
    auto fromBuilder = b.finish();

    ASSERT_EQ(fromText.code.size(), fromBuilder.code.size());
    for (size_t i = 0; i < fromText.code.size(); ++i)
        EXPECT_EQ(fromText.code[i], fromBuilder.code[i]) << "at " << i;

    sim::Simulator a(fromText), c(fromBuilder);
    ASSERT_TRUE(a.run().completed());
    ASSERT_TRUE(c.run().completed());
    EXPECT_EQ(a.output(), c.output());

    auto analysisA = analysis::computeControlProtection(
        fromText, analysis::ProtectionConfig{});
    auto analysisC = analysis::computeControlProtection(
        fromBuilder, analysis::ProtectionConfig{});
    EXPECT_EQ(analysisA.tagged, analysisC.tagged);
}

// ---- study properties across all workloads ----------------------------------------

class AllStudiesTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllStudiesTest, ZeroErrorsIsAlwaysGolden)
{
    auto workload =
        workloads::createWorkload(GetParam(), workloads::Scale::Test);
    core::StudyConfig config;
    config.trials = 5;
    core::ErrorToleranceStudy study(*workload, config);
    for (const char *policy :
         {fault::PROTECTED_POLICY, fault::UNPROTECTED_POLICY}) {
        auto cell = study.runCell(0, policy);
        EXPECT_EQ(cell.completed, cell.trials) << GetParam();
        EXPECT_EQ(cell.acceptableRate(), 1.0) << GetParam();
    }
}

TEST_P(AllStudiesTest, ProtectionNeverHurts)
{
    auto workload =
        workloads::createWorkload(GetParam(), workloads::Scale::Test);
    core::StudyConfig config;
    config.trials = 15;
    core::ErrorToleranceStudy study(*workload, config);
    auto prot = study.runCell(10, fault::PROTECTED_POLICY);
    auto unprot = study.runCell(10, fault::UNPROTECTED_POLICY);
    // With 15 seeded trials the protected failure rate never exceeds
    // the unprotected one on any workload (deterministic by seed).
    EXPECT_LE(prot.failureRate(), unprot.failureRate()) << GetParam();
}

TEST_P(AllStudiesTest, TaggedDynamicNeverExceedsDefBearing)
{
    auto workload =
        workloads::createWorkload(GetParam(), workloads::Scale::Test);
    core::StudyConfig config;
    core::ErrorToleranceStudy study(*workload, config);
    const auto &profile = study.profile();
    EXPECT_LE(profile.tagged, profile.defBearing) << GetParam();
    EXPECT_LE(profile.defBearing, profile.total) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllSeven, AllStudiesTest,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---- binary round-trip execution equivalence ----------------------------------------

TEST(EquivalenceTest, EncodedProgramsExecuteIdentically)
{
    // Encoding every instruction to its 64-bit form and decoding it
    // back must preserve execution exactly -- for every workload.
    for (const auto &name : workloads::workloadNames()) {
        auto workload =
            workloads::createWorkload(name, workloads::Scale::Test);
        assembly::Program decoded = workload->program();
        for (auto &ins : decoded.code) {
            auto roundTripped = isa::decode(isa::encode(ins));
            ASSERT_TRUE(roundTripped.has_value()) << name;
            ins = *roundTripped;
        }
        decoded.validate();
        sim::Simulator original(workload->program());
        sim::Simulator rebuilt(decoded);
        ASSERT_TRUE(original.run().completed()) << name;
        ASSERT_TRUE(rebuilt.run().completed()) << name;
        EXPECT_EQ(original.output(), rebuilt.output()) << name;
    }
}

// ---- campaign vs. paper-style two-pass consistency --------------------------------

TEST(ConsistencyTest, InjectableDynamicCountMatchesProfiler)
{
    auto workload =
        workloads::createWorkload("susan", workloads::Scale::Test);
    auto protection = analysis::computeControlProtection(
        workload->program(), [&] {
            analysis::ProtectionConfig c;
            c.eligibleFunctions = workload->eligibleFunctions();
            return c;
        }());
    fault::CampaignRunner runner(
        workload->program(),
        fault::injectableWithProtection(workload->program(),
                                        protection.tagged));
    sim::Simulator sim(workload->program());
    sim::Profiler profiler(protection.tagged);
    ASSERT_TRUE(sim.run(0, &profiler).completed());
    EXPECT_EQ(runner.injectableDynamicCount(),
              profiler.profile().tagged);
    EXPECT_EQ(runner.goldenOutput(), sim.output());
}

TEST(ConsistencyTest, StrictAndLenientAgreeOnCleanRuns)
{
    // Without faults, the memory model must not change behaviour: the
    // workloads never access out-of-region memory themselves.
    for (const auto &name : workloads::workloadNames()) {
        auto workload =
            workloads::createWorkload(name, workloads::Scale::Test);
        sim::Simulator lenient(workload->program(),
                               sim::MemoryModel::Lenient);
        sim::Simulator strict(workload->program(),
                              sim::MemoryModel::Strict);
        ASSERT_TRUE(lenient.run().completed()) << name;
        ASSERT_TRUE(strict.run().completed()) << name;
        EXPECT_EQ(lenient.output(), strict.output()) << name;
    }
}

} // namespace
