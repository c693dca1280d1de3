/**
 * @file
 * Integration tests for the full pipeline (ErrorToleranceStudy):
 * analysis -> profile -> campaigns -> fidelity, plus the paper's
 * headline qualitative results on small-scale workloads.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "asm/builder.hh"
#include "core/study.hh"
#include "store/cell_key.hh"
#include "store/result_store.hh"
#include "support/logging.hh"

namespace {

using namespace etc;
using namespace etc::core;
using workloads::Scale;
using workloads::createWorkload;

StudyConfig
quickConfig(unsigned trials = 10)
{
    StudyConfig config;
    config.trials = trials;
    config.seed = 0xfeed;
    return config;
}

TEST(StudyTest, ProfilesAtConstruction)
{
    auto workload = createWorkload("susan", Scale::Test);
    ErrorToleranceStudy study(*workload, quickConfig());
    EXPECT_GT(study.profile().total, 0u);
    EXPECT_GT(study.profile().tagged, 0u);
    EXPECT_LE(study.profile().tagged, study.profile().total);
    EXPECT_GT(study.protection().numTagged, 0u);
    EXPECT_GT(study.goldenInstructions(), 0u);
    EXPECT_FALSE(study.goldenOutput().empty());
}

/** A workload whose fault-free run divides by zero: any simulation
 *  of it fails loudly. */
class CrashingWorkload : public workloads::Workload
{
  public:
    CrashingWorkload()
    {
        assembly::ProgramBuilder b;
        b.beginFunction("main");
        b.li(isa::REG_T0, 1);
        b.li(isa::REG_T1, 0);
        b.div(isa::REG_T2, isa::REG_T0, isa::REG_T1);
        b.halt();
        b.endFunction();
        program_ = b.finish();
    }

    std::string name() const override { return "crashing"; }
    std::string fidelityMeasure() const override { return "none"; }
    const assembly::Program &program() const override { return program_; }
    std::set<std::string> eligibleFunctions() const override
    {
        return {"main"};
    }
    workloads::FidelityScore
    scoreFidelity(const std::vector<uint8_t> &,
                  const std::vector<uint8_t> &) const override
    {
        return {};
    }

  private:
    assembly::Program program_;
};

TEST(StudyTest, ConstructionRunsNoSimulation)
{
    // Only the analysis runs up front: keying a cell needs no
    // simulation, and the profile is taken when first read.
    CrashingWorkload workload;
    ErrorToleranceStudy study(workload, quickConfig());
    EXPECT_EQ(study.cellKey(1, fault::PROTECTED_POLICY, 4).workload,
              "crashing");
    EXPECT_THROW(study.profile(), PanicError);
}

TEST(StudyTest, PromotingStoredShardsRunsNoSimulation)
{
    // Shards that already tile a cell (e.g. pushed by fleet workers)
    // are merged and promoted without a golden run, which for this
    // workload would fail.
    CrashingWorkload workload;
    auto root = std::filesystem::temp_directory_path() /
                ("etc_core_test_promote_" +
                 std::to_string(
                     ::testing::UnitTest::GetInstance()->random_seed()));
    std::filesystem::remove_all(root);
    auto config = quickConfig();
    config.cacheDir = root.string();
    ErrorToleranceStudy study(workload, config);
    auto key = study.cellKey(1, fault::PROTECTED_POLICY, 4);
    CellSummary half;
    half.errors = 1;
    half.policy = fault::PROTECTED_POLICY;
    half.trials = 2;
    half.completed = 2;
    half.fidelities = {{1.0, true, "none"}, {1.0, true, "none"}};
    study.resultStore()->storeShard(key, 0, 2, half);
    study.resultStore()->storeShard(key, 2, 4, half);

    CellSummary stripe;
    study.runStripes(1, fault::PROTECTED_POLICY, 4, 1, {0},
                     [&stripe](const core::StripeResult &done) {
                         stripe = done.summary;
                     });
    EXPECT_EQ(stripe.trials, 4u);
    auto cell = study.runCell(1, fault::PROTECTED_POLICY, 4, 4);
    EXPECT_EQ(cell.trials, 4u);
    EXPECT_EQ(cell.completed, 4u);
    EXPECT_EQ(study.trialsExecuted(), 0u);
    EXPECT_TRUE(study.resultStore()->hasCell(key));
    std::filesystem::remove_all(root);
}

TEST(StudyTest, ZeroErrorCellIsPerfect)
{
    auto workload = createWorkload("adpcm", Scale::Test);
    ErrorToleranceStudy study(*workload, quickConfig());
    auto cell = study.runCell(0, fault::PROTECTED_POLICY);
    EXPECT_EQ(cell.completed, cell.trials);
    EXPECT_EQ(cell.failureRate(), 0.0);
    EXPECT_EQ(cell.acceptableRate(), 1.0);
    for (const auto &score : cell.fidelities)
        EXPECT_TRUE(score.acceptable);
}

TEST(StudyTest, Reproducible)
{
    auto workload = createWorkload("gsm", Scale::Test);
    ErrorToleranceStudy a(*workload, quickConfig());
    ErrorToleranceStudy b(*workload, quickConfig());
    auto cellA = a.runCell(5, fault::PROTECTED_POLICY);
    auto cellB = b.runCell(5, fault::PROTECTED_POLICY);
    EXPECT_EQ(cellA.completed, cellB.completed);
    EXPECT_EQ(cellA.crashed, cellB.crashed);
    EXPECT_EQ(cellA.timedOut, cellB.timedOut);
    ASSERT_EQ(cellA.fidelities.size(), cellB.fidelities.size());
    for (size_t i = 0; i < cellA.fidelities.size(); ++i)
        EXPECT_DOUBLE_EQ(cellA.fidelities[i].value,
                         cellB.fidelities[i].value);
}

TEST(StudyTest, CellBookkeeping)
{
    auto workload = createWorkload("mcf", Scale::Test);
    ErrorToleranceStudy study(*workload, quickConfig(12));
    auto cell = study.runCell(3, fault::UNPROTECTED_POLICY, 8);
    EXPECT_EQ(cell.trials, 8u);
    EXPECT_EQ(cell.errors, 3u);
    EXPECT_EQ(cell.policy, "unprotected");
    EXPECT_EQ(cell.completed + cell.crashed + cell.timedOut,
              cell.trials);
    EXPECT_EQ(cell.fidelities.size(), cell.completed);
}

/**
 * The paper's headline (Table 2): without control protection,
 * error tolerance collapses; with it, the application degrades
 * gracefully. Checked here as "protected failure rate is strictly
 * lower than unprotected" on a control-heavy workload at a moderate
 * error count -- deterministic, since campaigns are seeded.
 */
TEST(StudyTest, ProtectionPreventsCatastrophicFailure)
{
    auto workload = createWorkload("mcf", Scale::Test);
    ErrorToleranceStudy study(*workload, quickConfig(20));
    auto prot = study.runCell(8, fault::PROTECTED_POLICY);
    auto unprot = study.runCell(8, fault::UNPROTECTED_POLICY);
    EXPECT_LT(prot.failureRate(), unprot.failureRate());
    EXPECT_GT(unprot.failureRate(), 0.3);
}

TEST(StudyTest, ProtectedSusanNeverCrashes)
{
    // Susan with protection tolerates even heavy error counts
    // (paper: 0% failures at 2200 errors) -- its kernel has no
    // taggable address arithmetic or data-dependent loop bounds.
    auto workload = createWorkload("susan", Scale::Test);
    ErrorToleranceStudy study(*workload, quickConfig(10));
    auto cell = study.runCell(100, fault::PROTECTED_POLICY);
    EXPECT_EQ(cell.failureRate(), 0.0);
}

TEST(StudyTest, FidelityDegradesWithErrorCount)
{
    auto workload = createWorkload("susan", Scale::Test);
    ErrorToleranceStudy study(*workload, quickConfig(10));
    auto low = study.runCell(5, fault::PROTECTED_POLICY);
    auto high = study.runCell(200, fault::PROTECTED_POLICY);
    EXPECT_GT(low.meanFidelity(), high.meanFidelity());
}

TEST(StudyTest, ArtDegradesWithoutCrashing)
{
    // Paper Figure 6: ART's recognition flips with a handful of
    // errors yet never fails catastrophically.
    auto workload = createWorkload("art", Scale::Test);
    ErrorToleranceStudy study(*workload, quickConfig(15));
    auto cell = study.runCell(4, fault::PROTECTED_POLICY);
    EXPECT_EQ(cell.failureRate(), 0.0);
    EXPECT_LT(cell.acceptableRate(), 1.0);
}

TEST(StudyTest, MemoryModelAblationChangesFailures)
{
    // Strict (bounds-checking) memory turns wild accesses into
    // crashes; adpcm's step-table lookup is the canonical victim.
    auto workload = createWorkload("adpcm", Scale::Test);
    StudyConfig lenient = quickConfig(25);
    StudyConfig strict = quickConfig(25);
    strict.memoryModel = sim::MemoryModel::Strict;
    ErrorToleranceStudy lenientStudy(*workload, lenient);
    ErrorToleranceStudy strictStudy(*workload, strict);
    auto lenientCell =
        lenientStudy.runCell(30, fault::PROTECTED_POLICY);
    auto strictCell =
        strictStudy.runCell(30, fault::PROTECTED_POLICY);
    EXPECT_LE(lenientCell.failureRate(), strictCell.failureRate());
}

TEST(StudyTest, AddressProtectionAblationReducesResiduals)
{
    // Turning on address protection shrinks the injectable set and
    // cannot increase the protected failure rate (statistically it
    // all but eliminates wild accesses).
    auto workload = createWorkload("adpcm", Scale::Test);
    StudyConfig paper = quickConfig(25);
    StudyConfig hardened = quickConfig(25);
    hardened.protection.protectAddresses = true;

    ErrorToleranceStudy paperStudy(*workload, paper);
    ErrorToleranceStudy hardenedStudy(*workload, hardened);
    EXPECT_LT(hardenedStudy.profile().taggedFraction(),
              paperStudy.profile().taggedFraction());
}

TEST(CellSummaryTest, Statistics)
{
    CellSummary cell;
    cell.trials = 4;
    cell.completed = 2;
    cell.crashed = 1;
    cell.timedOut = 1;
    cell.fidelities.push_back({10.0, true, "dB"});
    cell.fidelities.push_back({20.0, false, "dB"});
    EXPECT_DOUBLE_EQ(cell.failureRate(), 0.5);
    EXPECT_DOUBLE_EQ(cell.meanFidelity(), 15.0);
    EXPECT_DOUBLE_EQ(cell.acceptableRate(), 0.25);
}

TEST(CellSummaryTest, EmptyIsSafe)
{
    CellSummary cell;
    EXPECT_DOUBLE_EQ(cell.failureRate(), 0.0);
    EXPECT_DOUBLE_EQ(cell.meanFidelity(), 0.0);
    EXPECT_DOUBLE_EQ(cell.acceptableRate(), 0.0);
}

} // namespace
