/**
 * @file
 * The injection-policy layer: registry semantics, policy-driven
 * bitmaps/plans/flips, policy-aware cell keys -- and the golden
 * regression pinning the legacy "protected"/"unprotected" policies to
 * the exact bits the pre-policy protected/unprotected switch
 * produced (tallies, fidelity bits, CellKey canonicals/fingerprints,
 * and on-disk records), at 1 and 4 threads.
 *
 * The GOLDEN_* constants below were captured from the seed build
 * (before InjectionPolicy existed) and must never change: a
 * difference means stores written by earlier builds would be
 * silently orphaned or, worse, recomputed to different results.
 */

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/study.hh"
#include "fault/injection.hh"
#include "fault/policy.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/workload.hh"

namespace {

using namespace etc;
using workloads::Scale;
using workloads::createWorkload;

// ---- golden constants (seed build, default StudyConfig) --------------------

struct GoldenCell
{
    const char *workload;
    unsigned errors;
    unsigned trials;
    const char *policy;
    const char *canonical;
    const char *fingerprint;
    unsigned completed;
    unsigned crashed;
    unsigned timedOut;
    uint64_t totalInstructions;
    uint64_t meanFidelityBits;
};

const GoldenCell GOLDEN_CELLS[] = {
    {"adpcm", 1, 12, "protected",
     "schema=1;workload=adpcm;mode=protected;errors=1;trials=12;"
     "seed=0xe77;budget_bits=0x4024000000000000;memory_model=lenient;"
     "program=0x483966ebc31fb296",
     "059ce62fa685c22e", 12, 0, 0, 402600, 0x3fe1955555555555ull},
    {"adpcm", 3, 12, "unprotected",
     "schema=1;workload=adpcm;mode=unprotected;errors=3;trials=12;"
     "seed=0xe77;budget_bits=0x4024000000000000;memory_model=lenient;"
     "program=0xc2593c3983189f69",
     "96fca977bf45d395", 11, 1, 0, 397318, 0x3fdfce8ba2e8ba2full},
    {"gsm", 4, 8, "protected",
     "schema=1;workload=gsm;mode=protected;errors=4;trials=8;"
     "seed=0xe77;budget_bits=0x4024000000000000;memory_model=lenient;"
     "program=0x55fe780e5c6a3724",
     "ebab561a4ad8bc81", 8, 0, 0, 283256, 0x403993ba45719849ull},
};

/** A complete cell record written by the seed build (pre-policy
 *  schema: no "policy" member in the key object). */
const char *OLD_SCHEMA_RECORD =
    R"({"schema":1,"kind":"cell","fingerprint":"96fca977bf45d395","key":{"workload":"adpcm","mode":"unprotected","errors":3,"trials":12,"seed":"0xe77","budget_bits":"0x4024000000000000","memory_model":"lenient","program":"0xc2593c3983189f69"}})"
    "\n"
    R"({"schema":1,"kind":"summary","trials":12,"completed":11,"crashed":1,"timed_out":0,"total_instructions":397318,"wall_seconds_bits":"0x3f4ea0383311133d","fidelities":11})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fdc600000000000","value":"0.443359375","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fc4000000000000","value":"0.15625","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fd1c00000000000","value":"0.27734375","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fdea00000000000","value":"0.478515625","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fe7600000000000","value":"0.73046875","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fe4e00000000000","value":"0.65234375","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fcf400000000000","value":"0.244140625","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fe3c00000000000","value":"0.6171875","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fe1000000000000","value":"0.53125","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3fd5800000000000","value":"0.3359375","acceptable":false,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"fidelity","bits":"0x3ff0000000000000","value":"1","acceptable":true,"unit":"fraction bytes correct"})"
    "\n"
    R"({"schema":1,"kind":"end","lines":14,"fnv":"0xd665e82826f171fb"})"
    "\n";

// ---- golden regression -----------------------------------------------------

TEST(GoldenLegacyTest, CanonicalKeysAndFingerprintsAreByteStable)
{
    for (const auto &golden : GOLDEN_CELLS) {
        auto workload = createWorkload(golden.workload, Scale::Test);
        core::StudyConfig config; // seed defaults, as captured
        auto protection =
            core::computeStudyProtection(*workload, config);
        auto key = core::makeCellKey(*workload, protection, config,
                                     golden.errors, golden.policy,
                                     golden.trials);
        EXPECT_EQ(key.canonical(), golden.canonical);
        EXPECT_EQ(key.fingerprint(), golden.fingerprint);
        EXPECT_TRUE(key.policyHash.empty());
    }
}

TEST(GoldenLegacyTest, TalliesBitIdenticalToSeedAtOneAndFourThreads)
{
    for (const auto &golden : GOLDEN_CELLS) {
        for (unsigned threads : {1u, 4u}) {
            auto workload =
                createWorkload(golden.workload, Scale::Test);
            core::StudyConfig config;
            config.threads = threads;
            core::ErrorToleranceStudy study(*workload, config);
            auto cell = study.runCell(golden.errors, golden.policy,
                                      golden.trials);
            EXPECT_EQ(cell.completed, golden.completed)
                << golden.workload << " @" << threads << " threads";
            EXPECT_EQ(cell.crashed, golden.crashed);
            EXPECT_EQ(cell.timedOut, golden.timedOut);
            EXPECT_EQ(cell.totalInstructions,
                      golden.totalInstructions);
            EXPECT_EQ(store::doubleBits(cell.meanFidelity()),
                      golden.meanFidelityBits)
                << golden.workload << " @" << threads << " threads";
        }
    }
}

TEST(GoldenLegacyTest, EnumAliasAndPolicyNameProduceIdenticalCells)
{
    auto workload = createWorkload("adpcm", Scale::Test);
    core::StudyConfig config;
    // The removed enum forwarded to the legacy name constants; a
    // study naming the constant runs the cell a literal name does.
    core::ErrorToleranceStudy byName(*workload, config);
    core::ErrorToleranceStudy byConstant(*workload, config);
    auto a = byName.runCell(3, "unprotected", 12);
    auto b = byConstant.runCell(3, fault::UNPROTECTED_POLICY, 12);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    ASSERT_EQ(a.fidelities.size(), b.fidelities.size());
    for (size_t i = 0; i < a.fidelities.size(); ++i)
        EXPECT_EQ(store::doubleBits(a.fidelities[i].value),
                  store::doubleBits(b.fidelities[i].value));
    EXPECT_EQ(a.policy, "unprotected");
}

TEST(GoldenLegacyTest, OldSchemaRecordDecodes)
{
    auto workload = createWorkload("adpcm", Scale::Test);
    core::StudyConfig config;
    auto protection = core::computeStudyProtection(*workload, config);
    auto key = core::makeCellKey(*workload, protection, config, 3,
                                 "unprotected", 12);

    auto summary = store::decodeCellRecord(OLD_SCHEMA_RECORD, &key);
    EXPECT_EQ(summary.policy, "unprotected");
    EXPECT_EQ(summary.trials, 12u);
    EXPECT_EQ(summary.completed, 11u);
    EXPECT_EQ(summary.crashed, 1u);
    EXPECT_EQ(summary.timedOut, 0u);
    EXPECT_EQ(summary.totalInstructions, 397318u);
    ASSERT_EQ(summary.fidelities.size(), 11u);
    EXPECT_EQ(store::doubleBits(summary.fidelities.back().value),
              0x3ff0000000000000ull);
}

TEST(GoldenLegacyTest, OldSchemaRecordServesFromTheStore)
{
    // A store directory populated by a pre-policy build keeps
    // serving: drop the verbatim old record under <root>/cells/ and
    // load it through a study with caching on -- the cell must come
    // back without a single simulated trial.
    auto root = std::filesystem::path(testing::TempDir()) /
                "policy_old_schema_store";
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root / "cells");
    {
        std::ofstream out(root / "cells" /
                          "96fca977bf45d395.jsonl",
                          std::ios::binary);
        out << OLD_SCHEMA_RECORD;
    }

    auto workload = createWorkload("adpcm", Scale::Test);
    core::StudyConfig config;
    config.cacheDir = root.string();
    core::ErrorToleranceStudy study(*workload, config);
    auto cell = study.runCell(3, "unprotected", 12);
    EXPECT_EQ(study.trialsExecuted(), 0u);
    EXPECT_EQ(cell.completed, 11u);
    EXPECT_EQ(cell.crashed, 1u);
    std::filesystem::remove_all(root);
}

// ---- registry --------------------------------------------------------------

TEST(PolicyRegistryTest, BuiltinsArePresent)
{
    auto policies = fault::injectionPolicies();
    EXPECT_GE(policies.size(), 6u);
    for (const char *name :
         {"protected", "unprotected", "control-only", "data-only",
          "unprotected-regs", "protected-burst2",
          "unprotected-low16"})
        EXPECT_NE(fault::findInjectionPolicy(name), nullptr) << name;

    EXPECT_TRUE(
        fault::findInjectionPolicy("protected")->legacy);
    EXPECT_TRUE(
        fault::findInjectionPolicy("unprotected")->legacy);
    EXPECT_FALSE(
        fault::findInjectionPolicy("control-only")->legacy);
}

TEST(PolicyRegistryTest, ResolveUnknownNameListsKnownPolicies)
{
    try {
        fault::resolveInjectionPolicy("sideways");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        std::string what = error.what();
        EXPECT_NE(what.find("sideways"), std::string::npos);
        EXPECT_NE(what.find("protected"), std::string::npos);
    }
}

TEST(PolicyRegistryTest, DescriptionsMirrorRegistry)
{
    auto rows = fault::describeInjectionPolicies();
    auto policies = fault::injectionPolicies();
    ASSERT_EQ(rows.size(), policies.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].name, policies[i].name);
        EXPECT_EQ(rows[i].hash, policies[i].descriptorHashHex());
        EXPECT_EQ(rows[i].legacy, policies[i].legacy);
    }
    EXPECT_EQ(rows[0].scope, "tagged");
    EXPECT_EQ(rows[0].resultKinds, "register");
    EXPECT_EQ(rows[1].resultKinds, "register|memory|control");
}

TEST(PolicyRegistryTest, DescriptorHashTracksBehaviorNotProse)
{
    auto a = *fault::findInjectionPolicy("protected");
    auto b = a;
    b.name = "renamed";
    b.description = "other prose";
    EXPECT_EQ(a.descriptorHash(), b.descriptorHash());
    b.bitModel.burst = 2;
    b.bitModel.kind = fault::BitErrorModel::Kind::Burst;
    EXPECT_NE(a.descriptorHash(), b.descriptorHash());
    // ...but the seed salt does see the name: same-behavior policies
    // under different names draw independent streams.
    EXPECT_NE(a.seedSalt(), b.seedSalt());
}

// ---- policy-driven bitmaps, plans, flips -----------------------------------

TEST(PolicyBehaviorTest, BitmapsSliceResultKinds)
{
    auto workload = createWorkload("adpcm", Scale::Test);
    const auto &program = workload->program();
    core::StudyConfig config;
    auto protection = core::computeStudyProtection(*workload, config);

    auto bitmapOf = [&](const char *name) {
        return fault::resolveInjectionPolicy(name).injectableBitmap(
            program, protection.tagged);
    };
    auto unprot = bitmapOf("unprotected");
    auto controlOnly = bitmapOf("control-only");
    auto dataOnly = bitmapOf("data-only");
    auto regsOnly = bitmapOf("unprotected-regs");

    size_t controlCount = 0;
    for (uint32_t i = 0; i < program.size(); ++i) {
        const auto &ins = program.code[i];
        EXPECT_EQ(controlOnly[i], ins.isControl());
        EXPECT_EQ(dataOnly[i],
                  ins.def().has_value() || ins.isStore());
        EXPECT_EQ(regsOnly[i], ins.def().has_value());
        // Every slice is a subset of the unprotected reach.
        EXPECT_LE(controlOnly[i], unprot[i]);
        EXPECT_LE(dataOnly[i], unprot[i]);
        controlCount += controlOnly[i];
    }
    EXPECT_GT(controlCount, 0u);

    // The legacy wrappers and the policy bitmaps agree exactly.
    EXPECT_EQ(bitmapOf("protected"),
              fault::injectableWithProtection(program,
                                              protection.tagged));
    EXPECT_EQ(unprot, fault::injectableWithoutProtection(program));
}

TEST(PolicyBehaviorTest, BurstModelFlipsAdjacentBits)
{
    fault::BitErrorModel model;
    model.kind = fault::BitErrorModel::Kind::Burst;
    model.burst = 2;
    Rng rng(42);
    auto plan = fault::samplePlan(10000, 64, model, rng);
    ASSERT_EQ(plan.masks.size(), 64u);
    for (uint32_t mask : plan.masks) {
        EXPECT_EQ(__builtin_popcount(mask), 2) << mask;
        // Adjacent modulo the 32-bit range: mask is m | rot(m).
        uint32_t low = mask & (~mask + 1);
        bool adjacent = (mask == (low | (low << 1))) ||
                        (mask == ((1u << 31) | 1u));
        EXPECT_TRUE(adjacent) << mask;
    }
}

TEST(PolicyBehaviorTest, BitRangeModelStaysInRange)
{
    fault::BitErrorModel model;
    model.hi = 16;
    Rng rng(7);
    auto plan = fault::samplePlan(10000, 64, model, rng);
    for (uint32_t mask : plan.masks) {
        EXPECT_NE(mask, 0u);
        EXPECT_EQ(mask & 0xffff0000u, 0u) << mask;
    }
}

TEST(PolicyBehaviorTest, LegacySingleFlipDrawsTheSeedStream)
{
    // The policy-model sampler must consume the RNG exactly like the
    // pre-policy sampler did: the distinct sites first, then one
    // one-hot mask per site at the historical bit draw.
    Rng legacy(123), b(123);
    auto modeled =
        fault::samplePlan(5000, 25, fault::BitErrorModel{}, b);
    EXPECT_EQ(legacy.sampleDistinct(5000, 25), modeled.sites);
    for (uint32_t mask : modeled.masks)
        EXPECT_EQ(mask, uint32_t{1} << legacy.below(32));
}

TEST(PolicyBehaviorTest, NonLegacyKeysFoldThePolicyHash)
{
    auto workload = createWorkload("adpcm", Scale::Test);
    core::StudyConfig config;
    auto protection = core::computeStudyProtection(*workload, config);

    auto prot = core::makeCellKey(*workload, protection, config, 3,
                                  "protected", 12);
    auto burst = core::makeCellKey(*workload, protection, config, 3,
                                   "protected-burst2", 12);
    // Same injectable bitmap -- the program hash agrees -- yet the
    // keys differ by name and descriptor hash.
    EXPECT_EQ(prot.programHash, burst.programHash);
    EXPECT_FALSE(prot == burst);
    EXPECT_TRUE(prot.policyHash.empty());
    EXPECT_FALSE(burst.policyHash.empty());
    EXPECT_NE(burst.canonical().find(";policy=0x"),
              std::string::npos);
    EXPECT_EQ(prot.canonical().find(";policy="), std::string::npos);
}

TEST(PolicyBehaviorTest, NonLegacyCellRunsAndPersistsEndToEnd)
{
    auto root = std::filesystem::path(testing::TempDir()) /
                "policy_e2e_store";
    std::filesystem::remove_all(root);

    auto workload = createWorkload("adpcm", Scale::Test);
    core::StudyConfig config;
    config.threads = 2;
    config.cacheDir = root.string();

    core::CellSummary first;
    {
        core::ErrorToleranceStudy study(*workload, config);
        first = study.runCell(2, "control-only", 10);
        EXPECT_EQ(first.policy, "control-only");
        EXPECT_EQ(first.trials, 10u);
        EXPECT_EQ(first.completed + first.crashed + first.timedOut,
                  10u);
        EXPECT_GT(study.trialsExecuted(), 0u);
    }
    {
        // A fresh study serves the same cell from the store.
        core::ErrorToleranceStudy study(*workload, config);
        auto cached = study.runCell(2, "control-only", 10);
        EXPECT_EQ(study.trialsExecuted(), 0u);
        EXPECT_EQ(cached.policy, first.policy);
        EXPECT_EQ(cached.completed, first.completed);
        EXPECT_EQ(cached.crashed, first.crashed);
        EXPECT_EQ(cached.timedOut, first.timedOut);
        EXPECT_EQ(cached.totalInstructions, first.totalInstructions);
    }
    std::filesystem::remove_all(root);
}

TEST(PolicyBehaviorTest, UnknownPolicyNameIsFatal)
{
    auto workload = createWorkload("adpcm", Scale::Test);
    core::StudyConfig config;
    core::ErrorToleranceStudy study(*workload, config);
    EXPECT_THROW(study.runCell(1, "sideways", 4), FatalError);
}

} // namespace
