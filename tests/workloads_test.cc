/**
 * @file
 * Workload tests: every application builds, runs to completion on the
 * simulator, matches its host-side reference bit for bit, and scores
 * perfect fidelity against itself. Per-workload algorithmic checks
 * (cipher round trip, codec SNR, schedule optimality, recognition)
 * validate that the kernels implement the real algorithms, not stubs.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/control_protection.hh"
#include "fidelity/metrics.hh"
#include "sim/profiler.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "workloads/adpcm.hh"
#include "workloads/art.hh"
#include "workloads/blowfish.hh"
#include "workloads/gsm.hh"
#include "workloads/mcf.hh"
#include "workloads/mpeg.hh"
#include "workloads/susan.hh"
#include "workloads/workload.hh"

namespace {

using namespace etc;
using namespace etc::workloads;

std::vector<uint8_t>
runGolden(const Workload &workload)
{
    sim::Simulator sim(workload.program());
    auto result = sim.run();
    EXPECT_TRUE(result.completed()) << workload.name() << ": "
                                    << result.toString();
    return sim.output();
}

// ---- generic per-workload checks (parameterized over all seven) ------------

class AllWorkloadsTest : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<Workload> workload_ =
        createWorkload(GetParam(), Scale::Test);
};

TEST_P(AllWorkloadsTest, ProgramIsValidAndRuns)
{
    const auto &prog = workload_->program();
    prog.validate();
    EXPECT_GT(prog.size(), 0u);
    auto output = runGolden(*workload_);
    EXPECT_FALSE(output.empty());
}

TEST_P(AllWorkloadsTest, EligibleFunctionsExist)
{
    const auto &prog = workload_->program();
    for (const auto &name : workload_->eligibleFunctions())
        EXPECT_TRUE(prog.functionByName(name).has_value()) << name;
    EXPECT_FALSE(workload_->eligibleFunctions().empty());
}

TEST_P(AllWorkloadsTest, GoldenScoresPerfectFidelity)
{
    auto golden = runGolden(*workload_);
    auto score = workload_->scoreFidelity(golden, golden);
    EXPECT_TRUE(score.acceptable) << workload_->name();
    EXPECT_FALSE(score.unit.empty());
}

TEST_P(AllWorkloadsTest, AnalysisTagsSomethingButNotControl)
{
    auto config = analysis::ProtectionConfig{};
    config.eligibleFunctions = workload_->eligibleFunctions();
    auto result =
        analysis::computeControlProtection(workload_->program(), config);
    EXPECT_GT(result.numTagged, 0u) << workload_->name();
    // Tagged instructions are ALU by construction.
    for (uint32_t i = 0; i < workload_->program().size(); ++i)
        if (result.tagged[i]) {
            EXPECT_TRUE(workload_->program().code[i].isAlu());
        }
}

TEST_P(AllWorkloadsTest, DeterministicConstruction)
{
    auto again = createWorkload(GetParam(), Scale::Test);
    EXPECT_EQ(again->program().code, workload_->program().code);
    EXPECT_EQ(runGolden(*again), runGolden(*workload_));
}

INSTANTIATE_TEST_SUITE_P(
    AllSeven, AllWorkloadsTest,
    ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(RegistryTest, UnknownNameFatal)
{
    EXPECT_THROW(createWorkload("doom"), FatalError);
}

TEST(RegistryTest, NamesMatchTable1Order)
{
    const auto &names = workloadNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "susan");
    EXPECT_EQ(names.back(), "art");
}

// ---- susan ------------------------------------------------------------------

TEST(SusanTest, MatchesReferenceBitExact)
{
    SusanWorkload susan(SusanWorkload::scaled(Scale::Test));
    EXPECT_EQ(runGolden(susan), susan.referenceOutput());
}

TEST(SusanTest, EdgeMapRespondsToEdges)
{
    SusanWorkload susan(SusanWorkload::scaled(Scale::Test));
    auto edges = susan.referenceOutput();
    unsigned nonzero = 0;
    for (uint8_t px : edges)
        if (px > 0)
            ++nonzero;
    // The shapes image has clear edges; a healthy fraction responds.
    EXPECT_GT(nonzero, edges.size() / 20);
    EXPECT_LT(nonzero, edges.size()); // and not everything
}

TEST(SusanTest, FidelityUsesPsnrThreshold)
{
    SusanWorkload susan(SusanWorkload::scaled(Scale::Test));
    auto golden = susan.referenceOutput();
    auto corrupted = golden;
    for (size_t i = 0; i < corrupted.size(); ++i)
        corrupted[i] = static_cast<uint8_t>(255 - corrupted[i]);
    auto bad = susan.scoreFidelity(golden, corrupted);
    EXPECT_FALSE(bad.acceptable);
    auto good = susan.scoreFidelity(golden, golden);
    EXPECT_TRUE(good.acceptable);
    EXPECT_GT(good.value, bad.value);
}

// ---- adpcm ------------------------------------------------------------------

TEST(AdpcmTest, MatchesReferenceBitExact)
{
    AdpcmWorkload adpcm(AdpcmWorkload::scaled(Scale::Test));
    EXPECT_EQ(runGolden(adpcm), adpcm.referenceOutput());
}

TEST(AdpcmTest, DecodedSignalTracksInput)
{
    AdpcmWorkload adpcm(AdpcmWorkload::scaled(Scale::Test));
    auto decodedBytes = adpcm.referenceOutput();
    auto decoded = fidelity::asInt16(decodedBytes);
    std::vector<int16_t> input = adpcm.input();
    ASSERT_EQ(decoded.size(), input.size());
    // IMA ADPCM on smooth speech should stay well above 10 dB.
    EXPECT_GT(fidelity::snrDb(input, decoded), 10.0);
}

// ---- blowfish ----------------------------------------------------------------

TEST(BlowfishTest, MatchesReferenceBitExact)
{
    BlowfishWorkload blowfish(BlowfishWorkload::scaled(Scale::Test));
    EXPECT_EQ(runGolden(blowfish), blowfish.referenceOutput());
}

TEST(BlowfishTest, RoundTripRecoversPlaintext)
{
    BlowfishWorkload blowfish(BlowfishWorkload::scaled(Scale::Test));
    auto output = blowfish.referenceOutput();
    const auto &text = blowfish.plaintext();
    ASSERT_EQ(output.size(), 2 * text.size());
    std::vector<uint8_t> plain(output.begin() +
                                   static_cast<long>(text.size()),
                               output.end());
    EXPECT_EQ(plain, text);
}

TEST(BlowfishTest, CipherActuallyScramblesText)
{
    BlowfishWorkload blowfish(BlowfishWorkload::scaled(Scale::Test));
    auto output = blowfish.referenceOutput();
    const auto &text = blowfish.plaintext();
    std::vector<uint8_t> cipher(output.begin(),
                                output.begin() +
                                    static_cast<long>(text.size()));
    // The ciphertext must differ from the plaintext almost everywhere.
    EXPECT_LT(fidelity::byteSimilarity(text, cipher), 0.05);
}

TEST(BlowfishTest, FidelityScoresPlaintextHalfOnly)
{
    BlowfishWorkload blowfish(BlowfishWorkload::scaled(Scale::Test));
    auto golden = blowfish.referenceOutput();
    auto corrupted = golden;
    corrupted[0] ^= 0xff; // corrupt ciphertext half only
    auto score = blowfish.scoreFidelity(golden, corrupted);
    EXPECT_DOUBLE_EQ(score.value, 1.0);
    corrupted = golden;
    corrupted[corrupted.size() - 1] ^= 0xff; // plaintext half
    score = blowfish.scoreFidelity(golden, corrupted);
    EXPECT_LT(score.value, 1.0);
}

// ---- gsm ---------------------------------------------------------------------

TEST(GsmTest, MatchesReferenceBitExact)
{
    GsmWorkload gsm(GsmWorkload::scaled(Scale::Test));
    EXPECT_EQ(runGolden(gsm), gsm.referenceOutput());
}

TEST(GsmTest, CodecPreservesSpeech)
{
    GsmWorkload gsm(GsmWorkload::scaled(Scale::Test));
    auto decoded = fidelity::asInt16(gsm.referenceOutput());
    std::vector<int16_t> input = gsm.input();
    ASSERT_EQ(decoded.size(), input.size());
    EXPECT_GT(fidelity::snrDb(input, decoded), 8.0);
}

// ---- mpeg ---------------------------------------------------------------------

TEST(MpegTest, MatchesReferenceBitExact)
{
    MpegWorkload mpeg(MpegWorkload::scaled(Scale::Test));
    EXPECT_EQ(runGolden(mpeg), mpeg.referenceOutput());
}

TEST(MpegTest, GopPattern)
{
    EXPECT_EQ(MpegWorkload::frameType(0), MpegWorkload::FrameType::I);
    EXPECT_EQ(MpegWorkload::frameType(1), MpegWorkload::FrameType::B);
    EXPECT_EQ(MpegWorkload::frameType(2), MpegWorkload::FrameType::B);
    EXPECT_EQ(MpegWorkload::frameType(3), MpegWorkload::FrameType::P);
    EXPECT_EQ(MpegWorkload::frameType(6), MpegWorkload::FrameType::P);
    EXPECT_EQ(MpegWorkload::frameType(7), MpegWorkload::FrameType::B);
}

TEST(MpegTest, BadFrameClassification)
{
    MpegWorkload mpeg(MpegWorkload::scaled(Scale::Test));
    auto golden = mpeg.referenceOutput();
    EXPECT_DOUBLE_EQ(mpeg.badFrameFraction(golden, golden), 0.0);
    // Destroy exactly one frame.
    auto corrupted = golden;
    size_t frameBytes = 16 * 12;
    for (size_t i = 0; i < frameBytes; ++i)
        corrupted[2 * frameBytes + i] ^= 0x80;
    double fraction = mpeg.badFrameFraction(golden, corrupted);
    EXPECT_NEAR(fraction, 1.0 / 6.0, 1e-9);
    auto score = mpeg.scoreFidelity(golden, corrupted);
    EXPECT_FALSE(score.acceptable); // > 10% bad frames
}

// ---- mcf ----------------------------------------------------------------------

TEST(McfTest, SolvesToHostOptimum)
{
    McfWorkload mcf(McfWorkload::scaled(Scale::Test));
    auto output = runGolden(mcf);
    auto solution = mcf.parseSolution(output);
    ASSERT_TRUE(solution.wellFormed);
    auto [flow, cost] = mcf.referenceOptimum();
    EXPECT_EQ(solution.flow, flow);
    EXPECT_EQ(solution.cost, cost);
    EXPECT_TRUE(mcf.feasible(solution));
    EXPECT_GT(flow, 0);
    EXPECT_GT(cost, 0);
}

TEST(McfTest, FeasibilityRejectsBadSchedules)
{
    McfWorkload mcf(McfWorkload::scaled(Scale::Test));
    auto output = runGolden(mcf);
    auto solution = mcf.parseSolution(output);
    ASSERT_TRUE(mcf.feasible(solution));

    auto overCapacity = solution;
    overCapacity.edgeFlows[0] =
        mcf.network().edges[0].capacity + 5;
    EXPECT_FALSE(mcf.feasible(overCapacity));

    auto negative = solution;
    negative.edgeFlows[0] = -1;
    EXPECT_FALSE(mcf.feasible(negative));

    McfWorkload::Solution malformed;
    EXPECT_FALSE(mcf.feasible(malformed));
}

TEST(McfTest, FidelityDetectsSuboptimalCost)
{
    McfWorkload mcf(McfWorkload::scaled(Scale::Test));
    auto golden = runGolden(mcf);
    auto good = mcf.scoreFidelity(golden, golden);
    EXPECT_TRUE(good.acceptable);
    EXPECT_DOUBLE_EQ(good.value, 0.0);

    // A truncated stream is an incomplete schedule.
    std::vector<uint8_t> truncated(golden.begin(), golden.begin() + 8);
    auto bad = mcf.scoreFidelity(golden, truncated);
    EXPECT_FALSE(bad.acceptable);
    EXPECT_DOUBLE_EQ(bad.value, 100.0);
}

// ---- art ----------------------------------------------------------------------

TEST(ArtTest, MatchesReferenceRecognition)
{
    ArtWorkload art(ArtWorkload::scaled(Scale::Test));
    auto output = runGolden(art);
    auto got = art.parseRecognition(output);
    auto ref = art.referenceRecognition();
    ASSERT_TRUE(got.wellFormed);
    EXPECT_EQ(got.bestWindow, ref.bestWindow);
    EXPECT_EQ(got.bestTemplate, ref.bestTemplate);
    EXPECT_NEAR(got.confidence, ref.confidence, 1e-4);
}

TEST(ArtTest, FindsTheEmbeddedTarget)
{
    ArtWorkload art(ArtWorkload::scaled(Scale::Test));
    auto rec = art.referenceRecognition();
    const auto &scene = art.scene();
    EXPECT_EQ(rec.bestTemplate,
              static_cast<int32_t>(scene.targetTemplate));
    // The best window must be exactly where the target was embedded.
    unsigned perRow = scene.width / 8;
    unsigned expected =
        (scene.targetY / 8) * perRow + scene.targetX / 8;
    EXPECT_EQ(rec.bestWindow, static_cast<int32_t>(expected));
    EXPECT_TRUE(rec.vigilancePassed);
    EXPECT_GT(rec.confidence, 0.8f);
}

TEST(ArtTest, FidelityRejectsWrongIdentification)
{
    ArtWorkload art(ArtWorkload::scaled(Scale::Test));
    auto golden = runGolden(art);
    auto good = art.scoreFidelity(golden, golden);
    EXPECT_TRUE(good.acceptable);

    // Forge a stream whose final record names the wrong template.
    auto forged = golden;
    size_t lastRecord = forged.size() - 16;
    forged[lastRecord + 4] ^= 0x01; // bestTemplate word
    auto bad = art.scoreFidelity(golden, forged);
    EXPECT_FALSE(bad.acceptable);
}

// ---- dynamic tagged fractions reproduce Table 3's spread --------------------

TEST(Table3ShapeTest, DataAppsHighControlAppsLow)
{
    auto taggedFraction = [](const std::string &name) {
        auto w = createWorkload(name, Scale::Test);
        analysis::ProtectionConfig config;
        config.eligibleFunctions = w->eligibleFunctions();
        auto protection =
            analysis::computeControlProtection(w->program(), config);
        sim::Simulator sim(w->program());
        sim::Profiler profiler(protection.tagged);
        EXPECT_TRUE(sim.run(0, &profiler).completed());
        return profiler.profile().taggedFraction();
    };
    double susan = taggedFraction("susan");
    double adpcm = taggedFraction("adpcm");
    double mcf = taggedFraction("mcf");
    double gsm = taggedFraction("gsm");
    // Table 3 ordering: susan/adpcm >> gsm > mcf.
    EXPECT_GT(susan, 0.75);
    EXPECT_GT(adpcm, 0.75);
    EXPECT_LT(mcf, 0.25);
    EXPECT_LT(gsm, 0.45);
    EXPECT_GT(susan, gsm);
    EXPECT_GT(adpcm, mcf);
}

} // namespace
