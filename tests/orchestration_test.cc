/**
 * @file
 * Orchestration contract of the cache-aware study: a campaign that is
 * killed mid-cell and resumed from its persisted shards -- by a fresh
 * process, at a different thread count, with a different shard split
 * -- produces cell summaries bit-identical to an uninterrupted
 * single-process run, and a report rendered purely from the stored
 * records is bit-identical to the live run's rendering, paper tables
 * included; every table's sweeps resolve by their registry names.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/experiments.hh"
#include "core/study.hh"
#include "store/cell_key.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "telemetry/metrics.hh"
#include "shard_slice.hh"

namespace {

using namespace etc;
using core::CellSummary;
using core::ErrorToleranceStudy;
using core::StudyConfig;

constexpr unsigned ERRORS = 3;
constexpr unsigned TRIALS = 24;

void
expectSummariesIdentical(const CellSummary &a, const CellSummary &b)
{
    EXPECT_EQ(a.errors, b.errors);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    ASSERT_EQ(a.fidelities.size(), b.fidelities.size());
    for (size_t i = 0; i < a.fidelities.size(); ++i) {
        EXPECT_EQ(store::doubleBits(a.fidelities[i].value),
                  store::doubleBits(b.fidelities[i].value))
            << "fidelity " << i;
        EXPECT_EQ(a.fidelities[i].acceptable,
                  b.fidelities[i].acceptable);
    }
}

class OrchestrationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload_ = workloads::createWorkload("adpcm",
                                              workloads::Scale::Test);
        root_ = std::filesystem::temp_directory_path() /
                ("etc_orch_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        std::filesystem::remove_all(root_);
    }

    void
    TearDown() override
    {
        clearStopRequest(); // never leak a test's stop into the next
        std::filesystem::remove_all(root_);
    }

    StudyConfig
    config(unsigned threads, bool cached = true) const
    {
        StudyConfig config;
        config.threads = threads;
        if (cached)
            config.cacheDir = root_.string();
        return config;
    }

    /** Persist @p stripes of @p count of the test cell through
     *  @p study, discarding the handed-over results. */
    static void
    runStripes(ErrorToleranceStudy &study, unsigned count,
               const std::vector<unsigned> &stripes)
    {
        study.runStripes(ERRORS, fault::PROTECTED_POLICY, TRIALS, count,
                         stripes, [](const core::StripeResult &) {});
    }

    /** The uninterrupted, uncached reference run (serial). */
    CellSummary
    reference()
    {
        ErrorToleranceStudy study(*workload_, config(1, false));
        return study.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    }

    std::unique_ptr<workloads::Workload> workload_;
    std::filesystem::path root_;
};

TEST_F(OrchestrationTest, CacheHitIsBitIdenticalAndRunsNothing)
{
    auto expected = reference();

    ErrorToleranceStudy first(*workload_, config(4));
    auto computed =
        first.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    expectSummariesIdentical(expected, computed);
    EXPECT_EQ(first.trialsExecuted(), TRIALS);

    // A fresh study over the same cache serves the cell from disk.
    ErrorToleranceStudy second(*workload_, config(2));
    auto cached =
        second.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    expectSummariesIdentical(expected, cached);
    EXPECT_EQ(second.trialsExecuted(), 0u);
}

// A cell served from the store is only read: repeated warm runCell
// calls rewrite neither its record nor anything else in cells/.
TEST_F(OrchestrationTest, WarmRunCellRewritesNothing)
{
    ErrorToleranceStudy study(*workload_, config(2));
    study.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    std::string cells = (root_ / "cells").string();
    std::string record =
        std::filesystem::directory_iterator(cells)->path().string();
    auto cellsStamp = store::stampFile(cells);
    auto recordStamp = store::stampFile(record);
    ASSERT_TRUE(cellsStamp && recordStamp);
    for (int i = 0; i < 5; ++i)
        study.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    EXPECT_EQ(store::stampFile(cells), cellsStamp);
    EXPECT_EQ(store::stampFile(record), recordStamp);
    EXPECT_EQ(study.trialsExecuted(), TRIALS);
}

TEST_F(OrchestrationTest, KillAndResumeIsBitIdentical)
{
    auto expected = reference();

    // Every (kill-point, resume-thread-count, original shard split)
    // combination must converge to the reference bits.
    for (unsigned split : {2u, 3u, 4u}) {
        for (unsigned doneBeforeKill = 0; doneBeforeKill < split;
             ++doneBeforeKill) {
            for (unsigned resumeThreads : {1u, 4u}) {
                std::filesystem::remove_all(root_);

                // "Run": persist the first doneBeforeKill chunks,
                // then die (simply stop calling; a SIGKILL mid-write
                // additionally relies on the store's atomic renames,
                // exercised by the CI smoke test).
                {
                    ErrorToleranceStudy study(*workload_, config(2));
                    std::vector<unsigned> done;
                    for (unsigned c = 0; c < doneBeforeKill; ++c)
                        done.push_back(c);
                    runStripes(study, split, done);
                }

                // "Resume": a fresh process completes the cell.
                ErrorToleranceStudy resumed(
                    *workload_, config(resumeThreads));
                auto summary = resumed.runCell(
                    ERRORS, fault::PROTECTED_POLICY, TRIALS);
                expectSummariesIdentical(expected, summary);

                // Only the missing stripe actually ran.
                unsigned alreadyDone =
                    static_cast<unsigned>(uint64_t{TRIALS} *
                                          doneBeforeKill / split);
                EXPECT_EQ(resumed.trialsExecuted(),
                          TRIALS - alreadyDone)
                    << "split " << split << " done " << doneBeforeKill;

                // The resumed cell was promoted to a full record and
                // its shards garbage-collected.
                auto *cache = resumed.resultStore();
                ASSERT_NE(cache, nullptr);
                auto key = resumed.cellKey(
                    ERRORS, fault::PROTECTED_POLICY, TRIALS);
                EXPECT_TRUE(cache->hasCell(key));
                EXPECT_TRUE(cache->loadShards(key).empty());
            }
        }
    }
}

TEST_F(OrchestrationTest, StripedRunCellSimulatesOnlyMissingStripes)
{
    auto expected = reference();
    for (unsigned threads : {1u, 4u}) {
        std::filesystem::remove_all(root_);
        // A killed 4-stripe run left stripes 0 and 2 behind.
        {
            ErrorToleranceStudy killed(*workload_, config(2));
            runStripes(killed, 4, {0, 2});
        }
        ErrorToleranceStudy resumed(*workload_, config(threads));
        auto summary =
            resumed.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS, 4);
        expectSummariesIdentical(expected, summary);
        // Exactly stripes 1 and 3 ran, in one pass.
        EXPECT_EQ(resumed.trialsExecuted(), TRIALS / 2)
            << "threads " << threads;

        auto *cache = resumed.resultStore();
        auto key =
            resumed.cellKey(ERRORS, fault::PROTECTED_POLICY, TRIALS);
        auto stored = cache->loadCell(key);
        ASSERT_TRUE(stored.has_value());
        expectSummariesIdentical(expected, *stored);
        EXPECT_TRUE(cache->loadShards(key).empty());
    }
}

TEST_F(OrchestrationTest, StripedRunCellMatchesEveryStripeCount)
{
    auto expected = reference();
    for (unsigned stripes : {1u, 2u, 4u, 7u, 40u}) {
        std::filesystem::remove_all(root_);
        ErrorToleranceStudy study(*workload_, config(4));
        auto summary = study.runCell(ERRORS, fault::PROTECTED_POLICY,
                                     TRIALS, stripes);
        expectSummariesIdentical(expected, summary);
        EXPECT_EQ(study.trialsExecuted(), TRIALS) << stripes;
    }
}

TEST_F(OrchestrationTest, CellWallTimeNeverExceedsTheRunCellWall)
{
    // Stripes of one pass overlap in time; each is credited with the
    // wall time since the previous stripe's completion, so the merged
    // cell's wall time is the pass's, never a sum of overlaps.
    for (bool cached : {false, true}) {
        std::filesystem::remove_all(root_);
        ErrorToleranceStudy study(*workload_, config(4, cached));
        auto started = std::chrono::steady_clock::now();
        auto summary = study.runCell(ERRORS, fault::PROTECTED_POLICY,
                                     TRIALS, 4);
        std::chrono::duration<double> measured =
            std::chrono::steady_clock::now() - started;
        EXPECT_GT(summary.wallSeconds, 0.0);
        EXPECT_LE(summary.wallSeconds, measured.count())
            << "cached " << cached;
    }
}

TEST_F(OrchestrationTest, StopRequestLeavesUnstartedStripesUnrun)
{
    auto expected = reference();
    // A stop requested before the cell starts: no stripe starts, none
    // is persisted, and runCell reports the interruption.
    requestStop();
    {
        ErrorToleranceStudy study(*workload_, config(4));
        EXPECT_THROW(study.runCell(ERRORS, fault::PROTECTED_POLICY,
                                   TRIALS, 4),
                     core::CellInterrupted);
        EXPECT_EQ(study.trialsExecuted(), 0u);
        auto key = study.cellKey(ERRORS, fault::PROTECTED_POLICY, TRIALS);
        EXPECT_FALSE(study.resultStore()->hasCell(key));
        EXPECT_TRUE(study.resultStore()->loadShards(key).empty());

        // Without a store there is nothing to persist between
        // stripes, so the cell runs to the end.
        ErrorToleranceStudy uncached(*workload_, config(4, false));
        expectSummariesIdentical(
            expected, uncached.runCell(ERRORS, fault::PROTECTED_POLICY,
                                       TRIALS, 4));
    }
    clearStopRequest();

    ErrorToleranceStudy resumed(*workload_, config(4));
    expectSummariesIdentical(
        expected,
        resumed.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS, 4));
}

TEST_F(OrchestrationTest, ShardFanOutAcrossProcessesMerges)
{
    auto expected = reference();

    // Three "processes" each compute one stripe (out of order, at
    // different thread counts), a fourth merges via runCell.
    for (unsigned index : {2u, 0u, 1u}) {
        ErrorToleranceStudy worker(*workload_, config(index + 1));
        runStripes(worker, 3, {index});
    }
    ErrorToleranceStudy merger(*workload_, config(4));
    auto merged =
        merger.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    expectSummariesIdentical(expected, merged);
    EXPECT_EQ(merger.trialsExecuted(), 0u);
}

TEST_F(OrchestrationTest, DuplicateShardRunsAreSkipped)
{
    ErrorToleranceStudy study(*workload_, config(2));
    runStripes(study, 2, {0});
    auto ranOnce = study.trialsExecuted();
    EXPECT_EQ(ranOnce, TRIALS / 2);

    // Same stripe again: served from the stored shard record.
    CellSummary again;
    study.runStripes(ERRORS, fault::PROTECTED_POLICY, TRIALS, 2, {0},
                     [&again](const core::StripeResult &stripe) {
                         again = stripe.summary;
                     });
    EXPECT_EQ(study.trialsExecuted(), ranOnce);
    EXPECT_EQ(again.trials, TRIALS / 2);
}

TEST_F(OrchestrationTest, MismatchedSplitsStillConverge)
{
    auto expected = reference();

    // A killed 4-way run left stripes 0 and 2; the resume uses
    // runCell directly (no split knowledge). Stripe 2 overlaps the
    // prefix gap so it is discarded and recomputed -- converging to
    // the reference regardless.
    {
        ErrorToleranceStudy study(*workload_, config(1));
        runStripes(study, 4, {0, 2});
    }
    ErrorToleranceStudy resumed(*workload_, config(4));
    auto summary =
        resumed.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    expectSummariesIdentical(expected, summary);
}

TEST_F(OrchestrationTest, GrantedStripesRunAsOnePassPastStoredOnes)
{
    auto expected = reference();
    std::map<unsigned, CellSummary> stripes;
    {
        // Stripe 2 of 4 is already stored; stripe 0 runs elsewhere.
        ErrorToleranceStudy earlier(*workload_, config(2));
        runStripes(earlier, 4, {2});
        ErrorToleranceStudy elsewhere(*workload_, config(1, false));
        elsewhere.runStripes(ERRORS, fault::PROTECTED_POLICY, TRIALS, 4,
                             {0}, [&](const core::StripeResult &stripe) {
                                 stripes[0] = stripe.summary;
                             });
    }

    ErrorToleranceStudy study(*workload_, config(4));
    std::map<unsigned, unsigned> landed;
    study.runStripes(
        ERRORS, fault::PROTECTED_POLICY, TRIALS, 4, {1, 2, 3},
        [&](const core::StripeResult &stripe) {
            ++landed[stripe.index];
            auto [lo, hi] =
                ErrorToleranceStudy::shardRange(TRIALS, stripe.index, 4);
            EXPECT_EQ(stripe.lo, lo);
            EXPECT_EQ(stripe.hi, hi);
            if (stripe.index == 2) {
                // Handed over from the store, before the pass starts.
                EXPECT_EQ(stripe.trialsSimulated, 0u);
                EXPECT_EQ(study.trialsExecuted(), 0u);
            } else {
                EXPECT_EQ(stripe.trialsSimulated, hi - lo);
            }
            stripes[stripe.index] = stripe.summary;
        });
    // Stripes 1 and 3 ran, in one pass; each stripe landed once.
    EXPECT_EQ(study.trialsExecuted(), TRIALS / 2);
    EXPECT_EQ(landed,
              (std::map<unsigned, unsigned>{{1, 1}, {2, 1}, {3, 1}}));
    expectStripesTileCell(
        expected, {stripes[0], stripes[1], stripes[2], stripes[3]});

    // Stripes persist as shards; only runCell promotes.
    auto key = study.cellKey(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    EXPECT_FALSE(study.resultStore()->hasCell(key));
    for (unsigned stripe : {1u, 2u, 3u}) {
        auto [lo, hi] = ErrorToleranceStudy::shardRange(TRIALS, stripe, 4);
        EXPECT_TRUE(study.resultStore()->hasShard(key, lo, hi));
    }
}

TEST_F(OrchestrationTest, ReportPathRebuildsTheSameKeyWithoutSimulation)
{
    // Compute + persist through a study.
    ErrorToleranceStudy study(*workload_, config(2));
    auto computed =
        study.runCell(ERRORS, fault::PROTECTED_POLICY, TRIALS);

    // The report path: key from static analysis only, summary from
    // disk, zero trials executed.
    auto cfg = config(1);
    auto protection = core::computeStudyProtection(*workload_, cfg);
    auto key = core::makeCellKey(*workload_, protection, cfg, ERRORS,
                                 fault::PROTECTED_POLICY, TRIALS);
    store::ResultStore cache(cfg.cacheDir);
    auto loaded = cache.loadCell(key);
    ASSERT_TRUE(loaded.has_value());
    expectSummariesIdentical(computed, *loaded);
}

TEST_F(OrchestrationTest, KeysSeparateModesSeedsTrialsAndWorkloads)
{
    ErrorToleranceStudy study(*workload_, config(1));
    auto base = study.cellKey(ERRORS, fault::PROTECTED_POLICY, TRIALS);
    EXPECT_FALSE(
        base ==
        study.cellKey(ERRORS, fault::UNPROTECTED_POLICY, TRIALS));
    EXPECT_FALSE(
        base == study.cellKey(ERRORS + 1, fault::PROTECTED_POLICY,
                              TRIALS));
    EXPECT_FALSE(
        base == study.cellKey(ERRORS, fault::PROTECTED_POLICY,
                              TRIALS + 1));

    auto seeded = config(1);
    seeded.seed ^= 0x1234;
    ErrorToleranceStudy other(*workload_, seeded);
    EXPECT_FALSE(
        base == other.cellKey(ERRORS, fault::PROTECTED_POLICY,
                              TRIALS));

    // Same workload name at a different scale -> different program
    // content -> different key (content addressing).
    auto bench = workloads::createWorkload("adpcm",
                                           workloads::Scale::Bench);
    ErrorToleranceStudy benchStudy(*bench, config(1, false));
    EXPECT_FALSE(base == benchStudy.cellKey(
                             ERRORS, fault::PROTECTED_POLICY, TRIALS));
}

TEST_F(OrchestrationTest, RenderingFromStoredRecordsIsByteIdentical)
{
    // The "smoke" experiment end-to-end, in-process: live sweep
    // rendering vs. rendering from decoded records.
    const bench::Experiment *exp = bench::findExperiment("smoke");
    ASSERT_NE(exp, nullptr);
    bench::BenchOptions opts;
    opts.threads = 2;
    opts.cacheDir = root_.string();

    auto workload =
        workloads::createWorkload(exp->workload, exp->scale);
    auto cfg = bench::makeStudyConfig(*exp, opts);
    core::ErrorToleranceStudy study(*workload, cfg);
    unsigned trials = opts.trialsOr(exp->defaultTrials);
    std::vector<CellSummary> summaries;
    for (const auto &[errors, policy] : bench::experimentCells(*exp))
        summaries.push_back(study.runCell(errors, policy, trials));
    auto points = bench::sweepPointsFrom(*exp, exp->policies, summaries);

    std::ostringstream live;
    bench::renderExperiment(live, *exp, exp->policies, points);

    // Rebuild every point purely from the store.
    auto protection = core::computeStudyProtection(*workload, cfg);
    store::ResultStore cache(cfg.cacheDir);
    std::vector<bench::SweepPoint> stored;
    for (unsigned errors : exp->errorCounts) {
        bench::SweepPoint point;
        point.errors = errors;
        auto load = [&](const std::string &policy) {
            auto key =
                core::makeCellKey(*workload, protection, cfg, errors,
                                  policy, trials);
            auto summary = cache.loadCell(key);
            EXPECT_TRUE(summary.has_value());
            return summary ? *summary : CellSummary{};
        };
        for (const auto &policy : exp->policies)
            point.cells.push_back(load(policy));
        stored.push_back(std::move(point));
    }

    std::ostringstream reported;
    bench::renderExperiment(reported, *exp, exp->policies, stored);
    EXPECT_EQ(live.str(), reported.str());
}

/** What `etc_lab run --experiment <name> --trials 2 --cache-dir
 *  <root>` prints, then what `etc_lab report` prints from the same
 *  store. */
std::pair<std::string, std::string>
runThenReport(const std::string &name, const std::string &root)
{
    auto artifact = bench::findArtifact(name);
    EXPECT_TRUE(artifact.has_value()) << name;
    if (!artifact)
        return {};
    bench::BenchOptions opts;
    opts.threads = 2;
    opts.trials = 2;
    opts.cacheDir = root;

    std::ostringstream run;
    bench::SweepStudies studies(opts);
    auto tally = bench::runArtifact(run, *artifact, studies, 2);
    EXPECT_FALSE(tally.interrupted);
    EXPECT_EQ(tally.cells, artifact->cells());

    std::vector<std::vector<store::CellKey>> keys;
    for (const bench::Experiment *sweep : artifact->sweeps)
        keys.push_back(bench::experimentCellKeys(*sweep, opts));
    store::ResultStore cache(root);
    bench::SweepStudies fresh(opts);
    std::ostringstream report;
    EXPECT_TRUE(
        bench::renderFromStore(report, *artifact, keys, cache, fresh)
            .empty());
    return {run.str(), report.str()};
}

TEST_F(OrchestrationTest, PaperTablesReportTheBytesTheyRun)
{
    // Table 2 reads each sweep's golden instruction count next to its
    // cells; Ablation B varies the memory model and the analysis.
    for (const char *name : {"table2", "ablation_memory"}) {
        auto [run, report] = runThenReport(name, root_.string());
        EXPECT_NE(run.find("% fail (protected)"), std::string::npos)
            << run;
        EXPECT_EQ(run, report) << name;
    }
}

/** What `etc_lab run --experiment <name> --trials <trials> --threads
 *  2` prints, at the engine settings and store @p opts carries. */
std::string
runAt(const std::string &name, unsigned trials, bench::BenchOptions opts)
{
    auto artifact = bench::findArtifact(name);
    EXPECT_TRUE(artifact.has_value()) << name;
    if (!artifact)
        return {};
    opts.threads = 2;
    opts.trials = trials;
    std::ostringstream out;
    bench::SweepStudies studies(opts);
    EXPECT_FALSE(bench::runArtifact(out, *artifact, studies, 4).interrupted);
    return out.str();
}

// The checkpoint interval and the gang width move only wall time:
// fig5 prints the same bytes with checkpoints at 4096 or 8192
// instructions, with none (the full-replay Injector path), and with
// gangs of at most 32 or 4 lanes or none (scalar).
TEST_F(OrchestrationTest, Fig5BytesIgnoreCheckpointIntervalAndGangWidth)
{
    const std::string fig5 = runAt("fig5", 50, {});
    EXPECT_NE(fig5.find("errors"), std::string::npos) << fig5;
    for (uint64_t interval : {uint64_t{4096}, uint64_t{0}}) {
        bench::BenchOptions opts;
        opts.checkpointInterval = interval;
        EXPECT_EQ(runAt("fig5", 50, opts), fig5)
            << "checkpoint interval " << interval;
    }
    for (unsigned width : {0u, 4u}) {
        bench::BenchOptions opts;
        opts.gangWidth = width;
        EXPECT_EQ(runAt("fig5", 50, opts), fig5)
            << "gang width " << width;
    }
}

// fig3 (mcf) is the divergent side: most lanes are evicted, so its
// passes fall back to scalar after their first gangs, and it must
// still print the bytes of the scalar path. A cell's 4 stripes of 10
// trials deal one gang each over the 2 threads, so gangs start after
// others finish and the fallback fires, with a store (as `etc_lab run
// --cache-dir` runs) and without one alike.
TEST_F(OrchestrationTest, Fig3BytesMatchScalarWhenGangsFallBack)
{
    auto fallbackTrials = [] {
        return telemetry::counter("etc_gang_scalar_fallback_trials_total",
                                  "")
            .value();
    };
    bench::BenchOptions ganged;
    ganged.cacheDir = (root_ / "ganged").string();
    uint64_t before = fallbackTrials();
    const std::string fig3 = runAt("fig3", 40, ganged);
    EXPECT_GT(fallbackTrials(), before);
    bench::BenchOptions scalar;
    scalar.cacheDir = (root_ / "scalar").string();
    scalar.gangWidth = 0;
    EXPECT_EQ(runAt("fig3", 40, scalar), fig3);
    before = fallbackTrials();
    EXPECT_EQ(runAt("fig3", 40, {}), fig3);
    EXPECT_GT(fallbackTrials(), before);
}

TEST_F(OrchestrationTest, RegistryNamesEveryPaperArtifact)
{
    for (const char *name :
         {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1",
          "table2", "table3", "potential", "ablation_addresses",
          "ablation_interproc", "ablation_memory"})
        EXPECT_TRUE(bench::findArtifact(name).has_value()) << name;

    // Every sweep of a table resolves by its own name (all a lease
    // grant carries) to itself.
    for (const auto &artifact : bench::artifacts()) {
        if (!artifact.table)
            continue;
        for (const bench::Experiment *sweep : artifact.sweeps) {
            if (sweep->errorCounts.empty())
                continue; // a study the table only profiles
            EXPECT_EQ(bench::findExperiment(sweep->name), sweep);
        }
    }
    EXPECT_EQ(bench::findExperiment(""), nullptr);

    // --policy names one sweep's policies: a table refuses it on run
    // and on report, before simulating anything.
    bench::BenchOptions opts;
    opts.policies = {fault::PROTECTED_POLICY};
    opts.cacheDir = root_.string();
    auto table2 = bench::findArtifact("table2");
    ASSERT_TRUE(table2.has_value());
    bench::SweepStudies studies(opts);
    std::ostringstream out;
    EXPECT_THROW(bench::runArtifact(out, *table2, studies, 1), FatalError);
    store::ResultStore cache(root_.string());
    EXPECT_THROW(bench::renderFromStore(
                     out, *table2,
                     std::vector<std::vector<store::CellKey>>(
                         table2->sweeps.size()),
                     cache, studies),
                 FatalError);
    EXPECT_TRUE(studies.built().empty());
    EXPECT_TRUE(out.str().empty());
}

} // namespace
