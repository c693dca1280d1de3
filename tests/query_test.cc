/**
 * @file
 * Archive query-engine tests over a synthetic store: filter
 * semantics, every aggregation's envelope (field presence + exact
 * counts from hand-computable summaries), determinism of the JSON
 * bytes across processes (two runQuery calls), and rejection of
 * invalid requests via QueryError.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/query.hh"
#include "store/cell_key.hh"
#include "store/result_store.hh"

namespace {

using namespace etc;
using namespace etc::core;

namespace fs = std::filesystem;

store::CellKey
cellKey(const std::string &policy, unsigned errors)
{
    store::CellKey key;
    key.workload = "gsm";
    key.policy = policy;
    key.errors = errors;
    key.trials = 10;
    key.seed = 0xbe7cull;
    key.budgetFactor = 10.0;
    key.memoryModel = "lenient";
    key.programHash = "0xdeadbeefcafef00d";
    return key;
}

/** @p completed trials finish with evenly spaced fidelities in
 *  (0, 1]; the rest crash. */
core::CellSummary
cellSummary(const std::string &policy, unsigned errors,
            unsigned completed)
{
    core::CellSummary summary;
    summary.errors = errors;
    summary.policy = policy;
    summary.trials = 10;
    summary.completed = completed;
    summary.crashed = 10 - completed;
    summary.timedOut = 0;
    summary.totalInstructions = 1000;
    summary.wallSeconds = 0.5;
    for (unsigned i = 0; i < completed; ++i) {
        workloads::FidelityScore score;
        score.value = (double)(i + 1) / completed;
        score.acceptable = score.value >= 0.5;
        score.unit = "dB";
        summary.fidelities.push_back(score);
    }
    return summary;
}

class QueryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("etc_query_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        fs::remove_all(root_);
        store::ResultStore cache(root_.string());
        // 2 policies x 2 error counts; protected completes more.
        cache.storeCell(cellKey("protected", 1),
                        cellSummary("protected", 1, 10));
        cache.storeCell(cellKey("protected", 5),
                        cellSummary("protected", 5, 8));
        cache.storeCell(cellKey("unprotected", 1),
                        cellSummary("unprotected", 1, 8));
        cache.storeCell(cellKey("unprotected", 5),
                        cellSummary("unprotected", 5, 4));
    }

    void TearDown() override { fs::remove_all(root_); }

    QueryReport
    run(QueryAgg agg, QueryFilter filter = {})
    {
        QueryOptions options;
        options.filter = std::move(filter);
        options.agg = agg;
        return runQuery(root_.string(), options);
    }

    std::filesystem::path root_;
};

TEST_F(QueryTest, CellsListsMatchesWithoutLoadingRecords)
{
    auto report = run(QueryAgg::Cells);
    EXPECT_EQ(report.cellsIndexed, 4u);
    EXPECT_EQ(report.cellsMatched, 4u);
    EXPECT_EQ(report.recordsLoaded, 0u);
    EXPECT_EQ(report.table.rowCount(), 4u);
    EXPECT_NE(report.json.find("\"agg\":\"cells\""), std::string::npos);
    EXPECT_NE(report.json.find("\"trialsCovered\":40"),
              std::string::npos);
}

TEST_F(QueryTest, FiltersNarrowByEveryAxis)
{
    QueryFilter filter;
    filter.policies = {"protected"};
    filter.errors = {5};
    auto report = run(QueryAgg::Cells, filter);
    EXPECT_EQ(report.cellsMatched, 1u);

    filter.seed = 0x1234; // wrong seed: nothing matches
    EXPECT_EQ(run(QueryAgg::Cells, filter).cellsMatched, 0u);
    filter.seed = 0xbe7c;
    filter.trials = 10;
    EXPECT_EQ(run(QueryAgg::Cells, filter).cellsMatched, 1u);
}

TEST_F(QueryTest, CurveTalliesOutcomesPerGroup)
{
    auto report = run(QueryAgg::Curve);
    EXPECT_EQ(report.recordsLoaded, 4u);
    EXPECT_EQ(report.table.rowCount(), 4u);
    // unprotected/5: 4 completed of 10 -> failureRate 0.6.
    EXPECT_NE(report.json.find("\"policy\":\"unprotected\",\"errors\":5,"
                               "\"cells\":1,\"trials\":10,"
                               "\"completed\":4,\"crashed\":6"),
              std::string::npos)
        << report.json;
    EXPECT_NE(report.json.find("\"failureRate\":\"0.59999999999999998\""),
              std::string::npos)
        << report.json;
}

TEST_F(QueryTest, DeltaComparesAgainstBasePolicy)
{
    auto report = run(QueryAgg::Delta);
    // Two error counts, one non-base policy -> two rows.
    EXPECT_EQ(report.table.rowCount(), 2u);
    EXPECT_NE(report.json.find("\"base\":\"protected\""),
              std::string::npos);
    // errors=5: unprotected fails 0.6, protected 0.2 -> delta 0.4.
    EXPECT_NE(report.json.find("\"deltaFailureRate\":"
                               "\"0.39999999999999997\""),
              std::string::npos)
        << report.json;
}

TEST_F(QueryTest, CdfReportsQuantilesPerPolicy)
{
    auto report = run(QueryAgg::Cdf);
    EXPECT_EQ(report.table.rowCount(), 2u);
    // protected pools 10 + 8 fidelities; min is 1/10.
    EXPECT_NE(report.json.find("\"policy\":\"protected\",\"count\":18"),
              std::string::npos)
        << report.json;
    EXPECT_NE(report.json.find("\"min\":\"0.10000000000000001\""),
              std::string::npos)
        << report.json;
    EXPECT_NE(report.json.find("\"max\":\"1\""), std::string::npos);
}

TEST_F(QueryTest, CoverageGroupsFromIndexAlone)
{
    auto report = run(QueryAgg::Coverage);
    EXPECT_EQ(report.recordsLoaded, 0u);
    EXPECT_EQ(report.table.rowCount(), 2u);
    EXPECT_NE(report.json.find("\"cells\":2"), std::string::npos);
}

TEST_F(QueryTest, JsonBytesAreDeterministic)
{
    for (auto agg : {QueryAgg::Cells, QueryAgg::Coverage,
                     QueryAgg::Curve, QueryAgg::Delta, QueryAgg::Cdf})
        EXPECT_EQ(run(agg).json, run(agg).json)
            << queryAggName(agg);
}

TEST_F(QueryTest, InvalidRequestsThrowQueryError)
{
    EXPECT_THROW(parseQueryAgg("bogus"), QueryError);
    QueryOptions options;
    options.agg = QueryAgg::Avf; // avf needs a known workload
    EXPECT_THROW(runQuery(root_.string(), options), QueryError);
    options.filter.workload = "no-such-workload";
    EXPECT_THROW(runQuery(root_.string(), options), QueryError);

    // Every aggregation refuses the names `etc_lab query` refuses as
    // --workload, --policy and --base, instead of an empty rollup.
    for (QueryAgg agg : {QueryAgg::Cells, QueryAgg::Coverage,
                         QueryAgg::Curve, QueryAgg::Delta, QueryAgg::Cdf,
                         QueryAgg::Avf}) {
        QueryOptions named;
        named.agg = agg;
        named.filter.workload = "bogus";
        EXPECT_THROW(runQuery(root_.string(), named), QueryError)
            << queryAggName(agg);
        named.filter.workload = "adpcm";
        named.filter.policies = {"protected", "bogus"};
        EXPECT_THROW(runQuery(root_.string(), named), QueryError)
            << queryAggName(agg);
        named.filter.policies.clear();
        named.basePolicy = "bogus";
        EXPECT_THROW(runQuery(root_.string(), named), QueryError)
            << queryAggName(agg);
    }
}

TEST_F(QueryTest, EmptyArchiveYieldsEmptyRollups)
{
    fs::path empty = root_;
    empty += "_empty";
    fs::remove_all(empty);
    QueryOptions options;
    options.agg = QueryAgg::Curve;
    auto report = runQuery(empty.string(), options);
    EXPECT_EQ(report.cellsIndexed, 0u);
    EXPECT_EQ(report.cellsMatched, 0u);
    EXPECT_NE(report.json.find("\"rows\":[]"), std::string::npos);
    fs::remove_all(empty);
}

} // namespace
