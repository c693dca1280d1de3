/**
 * @file
 * Loopback integration tests of the campaign service: a real
 * HttpServer on an ephemeral 127.0.0.1 port, a started Scheduler over
 * a temp result store, and the blocking Client driving the full API
 * -- submit -> poll -> fetch, warm-cache submissions executing zero
 * trials, duplicate submissions attaching to the live job, >= 8
 * concurrent clients, malformed requests answered with 4xx JSON, and
 * the GET /v1/figures/<name> byte-identity contract with `etc_lab
 * report`'s render path.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/experiments.hh"
#include "core/query.hh"
#include "core/vulnerability_report.hh"
#include "fault/policy.hh"
#include "service/client.hh"
#include "service/http_server.hh"
#include "service/scheduler.hh"
#include "service/service.hh"
#include "store/json.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "telemetry/metrics.hh"

namespace {

using namespace etc;
using service::CampaignService;
using service::Client;
using service::HttpServer;
using service::Scheduler;
using service::SchedulerConfig;

// The smallest registry experiment: GSM at test scale, 2 protected
// cells of 8 trials each.
constexpr const char *EXPERIMENT = "smoke-gsm";

/** The process-wide value of counter @p name, from the scrape. */
uint64_t
counterValue(const std::string &name)
{
    std::istringstream scrape(telemetry::renderPrometheus());
    std::string line;
    while (std::getline(scrape, line))
        if (line.rfind(name + " ", 0) == 0)
            return std::stoull(line.substr(name.size() + 1));
    return 0;
}

class ServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearStopRequest(); // never inherit a stop from another test
        root_ = std::filesystem::temp_directory_path() /
                ("etc_service_test_" +
                 std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name());
        std::filesystem::remove_all(root_);

        SchedulerConfig config;
        config.cacheDir = root_.string();
        config.workers = 2;
        config.threads = 2;
        config.chunks = 2;
        // Workers start per test (startWorkers()): tests that need a
        // deterministic "job still queued" window submit first.
        scheduler_ = std::make_unique<Scheduler>(config);
        serviceFacade_ =
            std::make_unique<CampaignService>(*scheduler_);
        server_ = std::make_unique<HttpServer>(
            0, [this](const service::HttpRequest &request) {
                return serviceFacade_->handle(request);
            });
        serverThread_ = std::thread([this] { server_->run(50); });
    }

    void
    TearDown() override
    {
        server_->stop();
        serverThread_.join();
        scheduler_->stop();
        server_.reset();
        serviceFacade_.reset();
        scheduler_.reset();
        std::filesystem::remove_all(root_);
    }

    void
    startWorkers()
    {
        scheduler_->start();
    }

    Client
    client()
    {
        return Client("127.0.0.1", server_->port());
    }

    /** POST a job; @return the response. */
    Client::Response
    submit(const std::string &body)
    {
        return client().post("/v1/jobs", body);
    }

    /** Poll a job until it leaves queued/running; @return last body. */
    std::string
    awaitJob(const std::string &jobId)
    {
        Client poller = client();
        for (int i = 0; i < 3000; ++i) {
            auto response = poller.get("/v1/jobs/" + jobId);
            EXPECT_TRUE(response.ok()) << response.body;
            auto state =
                store::parseJson(response.body).at("state").asString();
            if (state == "done" || state == "failed")
                return response.body;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        ADD_FAILURE() << "job " << jobId << " never drained";
        return "";
    }

    std::filesystem::path root_;
    std::unique_ptr<Scheduler> scheduler_;
    std::unique_ptr<CampaignService> serviceFacade_;
    std::unique_ptr<HttpServer> server_;
    std::thread serverThread_;
};

TEST_F(ServiceTest, HealthzAndExperimentRegistry)
{
    auto health = client().get("/v1/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.contentType, "application/json");
    auto parsed = store::parseJson(health.body);
    EXPECT_EQ(parsed.at("status").asString(), "ok");
    EXPECT_EQ(parsed.at("workers").asU64(), 2u);

    auto registry = client().get("/v1/experiments");
    EXPECT_EQ(registry.status, 200);
    auto experiments = store::parseJson(registry.body);
    bool found = false;
    for (const auto &entry :
         experiments.at("experiments").elements) {
        if (entry.at("name").asString() != EXPERIMENT)
            continue;
        found = true;
        EXPECT_EQ(entry.at("workload").asString(), "gsm");
        EXPECT_EQ(entry.at("cells").asU64(), 2u);
        EXPECT_EQ(entry.at("defaultTrials").asU64(), 8u);
    }
    EXPECT_TRUE(found) << registry.body;
}

TEST_F(ServiceTest, SubmitPollFetchAndFigureByteIdentity)
{
    startWorkers();
    auto submitted =
        submit(std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    auto outcome = store::parseJson(submitted.body);
    EXPECT_FALSE(outcome.at("attached").asBool());
    EXPECT_EQ(outcome.at("cells").asU64(), 2u);
    std::string jobId = outcome.at("job").asString();

    auto final = store::parseJson(awaitJob(jobId));
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(final.at("cellsDone").asU64(), 2u);
    EXPECT_EQ(final.at("trialsExecuted").asU64(), 16u);

    // Every cell's stored record is fetchable by its fingerprint.
    for (const auto &cell : final.at("cells").elements) {
        EXPECT_EQ(cell.at("state").asString(), "done");
        EXPECT_FALSE(cell.at("cached").asBool());
        auto record = client().get("/v1/cells/" +
                                   cell.at("key").asString());
        ASSERT_EQ(record.status, 200) << record.body;
        auto parsed = store::parseJson(record.body);
        EXPECT_EQ(parsed.at("key").at("workload").asString(), "gsm");
        EXPECT_EQ(parsed.at("summary").at("trials").asU64(), 8u);
    }

    // The figure over HTTP is byte-identical to the `etc_lab report`
    // render path pointed at the same cache directory.
    auto figure = client().get(std::string("/v1/figures/") +
                               EXPERIMENT);
    ASSERT_EQ(figure.status, 200) << figure.body;
    EXPECT_EQ(figure.contentType, "text/plain; charset=utf-8");

    const bench::Experiment *exp = bench::findExperiment(EXPERIMENT);
    ASSERT_NE(exp, nullptr);
    bench::BenchOptions opts;
    opts.cacheDir = root_.string();
    store::ResultStore cache(opts.cacheDir);
    auto sweep = bench::loadExperimentFromStore(*exp, opts, cache);
    ASSERT_TRUE(sweep.complete());
    std::ostringstream offline;
    bench::renderExperiment(offline, *exp, exp->policies, sweep.points);
    EXPECT_EQ(figure.body, offline.str());
}

TEST_F(ServiceTest, PaperTableDrainsAndServesTheOfflineReport)
{
    startWorkers();
    auto submitted =
        submit("{\"experiment\":\"table2\",\"trials\":2}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    auto outcome = store::parseJson(submitted.body);
    auto table2 = bench::findArtifact("table2");
    ASSERT_TRUE(table2.has_value());
    EXPECT_EQ(outcome.at("cells").asU64(), table2->cells());
    auto final = store::parseJson(awaitJob(outcome.at("job").asString()));
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(final.at("experiment").asString(), "table2");

    auto served = client().get("/v1/figures/table2?trials=2");
    ASSERT_EQ(served.status, 200) << served.body;

    // The offline `etc_lab report` of the same cache directory.
    bench::BenchOptions opts;
    opts.trials = 2;
    opts.cacheDir = root_.string();
    std::vector<std::vector<store::CellKey>> keys;
    for (const bench::Experiment *sweep : table2->sweeps)
        keys.push_back(bench::experimentCellKeys(*sweep, opts));
    store::ResultStore cache(opts.cacheDir);
    bench::SweepStudies studies(opts);
    std::ostringstream offline;
    ASSERT_TRUE(
        bench::renderFromStore(offline, *table2, keys, cache, studies)
            .empty());
    EXPECT_EQ(served.body, offline.str());
    EXPECT_NE(served.body.find("Table 2"), std::string::npos);
}

TEST_F(ServiceTest, AnalysisEndpointMatchesTheCliRender)
{
    // GET /v1/analysis/<workload> serves byte-for-byte what
    // `etc_lab analyze --workload <w>` prints: both sides call
    // renderVulnerabilityReport() on the same build.
    auto workload = workloads::createWorkload("gsm");
    std::string expected = core::renderVulnerabilityReport(
        core::buildVulnerabilityReport(*workload));

    auto response = client().get("/v1/analysis/gsm");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, expected);

    // The report is memoized: a second fetch returns the same bytes.
    auto again = client().get("/v1/analysis/gsm");
    EXPECT_EQ(again.body, expected);

    // Unknown workloads 404; non-GET methods are rejected.
    EXPECT_EQ(client().get("/v1/analysis/nonesuch").status, 404);
    EXPECT_EQ(client().post("/v1/analysis/gsm", "{}").status, 405);
}

TEST_F(ServiceTest, PolicyRegistryEndpointMirrorsTheCliRows)
{
    auto response = client().get("/v1/policies");
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.contentType, "application/json");
    auto parsed = store::parseJson(response.body);
    const auto &rows = parsed.at("policies").elements;

    // One shared code path: the endpoint serves exactly the
    // describeInjectionPolicies() rows `etc_lab policies` prints.
    auto expected = fault::describeInjectionPolicies();
    ASSERT_EQ(rows.size(), expected.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].at("name").asString(), expected[i].name);
        EXPECT_EQ(rows[i].at("description").asString(),
                  expected[i].description);
        EXPECT_EQ(rows[i].at("legacy").asBool(), expected[i].legacy);
        EXPECT_EQ(rows[i].at("scope").asString(), expected[i].scope);
        EXPECT_EQ(rows[i].at("resultKinds").asString(),
                  expected[i].resultKinds);
        EXPECT_EQ(rows[i].at("bitModel").asString(),
                  expected[i].bitModel);
        EXPECT_EQ(rows[i].at("hash").asString(), expected[i].hash);
    }
}

TEST_F(ServiceTest, NonLegacyPolicyCellRunsOverHttp)
{
    startWorkers();
    auto submitted = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT +
        "\",\"errors\":1,\"policy\":\"control-only\"}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    auto outcome = store::parseJson(submitted.body);
    EXPECT_EQ(outcome.at("cells").asU64(), 1u);

    auto final = store::parseJson(
        awaitJob(outcome.at("job").asString()));
    EXPECT_EQ(final.at("state").asString(), "done");
    const auto &cell = final.at("cells").elements.at(0);
    EXPECT_EQ(cell.at("policy").asString(), "control-only");
    EXPECT_EQ(cell.at("trialsExecuted").asU64(), 8u);

    // The stored record is fetchable and self-describes its policy,
    // descriptor hash included.
    auto record =
        client().get("/v1/cells/" + cell.at("key").asString());
    ASSERT_EQ(record.status, 200) << record.body;
    auto parsed = store::parseJson(record.body);
    EXPECT_EQ(parsed.at("key").at("policy").asString(),
              "control-only");
    EXPECT_EQ(parsed.at("key").at("policyHash").asString(),
              fault::findInjectionPolicy("control-only")
                  ->descriptorHashHex());
    EXPECT_EQ(parsed.at("summary").at("trials").asU64(), 8u);
}

TEST_F(ServiceTest, WarmCacheSubmissionExecutesZeroTrials)
{
    startWorkers();
    auto first =
        submit(std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    ASSERT_EQ(first.status, 202);
    std::string firstJob =
        store::parseJson(first.body).at("job").asString();
    awaitJob(firstJob);

    // The store is warm and the first job is no longer active, so
    // this is a *new* job whose cells all complete as cache hits.
    auto second =
        submit(std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    ASSERT_EQ(second.status, 202);
    auto outcome = store::parseJson(second.body);
    std::string secondJob = outcome.at("job").asString();
    EXPECT_NE(secondJob, firstJob);

    auto final = store::parseJson(awaitJob(secondJob));
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(final.at("trialsExecuted").asU64(), 0u);
    for (const auto &cell : final.at("cells").elements) {
        EXPECT_TRUE(cell.at("cached").asBool());
        EXPECT_EQ(cell.at("trialsExecuted").asU64(), 0u);
    }
}

TEST_F(ServiceTest, DuplicateSubmissionAttachesToTheLiveJob)
{
    // Workers are not running yet, so the first job is pinned in
    // state "queued" -- the duplicate submission window is
    // deterministic, not a race against a fast campaign.
    std::string body =
        std::string("{\"experiment\":\"") + EXPERIMENT + "\"}";
    auto first = submit(body);
    ASSERT_EQ(first.status, 202);
    std::string firstJob =
        store::parseJson(first.body).at("job").asString();

    // Submitted again while the first job is still queued/running:
    // idempotent on CellKey, so it attaches instead of duplicating.
    auto second = submit(body);
    ASSERT_EQ(second.status, 202);
    auto outcome = store::parseJson(second.body);
    EXPECT_TRUE(outcome.at("attached").asBool());
    EXPECT_EQ(outcome.at("job").asString(), firstJob);

    startWorkers();
    auto final = store::parseJson(awaitJob(firstJob));
    EXPECT_EQ(final.at("state").asString(), "done");
    // Attached, not duplicated: the sweep ran once.
    EXPECT_EQ(final.at("trialsExecuted").asU64(), 16u);
}

TEST_F(ServiceTest, SingleCellSubmissionAndFigureConflict)
{
    startWorkers();
    auto submitted = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT +
        "\",\"errors\":1,\"policy\":\"protected\"}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    auto outcome = store::parseJson(submitted.body);
    EXPECT_EQ(outcome.at("cells").asU64(), 1u);
    auto final = store::parseJson(
        awaitJob(outcome.at("job").asString()));
    EXPECT_EQ(final.at("state").asString(), "done");

    // One of the sweep's two cells is still missing, so the figure
    // reports a conflict naming it.
    auto figure = client().get(std::string("/v1/figures/") +
                               EXPERIMENT);
    EXPECT_EQ(figure.status, 409);
    auto conflict = store::parseJson(figure.body);
    EXPECT_EQ(conflict.at("missingCells").elements.size(), 1u);

    auto sweep =
        submit(std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    ASSERT_EQ(sweep.status, 202);
    awaitJob(store::parseJson(sweep.body).at("job").asString());
    EXPECT_EQ(client()
                  .get(std::string("/v1/figures/") + EXPERIMENT)
                  .status,
              200);
}

TEST_F(ServiceTest, MalformedRequestsReturn4xxJsonErrors)
{
    auto expectJsonError = [](const Client::Response &response,
                              int status) {
        EXPECT_EQ(response.status, status) << response.body;
        EXPECT_EQ(response.contentType, "application/json");
        auto parsed = store::parseJson(response.body);
        EXPECT_FALSE(parsed.at("error").asString().empty());
        EXPECT_EQ(parsed.at("status").asU64(),
                  static_cast<uint64_t>(status));
    };

    expectJsonError(submit("this is not json"), 400);
    expectJsonError(submit("[1,2,3]"), 400);
    expectJsonError(submit("{}"), 400);
    expectJsonError(submit("{\"experiment\":\"no-such-sweep\"}"), 404);
    expectJsonError(submit(std::string("{\"experiment\":\"") +
                           EXPERIMENT + "\",\"trials\":0}"),
                    400);
    expectJsonError(submit(std::string("{\"experiment\":\"") +
                           EXPERIMENT + "\",\"policy\":\"protected\"}"),
                    400);
    expectJsonError(submit(std::string("{\"experiment\":\"") +
                           EXPERIMENT +
                           "\",\"errors\":1,\"policy\":\"sideways\"}"),
                    400);
    // The removed "mode" alias is refused, naming its replacement,
    // never silently run as the default policy.
    auto aliased = submit(std::string("{\"experiment\":\"") + EXPERIMENT +
                          "\",\"errors\":1,\"mode\":\"unprotected\"}");
    expectJsonError(aliased, 400);
    EXPECT_NE(aliased.body.find("'policy'"), std::string::npos)
        << aliased.body;
    expectJsonError(client().get("/v1/jobs/j999"), 404);
    expectJsonError(client().get("/v1/cells/not-a-fingerprint"), 400);
    expectJsonError(client().get("/v1/cells/0123456789abcdef"), 404);
    expectJsonError(client().get("/v1/cells/../../etc/passwd"), 400);
    expectJsonError(client().get("/v1/figures/no-such-sweep"), 404);
    // A single cell names one sweep, and a paper table has several.
    expectJsonError(submit("{\"experiment\":\"table2\",\"errors\":20}"),
                    400);
    // The seed filter takes what `etc_lab query --seed` takes: digits
    // or 0x hex, no sign and nothing trailing.
    expectJsonError(client().get("/v1/query?agg=cells&seed=-1"), 400);
    expectJsonError(client().get("/v1/query?agg=cells&seed=7abc"), 400);
    // A figure's ?trials= takes what `etc_lab fetch --trials` takes:
    // a malformed value is refused, not read as the default trials.
    for (const char *trials : {"abc", "-4", "99999999999999999999999"})
        expectJsonError(
            client().get(std::string("/v1/figures/smoke?trials=") + trials),
            400);
    // The query names `etc_lab query` refuses are refused here too.
    for (const char *name : {"policy=bogus", "base=bogus", "workload=bogus"})
        expectJsonError(client().get(std::string("/v1/query?") + name),
                        400);
    expectJsonError(client().get("/v1/nope"), 404);
    expectJsonError(client().get("/v1/jobs"), 405);
    expectJsonError(client().post("/v1/healthz", "{}"), 405);
    // A client-chosen lease id whose stripe index overflows is an
    // unknown lease, not a server error.
    expectJsonError(
        client().post("/v1/leases/"
                      "0123456789abcdef.99999999999999999999999of1/"
                      "heartbeat",
                      "{\"worker\":\"w\"}"),
        404);
}

// Two million '[' nest deeper than the JSON reader accepts: a 400,
// and the daemon keeps serving, instead of a stack overflow.
TEST_F(ServiceTest, DeeplyNestedJsonBodyGetsA400)
{
    auto response = submit(std::string(2000000, '['));
    EXPECT_EQ(response.status, 400) << response.body;
    EXPECT_NE(response.body.find("nesting"), std::string::npos)
        << response.body;
    EXPECT_EQ(client().get("/v1/healthz").status, 200);
}

// A raw malformed request line (not even HTTP) gets a 400, not a hang
// or a dropped connection without an answer.
TEST_F(ServiceTest, GarbageRequestLineGetsA400)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in address = {};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(server_->port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&address),
                        sizeof(address)),
              0);
    const char garbage[] = "EXTERMINATE\r\n\r\n";
    ASSERT_EQ(::write(fd, garbage, sizeof(garbage) - 1),
              static_cast<ssize_t>(sizeof(garbage) - 1));
    std::string reply;
    char buffer[4096];
    ssize_t n;
    while ((n = ::read(fd, buffer, sizeof(buffer))) > 0)
        reply.append(buffer, static_cast<size_t>(n));
    ::close(fd);
    EXPECT_EQ(reply.rfind("HTTP/1.1 400 ", 0), 0u) << reply;
}

// The acceptance bar: >= 8 concurrent clients served without error,
// every figure fetch returning identical bytes.
TEST_F(ServiceTest, EightConcurrentClientsAreServedWithoutError)
{
    startWorkers();
    constexpr int CLIENTS = 8;
    std::atomic<int> failures{0};
    std::vector<std::string> figures(CLIENTS);
    std::vector<std::thread> threads;
    threads.reserve(CLIENTS);
    for (int i = 0; i < CLIENTS; ++i) {
        threads.emplace_back([&, i] {
            try {
                Client mine("127.0.0.1", server_->port());
                if (!mine.get("/v1/healthz").ok() ||
                    !mine.get("/v1/experiments").ok()) {
                    ++failures;
                    return;
                }
                auto submitted = mine.post(
                    "/v1/jobs", std::string("{\"experiment\":\"") +
                                    EXPERIMENT + "\"}");
                if (submitted.status != 202) {
                    ++failures;
                    return;
                }
                std::string jobId = store::parseJson(submitted.body)
                                        .at("job")
                                        .asString();
                for (int poll = 0; poll < 3000; ++poll) {
                    auto status = mine.get("/v1/jobs/" + jobId);
                    if (!status.ok()) {
                        ++failures;
                        return;
                    }
                    auto state = store::parseJson(status.body)
                                     .at("state")
                                     .asString();
                    if (state == "done")
                        break;
                    if (state == "failed") {
                        ++failures;
                        return;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                }
                auto figure = mine.get(
                    std::string("/v1/figures/") + EXPERIMENT);
                if (figure.status != 200) {
                    ++failures;
                    return;
                }
                figures[static_cast<size_t>(i)] = figure.body;
            } catch (const std::exception &) {
                ++failures;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0);
    for (int i = 1; i < CLIENTS; ++i)
        EXPECT_EQ(figures[static_cast<size_t>(i)], figures[0])
            << "client " << i << " saw different figure bytes";
}

TEST_F(ServiceTest, QueryEndpointMatchesRunQueryBytes)
{
    startWorkers();
    auto submitted =
        submit(std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    awaitJob(store::parseJson(submitted.body).at("job").asString());

    // GET /v1/query serves exactly the bytes core::runQuery renders
    // over the same cache (the contract `etc_lab query --json` rides).
    for (auto agg : {core::QueryAgg::Cells, core::QueryAgg::Coverage,
                     core::QueryAgg::Curve, core::QueryAgg::Cdf}) {
        auto response = client().get(
            std::string("/v1/query?workload=gsm&agg=") +
            core::queryAggName(agg));
        ASSERT_EQ(response.status, 200) << response.body;
        EXPECT_EQ(response.contentType, "application/json");

        core::QueryOptions options;
        options.filter.workload = "gsm";
        options.agg = agg;
        auto offline = core::runQuery(root_.string(), options);
        EXPECT_EQ(response.body, offline.json)
            << core::queryAggName(agg);
    }

    // The curve rollup covers both submitted cells without loading
    // more than their two records.
    auto curve = store::parseJson(
        client().get("/v1/query?workload=gsm&agg=curve").body);
    EXPECT_EQ(curve.at("cellsMatched").asU64(), 2u);
    EXPECT_EQ(curve.at("recordsLoaded").asU64(), 2u);
    EXPECT_EQ(curve.at("trialsCovered").asU64(), 16u);

    // Repeatable filter params narrow the match set.
    auto narrowed = store::parseJson(
        client().get("/v1/query?workload=gsm&agg=cells&errors=1").body);
    EXPECT_EQ(narrowed.at("cellsMatched").asU64(), 1u);

    // Invalid requests are 400 JSON errors, not 500s.
    for (const char *bad :
         {"/v1/query?agg=bogus", "/v1/query?agg=curve&errors=x",
          "/v1/query?agg=avf&workload=no-such-workload"}) {
        auto response = client().get(bad);
        EXPECT_EQ(response.status, 400) << bad;
        EXPECT_NE(response.body.find("\"error\""), std::string::npos)
            << bad;
    }
}

TEST_F(ServiceTest, IndexEndpointAndHealthReflectTheArchive)
{
    startWorkers();
    auto submitted =
        submit(std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    awaitJob(store::parseJson(submitted.body).at("job").asString());

    auto index = client().get("/v1/index");
    ASSERT_EQ(index.status, 200) << index.body;
    auto parsed = store::parseJson(index.body);
    EXPECT_EQ(parsed.at("health").at("cells").asU64(), 2u);
    EXPECT_EQ(parsed.at("health").at("journalCorrupt").asU64(), 0u);
    ASSERT_EQ(parsed.at("entries").elements.size(), 2u);
    for (const auto &entry : parsed.at("entries").elements) {
        EXPECT_EQ(entry.at("workload").asString(), "gsm");
        EXPECT_TRUE(entry.at("complete").asBool());
    }

    auto health = store::parseJson(client().get("/v1/healthz").body);
    EXPECT_EQ(health.at("indexCells").asU64(), 2u);
    EXPECT_EQ(health.at("indexJournalCorrupt").asU64(), 0u);

    // The experiment registry reports archive coverage via the index.
    auto registry =
        store::parseJson(client().get("/v1/experiments").body);
    for (const auto &entry : registry.at("experiments").elements) {
        uint64_t expected =
            entry.at("name").asString() == EXPERIMENT ? 2u : 0u;
        EXPECT_EQ(entry.at("cellsCached").asU64(), expected)
            << entry.at("name").asString();
    }
}

TEST_F(ServiceTest, LocalExecutorsRenewEveryLeaseTheyHold)
{
    // A lease TTL shorter than one of these cells' stripes, and a few
    // times shorter than their passes: an executor keeps its leases
    // through its pass only by renewing them (every 133 ms, so a
    // renewal may run 250 ms late without losing a lease). The two
    // executors share the experiment's study, so the second must not
    // take the other cell's leases while it waits for the first's
    // pass: at most one cell's two leases are ever active.
    SchedulerConfig config;
    config.cacheDir = (root_ / "short-ttl").string();
    config.workers = 2;
    config.threads = 1;
    config.chunks = 2;
    config.leaseTtlMs = 400;
    uint64_t expired = counterValue("etc_lease_expired_total");
    uint64_t reissued = counterValue("etc_lease_reissued_total");
    Scheduler scheduler(config);
    scheduler.start();
    auto fig5 = bench::findArtifact("fig5");
    ASSERT_TRUE(fig5.has_value());
    constexpr unsigned TRIALS = 1000;
    std::vector<std::string> jobs;
    for (unsigned errors : {5u, 10u})
        jobs.push_back(
            scheduler
                .submit(*fig5, TRIALS,
                        std::make_pair(errors, std::string("unprotected")))
                .jobId);
    size_t mostActive = 0;
    for (const auto &id : jobs) {
        std::optional<service::JobStatus> status;
        for (int i = 0; i < 6000; ++i) {
            status = scheduler.jobStatus(id);
            ASSERT_TRUE(status.has_value());
            mostActive =
                std::max(mostActive, scheduler.fleetStats().leasesActive);
            if (status->state == "done" || status->state == "failed")
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        EXPECT_EQ(status->state, "done");
        EXPECT_EQ(status->trialsExecuted, TRIALS);
    }
    scheduler.stop();
    EXPECT_EQ(mostActive, 2u);

    auto fleet = scheduler.fleetStats();
    EXPECT_EQ(fleet.expired, 0u);
    EXPECT_EQ(fleet.reissued, 0u);
    EXPECT_EQ(counterValue("etc_lease_expired_total"), expired);
    EXPECT_EQ(counterValue("etc_lease_reissued_total"), reissued);
}

} // namespace
