/**
 * @file
 * Loopback integration tests of the campaign service: a real
 * HttpServer on an ephemeral 127.0.0.1 port, a started Scheduler over
 * a temp result store, and the blocking Client driving the full API
 * -- submit -> poll -> fetch, warm-cache submissions executing zero
 * trials, duplicate submissions attaching to the live job, >= 8
 * concurrent clients, malformed requests (a lease id other than the
 * one granted among them) answered with 4xx JSON,
 * lease completions that take only their own stripe's record, seeded
 * byte mutations of fleet traffic never answered with a 5xx, every
 * route counted under its own metric label, and the GET
 * /v1/figures/<name> byte-identity contract with `etc_lab report`'s
 * render path. Cells settle in the calls that end their work, with
 * no scheduler thread: a warm or fully striped submission in its
 * POST, a cell in its last lease completion, and a lease's fifth
 * lapse at the next status read.
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
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
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
#include "store/index.hh"
#include "store/json.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace {

using namespace etc;
using service::CampaignService;
using service::Client;
using service::Coordinator;
using service::HttpServer;
using service::LeaseBeat;
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

/** Every etc_http_requests_total series, summed over statuses per
 *  endpoint label, from the scrape. */
std::map<std::string, uint64_t>
requestsByEndpoint()
{
    const std::string prefix = "etc_http_requests_total{endpoint=\"";
    std::map<std::string, uint64_t> requests;
    std::istringstream scrape(telemetry::renderPrometheus());
    std::string line;
    while (std::getline(scrape, line)) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        size_t quote = line.find('"', prefix.size());
        requests[line.substr(prefix.size(), quote - prefix.size())] +=
            std::stoull(line.substr(line.rfind(' ') + 1));
    }
    return requests;
}

/** A daemon with no local executors over @p cacheDir: every lease
 *  stays where a test puts it, and nothing simulates. */
SchedulerConfig
coordinatorOnly(const std::filesystem::path &cacheDir)
{
    SchedulerConfig config;
    config.cacheDir = cacheDir.string();
    config.workers = 0;
    config.threads = 1;
    config.chunks = 2;
    return config;
}

/** POST @p body to @p target straight through @p campaign's router. */
service::HttpResponse
postTo(CampaignService &campaign, const std::string &target,
       const std::string &body)
{
    service::HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body;
    return campaign.handle(request);
}

/** GET @p target straight through @p campaign's router. */
service::HttpResponse
getFrom(CampaignService &campaign, const std::string &target)
{
    service::HttpRequest request;
    request.method = "GET";
    request.target = target;
    request.version = "HTTP/1.1";
    return campaign.handle(request);
}

/** A record of trials [lo, hi) of @p key in which every trial
 *  crashed: its shard record, or its cell record when hi is 0. */
std::string
crashedRecord(const store::CellKey &key, unsigned lo, unsigned hi)
{
    core::CellSummary summary;
    summary.errors = key.errors;
    summary.policy = key.policy;
    summary.trials = hi ? hi - lo : key.trials;
    summary.crashed = summary.trials;
    return hi ? store::encodeShardRecord(key, lo, hi, summary)
              : store::encodeCellRecord(key, summary);
}

/** One stripe lease of a smoke-gsm cell, granted to worker "w". */
struct OneLease
{
    std::string jobBody;     //!< the cell's submission
    std::string job;         //!< the job it made
    std::string acquireBody; //!< the acquire that granted the lease
    std::string id;
    store::CellKey key;   //!< the lease's cell
    store::CellKey other; //!< the sweep's other cell
    unsigned lo = 0;
    unsigned hi = 0;
};

/** Submit one smoke-gsm cell to the coordinator-only @p campaign and
 *  acquire one of its two stripe leases into @p lease. */
void
openOneLease(Scheduler &scheduler, CampaignService &campaign,
             OneLease &lease)
{
    lease.jobBody = std::string("{\"experiment\":\"") + EXPERIMENT +
                    "\",\"errors\":1,\"policy\":\"protected\"}";
    auto submitted = postTo(campaign, "/v1/jobs", lease.jobBody);
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    lease.job = store::parseJson(submitted.body).at("job").asString();
    // The POST opened the cell's leases before it answered.
    ASSERT_EQ(scheduler.coordinator().stats().leasesPending, 2u);
    lease.acquireBody = "{\"worker\":\"w\",\"max\":1}";
    auto acquired = postTo(campaign, "/v1/leases/acquire", lease.acquireBody);
    ASSERT_EQ(acquired.status, 200) << acquired.body;
    auto leases = store::parseJson(acquired.body).at("leases");
    ASSERT_EQ(leases.elements.size(), 1u) << acquired.body;
    const auto &grant = leases.elements.front();
    lease.id = grant.at("id").asString();
    lease.lo = grant.at("lo").asU32();
    lease.hi = grant.at("hi").asU32();

    const bench::Experiment *exp = bench::findExperiment(EXPERIMENT);
    ASSERT_NE(exp, nullptr);
    auto keys = bench::experimentCellKeys(*exp, scheduler.studyOptions());
    ASSERT_EQ(keys.size(), 2u);
    bool first = keys[0].fingerprint() == grant.at("cell").asString();
    ASSERT_TRUE(first ||
                keys[1].fingerprint() == grant.at("cell").asString());
    lease.key = keys[first ? 0 : 1];
    lease.other = keys[first ? 1 : 0];
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

    /** Send @p bytes on a fresh connection; @return everything the
     *  server answers until it closes the connection. */
    std::string
    rawExchange(const std::string &bytes)
    {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_in address = {};
        address.sin_family = AF_INET;
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        address.sin_port = htons(server_->port());
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&address),
                            sizeof(address)),
                  0);
        EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
        std::string reply;
        char buffer[4096];
        ssize_t n;
        while ((n = ::read(fd, buffer, sizeof(buffer))) > 0)
            reply.append(buffer, static_cast<size_t>(n));
        ::close(fd);
        return reply;
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
    // A lease call checks its fields as strictly as acquire does: an
    // empty worker name is refused before it is registered as a fleet
    // worker, and wall time is finite.
    const std::string lease = "/v1/leases/0123456789abcdef.0of1/";
    uint64_t workers =
        store::parseJson(client().get("/v1/fleet").body).at("workers").asU64();
    for (const char *action : {"heartbeat", "complete"})
        expectJsonError(client().post(lease + action, "{\"worker\":\"\"}"),
                        400);
    EXPECT_EQ(
        store::parseJson(client().get("/v1/fleet").body).at("workers").asU64(),
        workers);
    for (const char *seconds :
         {"\"inf\"", "\"-inf\"", "\"nan\"", "\"1e999\"", "1e999", "\"-1\""}) {
        auto refused = client().post(
            lease + "complete",
            std::string("{\"worker\":\"w\",\"wallSeconds\":") + seconds +
                "}");
        expectJsonError(refused, 400);
        EXPECT_NE(refused.body.find("'wallSeconds'"), std::string::npos)
            << seconds << ": " << refused.body;
    }
    // Records travel only with their lease's completion: no route
    // takes a record on its own.
    auto pushed = client().post("/v1/shards", "{}");
    expectJsonError(pushed, 404);
    EXPECT_NE(pushed.body.find("no such endpoint"), std::string::npos)
        << pushed.body;

    // Only the exact id the coordinator issued names a lease: another
    // stripe count, a malformed one or a leading zero is a 404 to
    // every lease call, and changes nothing.
    auto submitted = submit(std::string("{\"experiment\":\"") + EXPERIMENT +
                            "\",\"errors\":1,\"policy\":\"protected\"}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    auto acquired =
        client().post("/v1/leases/acquire", "{\"worker\":\"w\",\"max\":1}");
    ASSERT_EQ(acquired.status, 200) << acquired.body;
    auto grant = store::parseJson(acquired.body).at("leases").elements.at(0);
    const std::string cell = grant.at("cell").asString();
    ASSERT_EQ(grant.at("id").asString(), cell + ".0of2");
    auto fleetCounts = [&] {
        auto fleet = store::parseJson(client().get("/v1/fleet").body);
        std::vector<uint64_t> counts;
        for (const char *field : {"leasesPending", "leasesActive",
                                  "leasesCompleted", "leasesFailed"})
            counts.push_back(fleet.at(field).asU64());
        return counts;
    };
    auto before = fleetCounts();
    for (const char *stripe :
         {"0of99", "0ofzz", "0of", "00of2", "1of7", "0of2x", "+0of2"}) {
        const std::string target = "/v1/leases/" + cell + "." + stripe + "/";
        expectJsonError(
            client().post(target + "heartbeat", "{\"worker\":\"w\"}"), 404);
        expectJsonError(client().post(target + "complete",
                                      "{\"worker\":\"w\",\"record\":\"x\"}"),
                        404);
        expectJsonError(client().post(target + "complete",
                                      "{\"worker\":\"w\",\"failed\":true}"),
                        404);
    }
    EXPECT_EQ(fleetCounts(), before);
    EXPECT_FALSE(std::filesystem::exists(root_ / "shards"));
    EXPECT_EQ(scheduler_->coordinator().heartbeat(cell + ".0of2", "w"),
              LeaseBeat::Active);
}

// One request to each of the router's 14 routes counts once under
// that route's own label, whatever its status, and opens one
// http/<label> span; only a path no route claims counts as "other",
// and it opens none.
TEST_F(ServiceTest, EveryRouteCountsUnderItsOwnLabel)
{
    struct Call
    {
        bool post;
        std::string target;
        std::string label;
    };
    const std::vector<Call> calls = {
        {true, "/v1/jobs", "/v1/jobs"},
        {false, "/v1/jobs/j999", "/v1/jobs/*"},
        {false, "/v1/cells/0123456789abcdef", "/v1/cells/*"},
        {false, "/v1/experiments", "/v1/experiments"},
        {false, "/v1/policies", "/v1/policies"},
        {false, "/v1/figures/no-such-sweep", "/v1/figures/*"},
        {false, "/v1/analysis/no-such-workload", "/v1/analysis/*"},
        {false, "/v1/query?agg=cells", "/v1/query"},
        {false, "/v1/index", "/v1/index"},
        {true, "/v1/leases/acquire", "/v1/leases/acquire"},
        {true, "/v1/leases/0123456789abcdef.0of1/heartbeat", "/v1/leases/*"},
        {false, "/v1/fleet", "/v1/fleet"},
        {false, "/v1/healthz", "/v1/healthz"},
        {false, "/v1/metricz", "/v1/metricz"},
        {false, "/v1/no-such-route", "other"},
    };
    std::filesystem::create_directories(root_);
    const std::string tracePath = (root_ / "routes.trace.jsonl").string();
    auto before = requestsByEndpoint();
    telemetry::Tracer::instance().open(tracePath);
    Client http = client();
    for (const Call &call : calls) {
        auto response = call.post
                            ? http.post(call.target, "{\"worker\":\"w\"}")
                            : http.get(call.target);
        EXPECT_LT(response.status, 500) << call.target << ": "
                                        << response.body;
    }
    telemetry::Tracer::instance().close();
    auto after = requestsByEndpoint();

    std::map<std::string, unsigned> spans;
    std::ifstream trace(tracePath);
    for (std::string line; std::getline(trace, line);) {
        if (line.find("\"cat\":\"http\"") == std::string::npos)
            continue;
        size_t name = line.find("\"name\":\"") + 8;
        ++spans[line.substr(name, line.find('"', name) - name)];
    }
    EXPECT_EQ(spans.size(), calls.size() - 1);

    std::set<std::string> labels;
    for (const Call &call : calls) {
        labels.insert(call.label);
        EXPECT_EQ(after[call.label] - before[call.label], 1u)
            << call.target;
        EXPECT_EQ(spans[call.label], call.label == "other" ? 0u : 1u)
            << call.target;
    }
    EXPECT_EQ(labels.size(), calls.size());
    for (const auto &[label, requests] : after) {
        if (labels.count(label))
            continue;
        EXPECT_EQ(requests, before[label]) << label;
    }
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
    std::string reply = rawExchange("EXTERMINATE\r\n\r\n");
    EXPECT_EQ(reply.rfind("HTTP/1.1 400 ", 0), 0u) << reply;
}

// Content-Length is digits only, like ?trials= and ?seed=: a signed
// length is a 400, neither a wrapped "body too large" nor a length.
TEST_F(ServiceTest, SignedContentLengthGetsA400)
{
    for (const char *length : {"-1", "+2", "2x", ""}) {
        std::string reply = rawExchange(
            std::string("GET /v1/healthz HTTP/1.1\r\nConnection: close"
                        "\r\nContent-Length: ") +
            length + "\r\n\r\nxx");
        EXPECT_EQ(reply.rfind("HTTP/1.1 400 ", 0), 0u)
            << length << ": " << reply;
        EXPECT_NE(reply.find("malformed Content-Length"), std::string::npos)
            << length << ": " << reply;
    }
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

// The daemon serves its archive from memory, yet a cell another
// process writes behind its back shows up in the very next answer,
// byte-identical to the offline render paths; a repeated query over
// the unchanged archive reads no record bytes.
TEST_F(ServiceTest, AnswersFollowCellsWrittenBehindTheDaemon)
{
    // smoke's cells, computed offline in a store of their own.
    auto smoke = bench::findArtifact("smoke");
    ASSERT_TRUE(smoke.has_value() && smoke->figure);
    bench::BenchOptions opts = scheduler_->studyOptions();
    opts.cacheDir = (root_ / "offline").string();
    std::ostringstream rendered;
    {
        bench::SweepStudies studies(opts);
        ASSERT_FALSE(
            bench::runArtifact(rendered, *smoke, studies, 1).interrupted);
    }
    auto keys = bench::experimentCellKeys(*smoke->figure, opts);
    ASSERT_GE(keys.size(), 2u);
    store::ResultStore offline(opts.cacheDir);
    store::ResultStore writer(root_.string()); // "another process"
    auto write = [&](const store::CellKey &key) {
        auto summary = offline.loadCell(key);
        ASSERT_TRUE(summary.has_value()) << key.canonical();
        writer.storeCell(key, *summary);
    };

    core::QueryOptions curve;
    curve.agg = core::QueryAgg::Curve;
    auto expectQueryMatchesCli = [&](const std::string &step) {
        auto served = client().get("/v1/query?agg=curve");
        ASSERT_EQ(served.status, 200) << step;
        EXPECT_EQ(served.body, core::runQuery(root_.string(), curve).json)
            << step;
    };
    for (size_t i = 0; i + 1 < keys.size(); ++i)
        write(keys[i]);
    expectQueryMatchesCli("all cells but one");
    EXPECT_EQ(client().get("/v1/figures/smoke").status, 409);

    write(keys.back());
    expectQueryMatchesCli("every cell");
    auto figure = client().get("/v1/figures/smoke");
    ASSERT_EQ(figure.status, 200) << figure.body;
    EXPECT_EQ(figure.body, rendered.str());

    uint64_t bytes = counterValue("etc_store_bytes_read_total");
    auto again = client().get("/v1/query?agg=curve");
    ASSERT_EQ(again.status, 200);
    EXPECT_EQ(store::parseJson(again.body).at("recordsLoaded").asU64(),
              keys.size());
    EXPECT_EQ(client().get("/v1/figures/smoke").body, rendered.str());
    EXPECT_EQ(counterValue("etc_store_bytes_read_total"), bytes);
}

// What a writer killed right after its rename leaves -- a record in
// cells/ and nothing else -- is the whole of a cell: a fresh index and
// a long-lived one list it, agg=cells counts it, and the running
// daemon's next /v1/query serves it.
TEST_F(ServiceTest, ARecordRenamedIntoCellsAloneIsServed)
{
    store::CellKey key;
    key.workload = "gsm";
    key.policy = "protected";
    key.errors = 1;
    key.trials = 4;
    key.seed = 0xbe7c;
    key.budgetFactor = 10.0;
    key.memoryModel = "lenient";
    key.programHash = "0x1";
    core::CellSummary summary;
    summary.errors = key.errors;
    summary.policy = key.policy;
    summary.trials = key.trials;
    summary.crashed = key.trials;

    core::QueryOptions cells;
    cells.agg = core::QueryAgg::Cells;
    store::StoreIndex longLived(root_.string());
    longLived.load();
    auto before = client().get("/v1/query?agg=cells");
    ASSERT_EQ(before.status, 200) << before.body;
    EXPECT_EQ(store::parseJson(before.body).at("cellsMatched").asU64(), 0u);

    auto staged = root_ / "staged";
    std::filesystem::create_directories(root_ / "cells");
    std::ofstream(staged, std::ios::binary)
        << store::encodeCellRecord(key, summary);
    std::filesystem::rename(staged, root_ / "cells" /
                                        (key.fingerprint() + ".jsonl"));

    store::StoreIndex fresh(root_.string());
    fresh.load();
    EXPECT_TRUE(fresh.hasCell(key.fingerprint()));
    longLived.load();
    EXPECT_TRUE(longLived.hasCell(key.fingerprint()));
    auto offline = core::runQuery(root_.string(), cells);
    EXPECT_EQ(store::parseJson(offline.json).at("cellsMatched").asU64(), 1u);
    auto served = client().get("/v1/query?agg=cells");
    ASSERT_EQ(served.status, 200) << served.body;
    EXPECT_EQ(served.body, offline.json);
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
    EXPECT_EQ(parsed.at("health").at("orphanedShards").asU64(), 0u);
    ASSERT_EQ(parsed.at("entries").elements.size(), 2u);
    for (const auto &entry : parsed.at("entries").elements)
        EXPECT_EQ(entry.at("workload").asString(), "gsm");

    auto health = store::parseJson(client().get("/v1/healthz").body);
    EXPECT_EQ(health.at("indexCells").asU64(), 2u);
    EXPECT_EQ(health.at("indexOrphanedShards").asU64(), 0u);

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
            mostActive = std::max(
                mostActive, scheduler.coordinator().stats().leasesActive);
            if (status->state == "done" || status->state == "failed")
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        EXPECT_EQ(status->state, "done");
        EXPECT_EQ(status->trialsExecuted, TRIALS);
    }
    scheduler.stop();
    EXPECT_EQ(mostActive, 2u);

    auto fleet = scheduler.coordinator().stats();
    EXPECT_EQ(fleet.expired, 0u);
    EXPECT_EQ(fleet.reissued, 0u);
    EXPECT_EQ(counterValue("etc_lease_expired_total"), expired);
    EXPECT_EQ(counterValue("etc_lease_reissued_total"), reissued);
}

// A completion must carry its own stripe's record. Without one, or
// with one that does not decode, that is the sweep's other cell's or
// that is the cell's other stripe, it is a 400 that writes no file
// and leaves the lease active with its holder; the lease's own shard
// record completes it and is the one file written.
TEST_F(ServiceTest, CompletionTakesOnlyItsLeasesRecord)
{
    std::filesystem::path cache = root_ / "refusals";
    Scheduler scheduler(coordinatorOnly(cache));
    CampaignService campaign(scheduler);
    scheduler.start();
    OneLease lease;
    ASSERT_NO_FATAL_FAILURE(openOneLease(scheduler, campaign, lease));

    auto complete = [&](const std::optional<std::string> &record) {
        store::JsonObjectWriter body;
        body.field("worker", "w")
            .field("trialsExecuted", uint64_t{lease.hi - lease.lo});
        if (record)
            body.field("record", *record);
        return postTo(campaign, "/v1/leases/" + lease.id + "/complete",
                      body.str());
    };
    auto files = [&] {
        size_t count = 0;
        std::error_code ec;
        for (std::filesystem::recursive_directory_iterator it(cache, ec),
             end;
             !ec && it != end; it.increment(ec))
            count += it->is_regular_file();
        return count;
    };
    unsigned trials = lease.key.trials;
    auto [otherLo, otherHi] = lease.lo == 0
                                  ? std::pair(lease.hi, trials)
                                  : std::pair(0u, lease.lo);
    std::string own = crashedRecord(lease.key, lease.lo, lease.hi);
    const std::vector<std::pair<std::string, std::optional<std::string>>>
        refused = {
            {"no record", std::nullopt},
            {"a record that does not decode", "not a record"},
            {"a truncated record", own.substr(0, own.size() / 2)},
            {"the other cell's record", crashedRecord(lease.other, 0, 0)},
            {"the other cell's shard",
             crashedRecord(lease.other, lease.lo, lease.hi)},
            {"the other stripe's shard",
             crashedRecord(lease.key, otherLo, otherHi)},
        };
    for (const auto &[what, record] : refused) {
        auto response = complete(record);
        EXPECT_EQ(response.status, 400) << what << ": " << response.body;
        EXPECT_EQ(files(), 0u) << what;
        EXPECT_EQ(scheduler.coordinator().heartbeat(lease.id, "w"),
                  LeaseBeat::Active)
            << what;
    }
    auto stats = scheduler.coordinator().stats();
    EXPECT_EQ(stats.leasesActive, 1u);
    EXPECT_EQ(stats.completed, 0u);

    auto done = complete(own);
    ASSERT_EQ(done.status, 200) << done.body;
    EXPECT_EQ(store::parseJson(done.body).at("state").asString(), "done");
    EXPECT_EQ(files(), 1u);
    EXPECT_TRUE(store::ResultStore(cache.string())
                    .hasShard(lease.key, lease.lo, lease.hi));
    EXPECT_EQ(scheduler.coordinator().stats().completed, 1u);
    scheduler.stop();
}

// Hostile fleet traffic: seeded byte mutations (flip, insert, delete,
// duplicate) of every fleet call's body and lease id are answered with
// a JSON body and a status below 500, and nothing escapes the router.
// A coordinator-only scheduler serves them, so nothing simulates.
TEST_F(ServiceTest, MutatedFleetTrafficNeverGetsA5xx)
{
    Scheduler scheduler(coordinatorOnly(root_ / "hostile"));
    CampaignService campaign(scheduler);
    scheduler.start();

    // The seeds: one smoke-gsm cell, a lease of it, and the lease's
    // completion carrying a valid shard record of its stripe, so the
    // mutations reach the record decoder too.
    OneLease lease;
    ASSERT_NO_FATAL_FAILURE(openOneLease(scheduler, campaign, lease));
    store::JsonObjectWriter completion;
    completion.field("worker", "w")
        .field("trialsExecuted", uint64_t{lease.hi - lease.lo})
        .field("wallSeconds", "0.5")
        .field("record", crashedRecord(lease.key, lease.lo, lease.hi));

    struct Seed
    {
        std::string target; //!< "<lease id>" stands for the lease id
        std::string body;
    };
    const std::string LEASE = "<lease id>";
    // In an order each succeeds in: the failure re-pends the lease,
    // and the second acquire re-grants it.
    const std::vector<Seed> seeds = {
        {"/v1/jobs", lease.jobBody},
        {"/v1/leases/" + LEASE + "/heartbeat", "{\"worker\":\"w\"}"},
        {"/v1/leases/" + LEASE + "/complete",
         "{\"worker\":\"w\",\"failed\":true,\"error\":\"crash\"}"},
        {"/v1/leases/acquire", lease.acquireBody},
        {"/v1/leases/" + LEASE + "/complete", completion.str()},
    };
    auto expand = [&](const Seed &seed, const std::string &id) {
        std::string target = seed.target;
        if (size_t at = target.find(LEASE); at != std::string::npos)
            target.replace(at, LEASE.size(), id);
        return target;
    };
    for (const Seed &seed : seeds) {
        auto response = postTo(campaign, expand(seed, lease.id), seed.body);
        EXPECT_LT(response.status, 300)
            << expand(seed, lease.id) << ": " << response.body;
    }

    std::mt19937_64 rng(20061025);
    auto pick = [&](size_t n) {
        return static_cast<size_t>(rng() % std::max<size_t>(n, 1));
    };
    auto mutate = [&](std::string text) {
        for (size_t edits = 1 + pick(4); edits > 0; --edits) {
            size_t at = pick(text.size() + 1);
            switch (pick(4)) {
              case 0: // flip one bit
                if (at < text.size())
                    text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
                break;
              case 1: // insert a byte
                text.insert(at, 1, static_cast<char>(pick(256)));
                break;
              case 2: // delete a run
                if (at < text.size())
                    text.erase(at, 1 + pick(8));
                break;
              default: // duplicate a run
                if (at < text.size())
                    text.insert(pick(text.size() + 1),
                                text.substr(at, 1 + pick(16)));
                break;
            }
        }
        return text;
    };

    constexpr int MUTATIONS = 2400;
    unsigned recordsRefused = 0;
    for (int i = 0; i < MUTATIONS; ++i) {
        const Seed &seed = seeds[pick(seeds.size())];
        bool leaseCall = seed.target.find(LEASE) != std::string::npos;
        bool mutateId = leaseCall && pick(2) == 0;
        std::string target =
            expand(seed, mutateId ? mutate(lease.id) : lease.id);
        std::string body = mutateId ? seed.body : mutate(seed.body);
        service::HttpResponse response;
        try {
            response = postTo(campaign, target, body);
        } catch (const std::exception &e) {
            FAIL() << "mutation " << i << " of " << target
                   << " escaped the router: " << e.what();
        }
        ASSERT_GE(response.status, 200) << target;
        ASSERT_LT(response.status, 500)
            << target << " " << body << ": " << response.body;
        ASSERT_EQ(response.contentType, "application/json") << target;
        store::JsonValue answer;
        ASSERT_NO_THROW(answer = store::parseJson(response.body))
            << target << ": " << response.body;
        ASSERT_TRUE(answer.isObject()) << target << ": " << response.body;
        recordsRefused +=
            response.body.find("unacceptable record") != std::string::npos;
    }
    // Mutated records reached the record decoders and were refused.
    EXPECT_GT(recordsRefused, 0u);
    scheduler.stop();
}

// A warm submission settles in its own POST: the 202 answers "done",
// every cell cached, although no scheduler thread was ever started.
TEST_F(ServiceTest, WarmSubmissionSettlesInItsPost)
{
    auto artifact = bench::findArtifact(EXPERIMENT);
    ASSERT_TRUE(artifact.has_value());
    {
        bench::SweepStudies studies(scheduler_->studyOptions());
        std::ostringstream rendered;
        ASSERT_FALSE(
            bench::runArtifact(rendered, *artifact, studies, 1).interrupted);
    }

    auto submitted =
        submit(std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    auto outcome = store::parseJson(submitted.body);
    EXPECT_EQ(outcome.at("state").asString(), "done") << submitted.body;
    auto status = store::parseJson(
        client().get("/v1/jobs/" + outcome.at("job").asString()).body);
    EXPECT_EQ(status.at("state").asString(), "done");
    EXPECT_EQ(status.at("trialsExecuted").asU64(), 0u);
    ASSERT_EQ(status.at("cells").elements.size(), 2u);
    for (const auto &cell : status.at("cells").elements)
        EXPECT_TRUE(cell.at("cached").asBool());
    EXPECT_EQ(scheduler_->coordinator().stats().issued, 0u);
}

// The completion of a cell's last lease promotes the cell before it
// answers: with no scheduler thread at all, the record is in cells/
// when the response arrives, and the job reads done at once.
TEST_F(ServiceTest, LastCompletionAnswersAfterTheCellIsStored)
{
    std::filesystem::path cache = root_ / "settle";
    Scheduler scheduler(coordinatorOnly(cache));
    CampaignService campaign(scheduler);
    OneLease lease;
    ASSERT_NO_FATAL_FAILURE(openOneLease(scheduler, campaign, lease));
    auto rest = postTo(campaign, "/v1/leases/acquire", lease.acquireBody);
    ASSERT_EQ(rest.status, 200) << rest.body;
    auto grants = store::parseJson(rest.body).at("leases");
    ASSERT_EQ(grants.elements.size(), 1u) << rest.body;
    const auto &other = grants.elements.front();

    auto complete = [&](const std::string &id, unsigned lo, unsigned hi) {
        store::JsonObjectWriter body;
        body.field("worker", "w")
            .field("trialsExecuted", uint64_t{hi - lo})
            .field("record", crashedRecord(lease.key, lo, hi));
        auto response =
            postTo(campaign, "/v1/leases/" + id + "/complete", body.str());
        EXPECT_EQ(response.status, 200) << response.body;
    };
    std::filesystem::path record =
        cache / "cells" / (lease.key.fingerprint() + ".jsonl");
    complete(lease.id, lease.lo, lease.hi);
    EXPECT_FALSE(std::filesystem::exists(record));
    complete(other.at("id").asString(), other.at("lo").asU32(),
             other.at("hi").asU32());
    EXPECT_TRUE(std::filesystem::exists(record));
    EXPECT_FALSE(std::filesystem::exists(cache / "shards" /
                                         lease.key.fingerprint()));

    auto answer = getFrom(campaign, "/v1/jobs/" + lease.job);
    ASSERT_EQ(answer.status, 200) << answer.body;
    auto status = store::parseJson(answer.body);
    EXPECT_EQ(status.at("state").asString(), "done");
    EXPECT_EQ(status.at("trialsExecuted").asU64(), lease.key.trials);
    EXPECT_FALSE(status.at("cells").elements.at(0).at("cached").asBool());
}

// A submission whose every stripe is stored is promoted by its POST:
// no lease is granted, and no trial is counted.
TEST_F(ServiceTest, FullyStoredSubmissionIsPromotedByItsPost)
{
    std::filesystem::path cache = root_ / "stripes";
    Scheduler scheduler(coordinatorOnly(cache));
    CampaignService campaign(scheduler);
    const bench::Experiment *exp = bench::findExperiment(EXPERIMENT);
    ASSERT_NE(exp, nullptr);
    auto keys = bench::experimentCellKeys(*exp, scheduler.studyOptions());
    ASSERT_EQ(keys.size(), 2u);
    const store::CellKey &key = keys.front();
    store::ResultStore store(cache.string());
    for (unsigned i = 0; i < 2; ++i) {
        auto [lo, hi] =
            core::ErrorToleranceStudy::shardRange(key.trials, i, 2);
        store.ingestRecord(crashedRecord(key, lo, hi), key, lo, hi);
    }

    auto submitted = postTo(
        campaign, "/v1/jobs",
        store::JsonObjectWriter()
            .field("experiment", EXPERIMENT)
            .field("errors", uint64_t{key.errors})
            .field("policy", key.policy)
            .str());
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    auto outcome = store::parseJson(submitted.body);
    EXPECT_EQ(outcome.at("state").asString(), "done") << submitted.body;
    EXPECT_TRUE(store.hasCell(key));
    auto status = scheduler.jobStatus(outcome.at("job").asString());
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->trialsExecuted, 0u);
    EXPECT_TRUE(status->cells.front().cached);
    EXPECT_EQ(scheduler.coordinator().stats().issued, 0u);
}

// A lease that lapses on its fifth grant fails its cell at the next
// status read, with no scheduler thread to notice the lapse.
TEST_F(ServiceTest, FifthLapseFailsItsCellAtTheNextStatusRead)
{
    SchedulerConfig config = coordinatorOnly(root_ / "lapses");
    config.leaseTtlMs = 30;
    Scheduler scheduler(config);
    auto artifact = bench::findArtifact(EXPERIMENT);
    ASSERT_TRUE(artifact.has_value());
    std::string job =
        scheduler
            .submit(*artifact, 0, std::make_pair(1u, std::string("protected")))
            .jobId;
    Coordinator &coordinator = scheduler.coordinator();
    for (unsigned issue = 1; issue <= Coordinator::MAX_LEASE_ISSUES; ++issue) {
        auto grants = coordinator.acquire("w", 1);
        ASSERT_EQ(grants.size(), 1u);
        EXPECT_EQ(grants[0].issue, issue);
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    auto status = scheduler.jobStatus(job);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, "failed");
    EXPECT_NE(status->cells.front().error.find("expired after 5 grants"),
              std::string::npos)
        << status->cells.front().error;
}

/** Threads of this process, from /proc/self/task. */
size_t
threadCount()
{
    size_t threads = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++threads;
    return threads;
}

// A coordinator-only scheduler runs no thread of its own, started or
// not; with executors, it runs one per executor and a lease keeper.
TEST_F(ServiceTest, SchedulerThreadsAreItsExecutorsAndTheirKeeper)
{
    size_t before = threadCount();
    {
        Scheduler scheduler(coordinatorOnly(root_ / "threads0"));
        scheduler.start();
        EXPECT_EQ(threadCount(), before);
    }
    SchedulerConfig config = coordinatorOnly(root_ / "threads2");
    config.workers = 2;
    Scheduler scheduler(config);
    EXPECT_EQ(threadCount(), before + 1);
    scheduler.start();
    EXPECT_EQ(threadCount(), before + 3);
    scheduler.stop();
}

} // namespace
