/**
 * @file
 * Distributed campaign fabric tests: the coordinator's cell and lease
 * bookkeeping (admission, decompose, acquire, heartbeat, expiry,
 * re-issue, idempotent completion that hands a cell over on its last
 * open lease, holder-only failure reports, issue-cap failure,
 * settlement), and full coordinator + worker-agent fleets over
 * loopback HTTP -- a coordinator-only daemon drained by two
 * in-process WorkerAgents produces figure bytes identical to the
 * offline render, and a vanished worker's lease re-issues, with the
 * ghost's late completion and the record it carries accepted
 * idempotently (same content-addressed bytes, no second store write,
 * job tally unchanged). The vanished worker mirrors the orchestration
 * suite's kill idiom: it simply stops calling, which is
 * indistinguishable from SIGKILL to the coordinator. An agent returns
 * each landed stripe in one completion request and reports a refused
 * one failed, a coordinator stalled on a completion does not stall
 * the agent's pass, an agent takes no more leases than --max-leases
 * allows and removes the scratch store it made (never a given one),
 * and an agent rebuilds each of a paper table's ablation variants
 * from the sweep name its leases carry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/experiments.hh"
#include "core/study.hh"
#include "service/client.hh"
#include "service/coordinator.hh"
#include "service/http_server.hh"
#include "service/scheduler.hh"
#include "service/service.hh"
#include "service/worker.hh"
#include "store/cell_key.hh"
#include "store/json.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "support/shutdown.hh"

namespace {

using namespace etc;
using service::Cell;
using service::CellState;
using service::Coordinator;
using service::LeaseBeat;
using service::LeaseCell;

constexpr const char *EXPERIMENT = "smoke-gsm";
constexpr const char *FINGERPRINT = "00000000deadbeef";
constexpr uint64_t TTL_MS = 10000;

LeaseCell
testCell(unsigned trials)
{
    LeaseCell cell;
    cell.fingerprint = FINGERPRINT;
    cell.experiment = EXPERIMENT;
    cell.errors = 1;
    cell.policy = "protected";
    cell.trials = trials;
    return cell;
}

/** Admit @p spec and open its leases as a submission whose probe
 *  missed does: @p shardCount of them, @p alreadyDone stripes done. */
std::shared_ptr<Cell>
openCell(Coordinator &coordinator, const LeaseCell &spec,
         unsigned shardCount, const std::vector<bool> &alreadyDone = {})
{
    auto [cell, created] = coordinator.admit(spec, store::CellKey{});
    EXPECT_TRUE(created);
    coordinator.openLeases(*cell, shardCount, alreadyDone);
    return cell;
}

CellState
stateOf(Coordinator &coordinator, const std::shared_ptr<Cell> &cell)
{
    return coordinator.status({cell}).front().state;
}

TEST(CoordinatorTest, DecomposesCellsIntoStripeLeases)
{
    Coordinator coordinator(TTL_MS);
    auto cell = openCell(coordinator, testCell(16), 4);
    // Admitting a live fingerprint again shares the cell.
    auto again = coordinator.admit(testCell(16), store::CellKey{});
    EXPECT_EQ(again.first, cell);
    EXPECT_FALSE(again.second);

    auto stats = coordinator.stats();
    EXPECT_EQ(stats.cells, 1u);
    EXPECT_EQ(stats.leasesPending, 4u);

    auto grants = coordinator.acquire("w1", 2);
    ASSERT_EQ(grants.size(), 2u);
    for (unsigned i = 0; i < grants.size(); ++i) {
        const auto &grant = grants[i];
        EXPECT_EQ(grant.id, std::string(FINGERPRINT) + "." +
                                std::to_string(i) + "of4");
        EXPECT_EQ(grant.shardIndex, i);
        EXPECT_EQ(grant.shardCount, 4u);
        EXPECT_EQ(grant.issue, 1u);
        auto [lo, hi] =
            core::ErrorToleranceStudy::shardRange(16, i, 4);
        EXPECT_EQ(grant.lo, lo);
        EXPECT_EQ(grant.hi, hi);
    }
    stats = coordinator.stats();
    EXPECT_EQ(stats.leasesPending, 2u);
    EXPECT_EQ(stats.leasesActive, 2u);
    EXPECT_EQ(stats.issued, 2u);
    EXPECT_EQ(stats.reissued, 0u);
}

TEST(CoordinatorTest, ResumeStripesStartDoneAndCompletionPromotes)
{
    Coordinator coordinator(TTL_MS);
    // Stripe 0's shard record is already stored (the resume path):
    // only stripe 1 is ever issued.
    auto cell = openCell(coordinator, testCell(8), 2, {true, false});
    auto grants = coordinator.acquire("w1", 8);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].shardIndex, 1u);

    // The only open lease was the last: its completion hands the cell
    // over for promotion, and a repeat hands over nothing.
    EXPECT_EQ(coordinator.complete(grants[0].id, "w1", 4, 0.5), cell);
    EXPECT_EQ(coordinator.complete(grants[0].id, "w1", 4, 0.5), nullptr);

    coordinator.settleDone(cell, 0.0);
    EXPECT_EQ(coordinator.stats().cells, 0u);
    auto status = coordinator.status({cell}).front();
    EXPECT_EQ(status.state, CellState::Done);
    EXPECT_EQ(status.trialsExecuted, 4u);
}

TEST(CoordinatorTest, AcquireGrantsOneCellsPendingLeases)
{
    Coordinator coordinator(TTL_MS);
    LeaseCell other = testCell(8);
    other.fingerprint = "00000000feedface";
    openCell(coordinator, testCell(16), 4);
    openCell(coordinator, other, 2);

    // Room for both cells' six leases, but a grant is one cell's:
    // its stripes run as one pass.
    auto grants = coordinator.acquire("w1", 8);
    ASSERT_EQ(grants.size(), 4u);
    for (const auto &grant : grants)
        EXPECT_EQ(grant.cell.fingerprint, FINGERPRINT);
    auto next = coordinator.acquire("w2", 8);
    ASSERT_EQ(next.size(), 2u);
    for (const auto &grant : next)
        EXPECT_EQ(grant.cell.fingerprint, other.fingerprint);
    EXPECT_TRUE(coordinator.acquire("w3", 8).empty());
}

TEST(CoordinatorTest, LoneCellFansOutOverIdleWorkers)
{
    Coordinator coordinator(TTL_MS);
    // w2 has asked before (and found nothing): it is an idle worker.
    EXPECT_TRUE(coordinator.acquire("w2", 8).empty());
    openCell(coordinator, testCell(16), 4);

    // Two idle workers split the lone cell's four stripes.
    auto first = coordinator.acquire("w1", 8);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].shardIndex, 0u);
    EXPECT_EQ(first[1].shardIndex, 1u);
    // w1 now holds leases, so w2 is the only idle worker left.
    auto second = coordinator.acquire("w2", 8);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(second[0].shardIndex, 2u);
    EXPECT_EQ(second[1].shardIndex, 3u);

    // With w2 busy, w1 takes the next cell whole once it is done.
    LeaseCell other = testCell(8);
    other.fingerprint = "00000000feedface";
    openCell(coordinator, other, 4);
    for (const auto &grant : first)
        EXPECT_EQ(coordinator.complete(grant.id, "w1", 4, 0.25), nullptr);
    auto whole = coordinator.acquire("w1", 8);
    ASSERT_EQ(whole.size(), 4u);
    for (const auto &grant : whole)
        EXPECT_EQ(grant.cell.fingerprint, other.fingerprint);
}

TEST(CoordinatorTest, HeartbeatExtendsOwnersAndAnswersLostToOthers)
{
    Coordinator coordinator(60000);
    openCell(coordinator, testCell(8), 1);
    auto grants = coordinator.acquire("w1", 1);
    ASSERT_EQ(grants.size(), 1u);

    EXPECT_EQ(coordinator.heartbeat(grants[0].id, "w1"),
              LeaseBeat::Active);
    EXPECT_EQ(coordinator.heartbeat(grants[0].id, "somebody-else"),
              LeaseBeat::Lost);
    EXPECT_EQ(coordinator.heartbeat("0123456789abcdef.0of1", "w1"),
              LeaseBeat::Unknown);
    EXPECT_EQ(coordinator.heartbeat("not-a-lease-id", "w1"),
              LeaseBeat::Unknown);
    // A stripe index past any unsigned names no lease either.
    EXPECT_EQ(coordinator.heartbeat(
                  "0123456789abcdef.99999999999999999999999of1", "w1"),
              LeaseBeat::Unknown);
}

TEST(CoordinatorTest, ExpiredLeaseReissuesAndLateCompletionIsIdempotent)
{
    Coordinator coordinator(30);
    auto cell = openCell(coordinator, testCell(8), 1);

    auto first = coordinator.acquire("w1", 1);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].issue, 1u);

    // w1 vanishes (no heartbeat); past the deadline the lease
    // re-pends and the next acquirer gets issue 2.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    auto second = coordinator.acquire("w2", 1);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].id, first[0].id);
    EXPECT_EQ(second[0].issue, 2u);
    auto stats = coordinator.stats();
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.reissued, 1u);

    // The replacement completes; the original's late completion of
    // the same content-addressed range is accepted idempotently --
    // the tally counts the work once, and the cell is handed over
    // for promotion once.
    EXPECT_EQ(coordinator.complete(second[0].id, "w2", 8, 1.0), cell);
    EXPECT_EQ(coordinator.complete(first[0].id, "w1", 8, 1.0), nullptr);
    coordinator.settleDone(cell, 0.0);
    EXPECT_EQ(coordinator.status({cell}).front().trialsExecuted, 8u);
    EXPECT_EQ(coordinator.stats().completed, 1u);
}

TEST(CoordinatorTest, LeaseAtIssueCapFailsItsWholeCell)
{
    Coordinator coordinator(TTL_MS);
    auto cell = openCell(coordinator, testCell(8), 2);

    // Worker-reported failures on the same lease: each re-pends it
    // until the one at the cap settles the cell failed.
    for (unsigned round = 0; round < Coordinator::MAX_LEASE_ISSUES;
         ++round) {
        auto grants = coordinator.acquire("w1", 1);
        ASSERT_EQ(grants.size(), 1u);
        EXPECT_EQ(grants[0].issue, round + 1);
        EXPECT_EQ(stateOf(coordinator, cell), CellState::Running);
        EXPECT_EQ(coordinator.fail(grants[0].id, "w1", "simulated crash"),
                  LeaseBeat::Active);
    }
    auto status = coordinator.status({cell}).front();
    EXPECT_EQ(status.state, CellState::Failed);
    EXPECT_NE(status.error.find("simulated crash"), std::string::npos);
    // Settling drops the cell from the table.
    EXPECT_EQ(coordinator.stats().cells, 0u);
}

TEST(CoordinatorTest, ReopenStripesRePendsAClaimedCell)
{
    Coordinator coordinator(TTL_MS);
    auto cell = openCell(coordinator, testCell(8), 2);
    auto grants = coordinator.acquire("w1", 2);
    ASSERT_EQ(grants.size(), 2u);
    EXPECT_EQ(coordinator.complete(grants[0].id, "w1", 4, 0.25), nullptr);
    ASSERT_EQ(coordinator.complete(grants[1].id, "w1", 4, 0.25), cell);

    // The promoter found stripe 1's shard missing from the store: that
    // stripe re-pends and is re-issued, and its completion hands the
    // cell over again, once.
    coordinator.reopenStripes(*cell, {1});
    EXPECT_EQ(coordinator.stats().leasesPending, 1u);
    auto regrants = coordinator.acquire("w2", 8);
    ASSERT_EQ(regrants.size(), 1u);
    EXPECT_EQ(regrants[0].shardIndex, 1u);
    EXPECT_EQ(regrants[0].issue, 2u);
    EXPECT_EQ(coordinator.complete(regrants[0].id, "w2", 4, 0.25), cell);
    EXPECT_EQ(coordinator.complete(regrants[0].id, "w2", 4, 0.25), nullptr);
}

TEST(CoordinatorTest, AdmissionSharesTheLiveCellUntilItSettles)
{
    Coordinator coordinator(TTL_MS);
    LeaseCell spec = testCell(8);
    auto [first, created] = coordinator.admit(spec, store::CellKey{});
    EXPECT_TRUE(created);
    EXPECT_EQ(stateOf(coordinator, first), CellState::Queued);
    auto again = coordinator.admit(spec, store::CellKey{});
    EXPECT_EQ(again.first, first);
    EXPECT_FALSE(again.second);

    // Until its creator's probe opens its leases, none is granted.
    EXPECT_TRUE(coordinator.acquire("w1", 8).empty());
    // Open, it stays queued until a worker takes a lease.
    coordinator.openLeases(*first, 1, {false});
    EXPECT_EQ(stateOf(coordinator, first), CellState::Queued);
    auto grants = coordinator.acquire("w1", 8);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(stateOf(coordinator, first), CellState::Running);

    // Handed over for promotion, it is still the live cell.
    ASSERT_EQ(coordinator.complete(grants[0].id, "w1", 0, 0.0), first);
    EXPECT_EQ(coordinator.admit(spec, store::CellKey{}).first, first);

    // Settled done, it is not reused: the next admission is a fresh
    // queued cell, and the old cell's holders still read its end.
    coordinator.settleDone(first, 0.25);
    auto second = coordinator.admit(spec, store::CellKey{});
    EXPECT_NE(second.first, first);
    EXPECT_TRUE(second.second);
    EXPECT_EQ(stateOf(coordinator, second.first), CellState::Queued);
    auto settled = coordinator.status({first}).front();
    EXPECT_EQ(settled.state, CellState::Done);
    EXPECT_TRUE(settled.cached);
    EXPECT_EQ(settled.wallSeconds, 0.25);

    // Settled failed, likewise.
    coordinator.settleFailed(second.first, "unreadable store");
    auto third = coordinator.admit(spec, store::CellKey{});
    EXPECT_NE(third.first, second.first);
    EXPECT_TRUE(third.second);
    EXPECT_EQ(stateOf(coordinator, third.first), CellState::Queued);
    auto failed = coordinator.status({second.first}).front();
    EXPECT_EQ(failed.state, CellState::Failed);
    EXPECT_EQ(failed.error, "unreadable store");
}

// A failure report from a worker that no longer holds the lease -- it
// lapsed and was re-granted -- changes nothing: the new holder keeps
// it, it is not granted a third time, and no failure is counted.
TEST(CoordinatorTest, OnlyTheHolderCanReportALeaseFailed)
{
    Coordinator coordinator(200);
    openCell(coordinator, testCell(8), 1);
    auto first = coordinator.acquire("w1", 1);
    ASSERT_EQ(first.size(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    auto second = coordinator.acquire("w2", 1);
    ASSERT_EQ(second.size(), 1u);
    ASSERT_EQ(second[0].issue, 2u);

    EXPECT_EQ(coordinator.fail(first[0].id, "w1", "late crash"),
              LeaseBeat::Lost);
    EXPECT_EQ(coordinator.heartbeat(second[0].id, "w2"), LeaseBeat::Active);
    EXPECT_TRUE(coordinator.acquire("w3", 1).empty());
    auto rows = coordinator.leases();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].state, "active");
    EXPECT_EQ(rows[0].owner, "w2");
    EXPECT_EQ(rows[0].issue, 2u);
    EXPECT_EQ(coordinator.stats().failed, 0u);

    // The holder's own report is taken, and a done lease is nobody's.
    EXPECT_EQ(coordinator.fail(second[0].id, "w2", "crash"),
              LeaseBeat::Active);
    auto third = coordinator.acquire("w3", 1);
    ASSERT_EQ(third.size(), 1u);
    EXPECT_EQ(third[0].issue, 3u);
    EXPECT_EQ(coordinator.stats().failed, 1u);
    EXPECT_NE(coordinator.complete(third[0].id, "w3", 8, 0.5), nullptr);
    EXPECT_EQ(coordinator.fail(third[0].id, "w3", "crash"), LeaseBeat::Lost);
    EXPECT_EQ(coordinator.stats().failed, 1u);
}

/**
 * Fleet integration fixture: a coordinator-only daemon (zero local
 * executors -- all simulation happens on worker agents) behind a real
 * loopback HttpServer, mirroring the ServiceTest setup.
 */
class FleetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearStopRequest();
        root_ = std::filesystem::temp_directory_path() /
                ("etc_fleet_test_" + std::to_string(::getpid()) +
                 "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name());
        std::filesystem::remove_all(root_);

        service::SchedulerConfig config;
        config.cacheDir = (root_ / "coordinator").string();
        config.workers = 0; // coordinator-only
        config.threads = 2;
        config.chunks = 2;
        config.leaseTtlMs = 400;
        scheduler_ =
            std::make_unique<service::Scheduler>(config);
        serviceFacade_ =
            std::make_unique<service::CampaignService>(*scheduler_);
        server_ = std::make_unique<service::HttpServer>(
            0, [this](const service::HttpRequest &request) {
                Hook hook;
                {
                    std::lock_guard<std::mutex> lock(hookMutex_);
                    hook = hook_;
                }
                if (hook)
                    if (auto answer = hook(request))
                        return *answer;
                return serviceFacade_->handle(request);
            });
        serverThread_ = std::thread([this] { server_->run(50); });
        scheduler_->start();
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

    service::Client
    client()
    {
        return service::Client("127.0.0.1", server_->port());
    }

    service::WorkerConfig
    workerConfig(const std::string &name)
    {
        service::WorkerConfig config;
        config.host = "127.0.0.1";
        config.port = server_->port();
        config.name = name;
        config.cacheDir = (root_ / name).string();
        config.threads = 2;
        config.pollMs = 50;
        return config;
    }

    std::string
    submit(const std::string &body)
    {
        auto response = client().post("/v1/jobs", body);
        EXPECT_EQ(response.status, 202) << response.body;
        return store::parseJson(response.body).at("job").asString();
    }

    std::string
    awaitJob(const std::string &jobId)
    {
        service::Client poller = client();
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

    /** What the server thread runs before it handles each request;
     *  blocking in it stalls the whole coordinator, and a response it
     *  returns answers the request instead of the router. */
    using Hook = std::function<std::optional<service::HttpResponse>(
        const service::HttpRequest &)>;

    void
    hookWith(Hook hook)
    {
        std::lock_guard<std::mutex> lock(hookMutex_);
        hook_ = std::move(hook);
    }

    /** The coordinator's pending leases right now (a submission
     *  opens its cells' leases before its POST answers). */
    uint64_t
    pendingLeases()
    {
        return store::parseJson(client().get("/v1/fleet").body)
            .at("leasesPending")
            .asU64();
    }

    std::filesystem::path root_;
    std::mutex hookMutex_;
    Hook hook_;
    std::unique_ptr<service::Scheduler> scheduler_;
    std::unique_ptr<service::CampaignService> serviceFacade_;
    std::unique_ptr<service::HttpServer> server_;
    std::thread serverThread_;
};

TEST_F(FleetTest, TwoWorkerFleetMatchesOfflineRenderByteForByte)
{
    std::string jobId = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");

    service::WorkerAgent w1(workerConfig("w1"));
    service::WorkerAgent w2(workerConfig("w2"));
    w1.start();
    w2.start();

    auto final = store::parseJson(awaitJob(jobId));
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(final.at("cellsDone").asU64(), 2u);
    // Every trial was simulated somewhere in the fleet, none locally.
    EXPECT_EQ(final.at("trialsExecuted").asU64(), 16u);
    for (const auto &cell : final.at("cells").elements)
        EXPECT_FALSE(cell.at("cached").asBool());

    w1.stop();
    w2.stop();
    EXPECT_GE(w1.summary().leasesCompleted +
                  w2.summary().leasesCompleted,
              4u);

    // The fleet figure is byte-identical to the offline render over
    // the coordinator's cache -- the single-host contract, unchanged.
    auto figure =
        client().get(std::string("/v1/figures/") + EXPERIMENT);
    ASSERT_EQ(figure.status, 200) << figure.body;
    const bench::Experiment *exp = bench::findExperiment(EXPERIMENT);
    ASSERT_NE(exp, nullptr);
    bench::BenchOptions opts;
    opts.cacheDir = (root_ / "coordinator").string();
    store::ResultStore cache(opts.cacheDir);
    auto sweep = bench::loadExperimentFromStore(*exp, opts, cache);
    ASSERT_TRUE(sweep.complete());
    std::ostringstream offline;
    bench::renderExperiment(offline, *exp, exp->policies, sweep.points);
    EXPECT_EQ(figure.body, offline.str());

    // The fleet surface saw the whole campaign: 2 cells x 2 chunks.
    auto fleet = store::parseJson(client().get("/v1/fleet").body);
    EXPECT_GE(fleet.at("leasesCompleted").asU64(), 4u);
    EXPECT_EQ(fleet.at("leasesFailed").asU64(), 0u);
}

TEST_F(FleetTest, VanishedWorkerLeaseReissuesAndGhostPushIsIdempotent)
{
    std::string jobId = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT +
        "\",\"errors\":1,\"policy\":\"protected\"}");

    ASSERT_EQ(pendingLeases(), 2u);
    service::Client poller = client();

    // The "ghost" acquires a lease over HTTP and then vanishes: it
    // never heartbeats, which is exactly what SIGKILL looks like from
    // the coordinator's side.
    store::JsonObjectWriter acquireBody;
    acquireBody.field("worker", "ghost").field("max", uint64_t{1});
    auto acquired =
        poller.post("/v1/leases/acquire", acquireBody.str());
    ASSERT_EQ(acquired.status, 200) << acquired.body;
    auto grants = store::parseJson(acquired.body).at("leases");
    ASSERT_EQ(grants.elements.size(), 1u);
    const auto &grant = grants.elements.front();
    // The cell (fingerprint, sweep, errors, policy, trials, seed), the
    // stripe and the lease terms; how the stripe executes is the
    // engine's own choice, so no grant field carries it.
    EXPECT_EQ(grant.members.size(), 13u) << acquired.body;
    std::string leaseId = grant.at("id").asString();
    unsigned lo = grant.at("lo").asU32();
    unsigned hi = grant.at("hi").asU32();

    // Before dying, the ghost executed its stripe (into its own
    // scratch store) -- the record its completion would have carried.
    const bench::Experiment *exp = bench::findExperiment(EXPERIMENT);
    ASSERT_NE(exp, nullptr);
    auto workload =
        workloads::createWorkload(exp->workload, exp->scale);
    bench::BenchOptions ghostOpts;
    ghostOpts.threads = 2;
    ghostOpts.cacheDir = (root_ / "ghost").string();
    ghostOpts.seed = store::parseHexU64(grant.at("seed").asString());
    auto ghostConfig = bench::makeStudyConfig(*exp, ghostOpts);
    auto protection =
        core::computeStudyProtection(*workload, ghostConfig);
    unsigned errors = grant.at("errors").asU32();
    std::string policy = grant.at("policy").asString();
    unsigned trials = grant.at("trials").asU32();
    auto key = core::makeCellKey(*workload, protection, ghostConfig,
                                 errors, policy, trials);
    ASSERT_EQ(key.fingerprint(), grant.at("cell").asString());
    core::ErrorToleranceStudy ghostStudy(*workload, ghostConfig);
    core::CellSummary ghostSummary;
    ghostStudy.runStripes(errors, policy, trials,
                          grant.at("shardCount").asU32(),
                          {grant.at("shardIndex").asU32()},
                          [&](const core::StripeResult &stripe) {
                              ghostSummary = stripe.summary;
                          });
    std::string ghostRecord =
        store::encodeShardRecord(key, lo, hi, ghostSummary);

    // Past the TTL the coordinator re-pends the lease; a live worker
    // picks up the re-issue and drains the job.
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
    service::WorkerAgent replacement(workerConfig("replacement"));
    replacement.start();
    auto final = store::parseJson(awaitJob(jobId));
    replacement.stop();
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(final.at("trialsExecuted").asU64(), 8u);

    auto fleet = store::parseJson(poller.get("/v1/fleet").body);
    EXPECT_GE(fleet.at("leasesExpired").asU64(), 1u);
    EXPECT_GE(fleet.at("leasesReissued").asU64(), 1u);

    // Both workers computed the same content-addressed range: the
    // ghost's record carries identical results to the replacement's.
    // (Every field of the record is deterministic except the
    // wall-clock telemetry the summary line embeds, so compare the
    // decoded content, not the raw file bytes.)
    std::filesystem::path replacementShard =
        std::filesystem::path(workerConfig("replacement").cacheDir) /
        "shards" / key.fingerprint() /
        (std::to_string(lo) + "-" + std::to_string(hi) + ".jsonl");
    ASSERT_TRUE(std::filesystem::exists(replacementShard));
    std::ifstream stream(replacementShard, std::ios::binary);
    std::stringstream replacementBytes;
    replacementBytes << stream.rdbuf();
    auto ghostDecoded = store::decodeShardRecord(ghostRecord, &key);
    auto replacementDecoded =
        store::decodeShardRecord(replacementBytes.str(), &key);
    EXPECT_EQ(ghostDecoded.lo, replacementDecoded.lo);
    EXPECT_EQ(ghostDecoded.hi, replacementDecoded.hi);
    const auto &ghostSum = ghostDecoded.summary;
    const auto &replSum = replacementDecoded.summary;
    EXPECT_EQ(ghostSum.trials, replSum.trials);
    EXPECT_EQ(ghostSum.completed, replSum.completed);
    EXPECT_EQ(ghostSum.crashed, replSum.crashed);
    EXPECT_EQ(ghostSum.timedOut, replSum.timedOut);
    EXPECT_EQ(ghostSum.totalInstructions, replSum.totalInstructions);
    ASSERT_EQ(ghostSum.fidelities.size(), replSum.fidelities.size());
    for (size_t i = 0; i < ghostSum.fidelities.size(); ++i) {
        EXPECT_EQ(ghostSum.fidelities[i].value,
                  replSum.fidelities[i].value);
        EXPECT_EQ(ghostSum.fidelities[i].acceptable,
                  replSum.fidelities[i].acceptable);
    }

    // The ghost's late completion, carrying its record, answers done
    // -- idempotent, not an error -- and writes nothing: the cell is
    // already promoted.
    auto coordinatorFiles = [&] {
        std::map<std::string, std::filesystem::file_time_type> files;
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(root_ /
                                                           "coordinator"))
            if (entry.is_regular_file())
                files[entry.path().string()] = entry.last_write_time();
        return files;
    };
    auto filesBefore = coordinatorFiles();
    store::JsonObjectWriter completeBody;
    completeBody.field("worker", "ghost")
        .field("trialsExecuted", uint64_t{hi - lo})
        .field("wallSeconds", "0.5")
        .field("record", ghostRecord);
    auto completed = poller.post("/v1/leases/" + leaseId + "/complete",
                                 completeBody.str());
    ASSERT_EQ(completed.status, 200) << completed.body;
    auto lateOutcome = store::parseJson(completed.body);
    EXPECT_EQ(lateOutcome.at("state").asString(), "done");
    EXPECT_TRUE(lateOutcome.at("late").asBool());
    EXPECT_EQ(coordinatorFiles(), filesBefore);

    // The ghost's late traffic changed nothing: the job's tally is
    // what the replacement reported.
    auto after = store::parseJson(
        poller.get("/v1/jobs/" + jobId).body);
    EXPECT_EQ(after.at("state").asString(), "done");
    EXPECT_EQ(after.at("trialsExecuted").asU64(), 8u);
}

TEST_F(FleetTest, WarmFleetCacheServesSecondSubmissionWithoutWork)
{
    std::string first = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    service::WorkerAgent agent(workerConfig("warmup"));
    agent.start();
    awaitJob(first);
    agent.stop();

    // The coordinator's store is warm: the re-submitted sweep is
    // served entirely from cache -- no leases, no workers, no trials.
    auto fleetBefore =
        store::parseJson(client().get("/v1/fleet").body);
    uint64_t issuedBefore = fleetBefore.at("leasesIssued").asU64();

    std::string second = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    auto final = store::parseJson(awaitJob(second));
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(final.at("trialsExecuted").asU64(), 0u);
    for (const auto &cell : final.at("cells").elements)
        EXPECT_TRUE(cell.at("cached").asBool());
    auto fleetAfter =
        store::parseJson(client().get("/v1/fleet").body);
    EXPECT_EQ(fleetAfter.at("leasesIssued").asU64(), issuedBefore);
}

// An agent returns each stripe it lands in one request: its lease's
// completion, carrying the record. Two cells of two stripes cost four
// completions, and no other request carries a record.
TEST_F(FleetTest, AgentReturnsEachStripeInOneCompletion)
{
    std::atomic<unsigned> completions{0}, pushes{0};
    hookWith([&](const service::HttpRequest &request)
                 -> std::optional<service::HttpResponse> {
        std::string path = request.path();
        if (path.ends_with("/complete"))
            ++completions;
        else if (path == "/v1/shards")
            ++pushes;
        return std::nullopt;
    });
    std::string jobId = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    service::WorkerAgent agent(workerConfig("single"));
    agent.start();
    auto final = store::parseJson(awaitJob(jobId));
    agent.stop();
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(agent.summary().leasesCompleted, 4u);
    EXPECT_EQ(agent.summary().leasesFailed, 0u);
    EXPECT_EQ(completions.load(), 4u);
    EXPECT_EQ(pushes.load(), 0u);
}

// A completion the coordinator refuses is a failed lease: the agent
// reports it failed, so it re-pends, and completes its re-grant.
TEST_F(FleetTest, AgentReportsARefusedCompletionFailed)
{
    std::string jobId = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT +
        "\",\"errors\":1,\"policy\":\"protected\"}");
    ASSERT_EQ(pendingLeases(), 2u);
    std::atomic<bool> refused{false};
    hookWith([&](const service::HttpRequest &request)
                 -> std::optional<service::HttpResponse> {
        if (!request.path().ends_with("/complete") ||
            request.body.find("\"failed\":true") != std::string::npos ||
            refused.exchange(true))
            return std::nullopt;
        return service::errorResponse(400, "refused by the test");
    });

    service::WorkerAgent agent(workerConfig("refused"));
    agent.start();
    auto final = store::parseJson(awaitJob(jobId));
    agent.stop();
    EXPECT_TRUE(refused.load());
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(agent.summary().leasesFailed, 1u);
    EXPECT_EQ(agent.summary().leasesCompleted, 2u);
    auto fleet = store::parseJson(client().get("/v1/fleet").body);
    EXPECT_EQ(fleet.at("leasesFailed").asU64(), 1u);
}

TEST_F(FleetTest, StalledCoordinatorDoesNotStallThePass)
{
    std::string jobId = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT +
        "\",\"errors\":1,\"policy\":\"protected\"}");
    ASSERT_EQ(pendingLeases(), 2u);

    // The agent's first completion stalls the whole coordinator until
    // the agent's own store holds both of the cell's stripes. A pass
    // that completed from inside the engine could not persist the
    // other stripe meanwhile, and would wait out the stall.
    std::filesystem::path agentShards = root_ / "stalled" / "shards";
    auto persisted = [&] {
        size_t stripes = 0;
        std::error_code ec;
        for (std::filesystem::recursive_directory_iterator it(agentShards,
                                                               ec),
             end;
             !ec && it != end; it.increment(ec))
            if (it->path().extension() == ".jsonl")
                ++stripes;
        return stripes;
    };
    std::atomic<bool> stalled{false};
    std::atomic<size_t> persistedDuringStall{0};
    hookWith([&](const service::HttpRequest &request)
                 -> std::optional<service::HttpResponse> {
        if (!request.path().ends_with("/complete") ||
            stalled.exchange(true))
            return std::nullopt;
        for (int i = 0; i < 1500 && persisted() < 2; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        persistedDuringStall = persisted();
        return std::nullopt;
    });

    service::WorkerAgent agent(workerConfig("stalled"));
    agent.start();
    auto final = store::parseJson(awaitJob(jobId));
    agent.stop();
    EXPECT_TRUE(stalled.load());
    EXPECT_EQ(persistedDuringStall.load(), 2u);
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(final.at("trialsExecuted").asU64(), 8u);
    EXPECT_EQ(agent.summary().leasesCompleted, 2u);
}

TEST_F(FleetTest, AgentTakesNoMoreThanMaxLeases)
{
    // Two cells of two stripes each: four pending leases.
    std::string jobId = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT + "\"}");
    Coordinator &coordinator = scheduler_->coordinator();
    ASSERT_EQ(coordinator.stats().leasesPending, 4u);

    service::WorkerConfig config = workerConfig("capped");
    config.maxLeases = 3;
    service::WorkerAgent agent(config);
    agent.start();
    agent.join();
    EXPECT_EQ(agent.summary().leasesCompleted, 3u);
    EXPECT_EQ(agent.summary().leasesFailed, 0u);
    EXPECT_EQ(coordinator.stats().issued, 3u);

    // A second agent finishes the job.
    service::WorkerAgent rest(workerConfig("rest"));
    rest.start();
    auto final = store::parseJson(awaitJob(jobId));
    rest.stop();
    EXPECT_EQ(final.at("state").asString(), "done");
    EXPECT_EQ(rest.summary().leasesCompleted, 1u);
}

/** Point $TMPDIR at @p dir for the object's lifetime. */
class ScopedTmpdir
{
  public:
    explicit ScopedTmpdir(const std::filesystem::path &dir)
    {
        if (const char *old = std::getenv("TMPDIR"))
            old_ = old;
        ::setenv("TMPDIR", dir.c_str(), 1);
    }

    ScopedTmpdir(const ScopedTmpdir &) = delete;
    ScopedTmpdir &operator=(const ScopedTmpdir &) = delete;

    ~ScopedTmpdir()
    {
        if (old_)
            ::setenv("TMPDIR", old_->c_str(), 1);
        else
            ::unsetenv("TMPDIR");
    }

  private:
    std::optional<std::string> old_;
};

// Without a cache directory an agent works in a scratch store of its
// own under $TMPDIR and removes it once destroyed; a directory it was
// given outlives it.
TEST_F(FleetTest, AgentRemovesOnlyTheScratchStoreItMade)
{
    std::filesystem::path tmp = root_ / "tmp";
    std::filesystem::create_directories(tmp);
    ScopedTmpdir scopedTmpdir(tmp);
    std::string jobId = submit(
        std::string("{\"experiment\":\"") + EXPERIMENT +
        "\",\"errors\":1,\"policy\":\"protected\"}");
    ASSERT_EQ(pendingLeases(), 2u);
    {
        service::WorkerConfig config = workerConfig("scratch");
        config.cacheDir.clear();
        config.maxLeases = 1;
        service::WorkerAgent agent(config);
        std::filesystem::path scratch = agent.config().cacheDir;
        EXPECT_EQ(scratch.parent_path(), tmp);
        agent.start();
        agent.join();
        EXPECT_EQ(agent.summary().leasesCompleted, 1u);
        EXPECT_TRUE(std::filesystem::is_directory(scratch / "shards"));
    }
    EXPECT_TRUE(std::filesystem::is_empty(tmp));

    {
        service::WorkerAgent agent(workerConfig("given"));
        agent.start();
        auto final = store::parseJson(awaitJob(jobId));
        EXPECT_EQ(final.at("state").asString(), "done");
    }
    EXPECT_TRUE(std::filesystem::is_directory(root_ / "given" / "shards"));
    EXPECT_TRUE(std::filesystem::is_empty(tmp));
}

TEST_F(FleetTest, AgentRebuildsEachAblationVariantFromItsSweepName)
{
    constexpr unsigned TRIALS = 2;
    std::string jobId = submit("{\"experiment\":\"ablation_addresses\","
                               "\"trials\":2}");
    service::WorkerAgent agent(workerConfig("ablations"));
    agent.start();
    auto final = store::parseJson(awaitJob(jobId));
    agent.stop();
    ASSERT_EQ(final.at("state").asString(), "done");

    // `etc_lab run` of the same table into a store of its own.
    auto artifact = bench::findArtifact("ablation_addresses");
    ASSERT_TRUE(artifact.has_value());
    bench::BenchOptions opts;
    opts.threads = 2;
    opts.trials = TRIALS;
    opts.cacheDir = (root_ / "run").string();
    bench::SweepStudies studies(opts);
    std::ostringstream run;
    bench::runArtifact(run, *artifact, studies, 2);

    // The fleet's records are the run's, cell for cell (wall time
    // aside): the agent rebuilt each variant's study from the sweep
    // name its leases carried.
    store::ResultStore fleetStore((root_ / "coordinator").string());
    store::ResultStore runStore(opts.cacheDir);
    std::vector<std::string> adpcm;
    for (const bench::Experiment *sweep : artifact->sweeps) {
        for (const auto &key : bench::experimentCellKeys(*sweep, opts)) {
            if (sweep->workload == "adpcm")
                adpcm.push_back(key.fingerprint());
            auto fleet = fleetStore.loadCell(key);
            auto local = runStore.loadCell(key);
            ASSERT_TRUE(fleet && local) << key.canonical();
            EXPECT_EQ(fleet->trials, local->trials);
            EXPECT_EQ(fleet->completed, local->completed);
            EXPECT_EQ(fleet->crashed, local->crashed);
            EXPECT_EQ(fleet->timedOut, local->timedOut);
            EXPECT_EQ(fleet->totalInstructions, local->totalInstructions);
            ASSERT_EQ(fleet->fidelities.size(), local->fidelities.size());
            for (size_t i = 0; i < fleet->fidelities.size(); ++i) {
                EXPECT_EQ(store::doubleBits(fleet->fidelities[i].value),
                          store::doubleBits(local->fidelities[i].value));
                EXPECT_EQ(fleet->fidelities[i].acceptable,
                          local->fidelities[i].acceptable);
            }
        }
    }
    // The paper analysis and address protection tag different sets.
    ASSERT_EQ(adpcm.size(), 2u);
    EXPECT_NE(adpcm[0], adpcm[1]);

    auto served = client().get("/v1/figures/ablation_addresses?trials=2");
    ASSERT_EQ(served.status, 200) << served.body;
    EXPECT_EQ(served.body, run.str());
}

} // namespace
