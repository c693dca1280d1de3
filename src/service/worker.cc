#include "service/worker.hh"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "bench/common.hh"
#include "service/client.hh"
#include "store/json.hh"
#include "store/record.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/table.hh"
#include "telemetry/metrics.hh"

namespace etc::service {

namespace {

/** Worker-process metrics (the agent's own accounting; the
 *  coordinator's etc_lease_* and etc_worker_* series are the fleet
 *  view scraped from /v1/metricz). */
struct WorkerMetrics
{
    telemetry::Counter &leasesCompleted = telemetry::counter(
        "etc_work_leases_completed_total",
        "Leases this agent executed and completed");
    telemetry::Counter &leasesFailed = telemetry::counter(
        "etc_work_leases_failed_total",
        "Leases this agent reported failed");
};

WorkerMetrics &
workerMetrics()
{
    static WorkerMetrics metrics;
    return metrics;
}

/** Decode one /v1/leases/acquire grant. Throws JsonError on any
 *  missing or ill-typed field (version skew fails loudly). */
LeaseGrant
parseGrant(const store::JsonValue &value)
{
    LeaseGrant grant;
    grant.id = value.at("id").asString();
    grant.cell.fingerprint = value.at("cell").asString();
    grant.cell.experiment = value.at("experiment").asString();
    grant.cell.errors = value.at("errors").asU32();
    grant.cell.policy = value.at("policy").asString();
    grant.cell.trials = value.at("trials").asU32();
    grant.cell.seed = store::parseHexU64(value.at("seed").asString());
    grant.shardIndex = value.at("shardIndex").asU32();
    grant.shardCount = value.at("shardCount").asU32();
    grant.lo = value.at("lo").asU32();
    grant.hi = value.at("hi").asU32();
    grant.issue = value.at("issue").asU32();
    grant.ttlMs = value.at("ttlMs").asU64();
    return grant;
}

} // namespace

WorkerAgent::WorkerAgent(WorkerConfig config)
    : config_(std::move(config)),
      keeper_([this](const std::string &id, const std::string &worker) {
          beatLease(id, worker);
      })
{
    if (config_.port == 0)
        fatal("worker: a coordinator port is required");
    if (config_.name.empty()) {
        // snprintf: GCC 12's -Wrestrict misfires on appending
        // std::to_string(...) to a short literal.
        char name[32];
        std::snprintf(name, sizeof(name), "w%ld",
                      static_cast<long>(::getpid()));
        config_.name = name;
    }
    if (config_.cacheDir.empty()) {
        // A fresh directory of its own, so no other agent (of this
        // process or of an earlier one with the same pid) shares it.
        std::string scratch = "etc_work.";
        scratch += std::to_string(::getpid());
        scratch = (std::filesystem::temp_directory_path() /
                   (scratch + ".XXXXXX"))
                      .string();
        if (!::mkdtemp(scratch.data()))
            fatal("worker: cannot create a scratch store at ", scratch,
                  ": ", std::strerror(errno));
        config_.cacheDir = scratch;
        ownsCacheDir_ = true;
    }
    config_.pollMs = std::max<uint64_t>(10, config_.pollMs);
}

WorkerAgent::~WorkerAgent()
{
    stop();
    if (ownsCacheDir_) {
        std::error_code ec;
        std::filesystem::remove_all(config_.cacheDir, ec);
    }
}

void
WorkerAgent::start()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (started_)
            return;
        started_ = true;
    }
    executor_ = std::thread([this] { executorLoop(); });
}

void
WorkerAgent::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    stopCv_.notify_all();
    join();
}

void
WorkerAgent::join()
{
    if (executor_.joinable())
        executor_.join();
}

WorkerAgent::Summary
WorkerAgent::summary() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return summary_;
}

bool
WorkerAgent::stopNow() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stopping_ || stopRequested();
}

void
WorkerAgent::executorLoop()
{
    auto sleepFor = [this](uint64_t ms) {
        std::unique_lock<std::mutex> lock(mutex_);
        stopCv_.wait_for(lock, std::chrono::milliseconds(ms),
                         [this] { return stopping_; });
    };

    unsigned failures = 0;
    while (!stopNow()) {
        // Its share of one cell's pending stripes, within
        // --max-leases.
        uint64_t max = std::numeric_limits<uint32_t>::max();
        if (config_.maxLeases) {
            if (leasesTaken_ >= config_.maxLeases)
                return;
            max = std::min(max, config_.maxLeases - leasesTaken_);
        }
        std::vector<LeaseGrant> grants;
        try {
            grants = acquire(max);
        } catch (const std::exception &e) {
            // Transport or protocol trouble: back off exponentially
            // (capped) so a downed coordinator is not hammered, and
            // keep trying -- it may just be restarting.
            ++failures;
            uint64_t delay = std::min<uint64_t>(
                config_.pollMs << std::min(failures, 6u), 10000);
            warn("worker ", config_.name, ": acquire failed (",
                 e.what(), "); retrying in ", delay, " ms");
            sleepFor(delay);
            continue;
        }
        leasesTaken_ += grants.size();
        failures = 0;
        if (grants.empty()) {
            sleepFor(config_.pollMs);
            continue;
        }
        processLeases(grants);
    }
}

void
WorkerAgent::beatLease(const std::string &id, const std::string &worker)
{
    try {
        // Tight deadlines: a heartbeat that cannot land within a
        // fraction of the TTL is as good as lost.
        Client client(config_.host, config_.port,
                      Client::Timeouts{2000, 5000});
        store::JsonObjectWriter body;
        body.field("worker", worker);
        client.post("/v1/leases/" + id + "/heartbeat", body.str());
        // "lost" answers need no action: the stripe's bytes will
        // match the replacement worker's, and the coordinator
        // accepts late completions idempotently.
    } catch (const std::exception &e) {
        warn("worker ", config_.name, ": heartbeat for ", id,
             " failed: ", e.what());
    }
}

std::vector<LeaseGrant>
WorkerAgent::acquire(uint64_t max)
{
    store::JsonObjectWriter body;
    body.field("worker", config_.name).field("max", max);
    Client client(config_.host, config_.port);
    auto response = client.post("/v1/leases/acquire", body.str());
    if (!response.ok())
        throw std::runtime_error("acquire rejected: HTTP " +
                                 std::to_string(response.status) +
                                 " " + response.body);
    auto json = store::parseJson(response.body);
    const auto &leases = json.at("leases").elements;
    std::vector<LeaseGrant> grants;
    grants.reserve(leases.size());
    for (const auto &lease : leases)
        grants.push_back(parseGrant(lease));
    return grants;
}

bench::ExperimentStudy &
WorkerAgent::contextFor(const LeaseCell &cell)
{
    auto &slot = contexts_[cell.experiment];
    if (slot && slot->study.config().seed == cell.seed)
        return *slot;

    const bench::Experiment *exp = bench::findExperiment(cell.experiment);
    if (!exp)
        throw std::runtime_error(
            "coordinator granted a lease on unknown experiment '" +
            cell.experiment + "' (version skew?)");

    bench::BenchOptions opts;
    opts.threads = config_.threads;
    opts.seed = cell.seed;
    opts.cacheDir = config_.cacheDir;
    // Static analysis only (no simulation); the golden run waits for
    // the first executed stripe.
    slot = std::make_unique<bench::ExperimentStudy>(*exp, opts);
    return *slot;
}

void
WorkerAgent::processLeases(const std::vector<LeaseGrant> &grants)
{
    const LeaseCell &cell = grants.front().cell;
    bench::ExperimentStudy *lab = nullptr;
    store::CellKey key;
    std::string error;
    try {
        lab = &contextFor(cell);
        key = lab->study.cellKey(cell.errors, cell.policy, cell.trials);
        // Never execute under a disputed key: the coordinator checks
        // each record against its lease's key and would refuse ours.
        if (key.fingerprint() != cell.fingerprint)
            error = "cell key mismatch: worker derived " +
                    key.fingerprint() + ", lease names " +
                    cell.fingerprint +
                    " (worker/coordinator version skew?)";
    } catch (const std::exception &e) {
        error = e.what();
    }
    if (!error.empty()) {
        for (const auto &grant : grants)
            failLease(grant, error);
        return;
    }

    // As each stripe lands, complete its lease with its record.
    runLeasePass(
        lab->study, grants, config_.name, keeper_,
        [&](const LeaseGrant &grant, const core::StripeResult &stripe) {
            finishLease(grant, key, stripe);
        },
        [this](const LeaseGrant &grant, const std::string &error) {
            failLease(grant, error);
        });
}

void
WorkerAgent::finishLease(const LeaseGrant &grant,
                         const store::CellKey &key,
                         const core::StripeResult &stripe)
{
    // The engine answers with the *complete cell* when the whole cell
    // was already in this worker's local store; send the cell record
    // then, so the coordinator can promote without any shard
    // arithmetic. Either way these are the canonical codec bytes --
    // identical to what a local run on the coordinator would have
    // written.
    bool fullCell = stripe.hi - stripe.lo == grant.cell.trials &&
                    grant.hi - grant.lo != grant.cell.trials;
    store::JsonObjectWriter body;
    body.field("worker", config_.name)
        .field("trialsExecuted", stripe.trialsSimulated)
        .field("wallSeconds", readableDouble(stripe.wallSeconds))
        .field("record",
               fullCell ? store::encodeCellRecord(key, stripe.summary)
                        : store::encodeShardRecord(key, stripe.lo,
                                                   stripe.hi,
                                                   stripe.summary));
    try {
        Client client(config_.host, config_.port);
        auto response = client.post(
            "/v1/leases/" + grant.id + "/complete", body.str());
        if (!response.ok()) {
            failLease(grant, "completion rejected: HTTP " +
                                 std::to_string(response.status) + " " +
                                 response.body);
            return;
        }
    } catch (const std::exception &e) {
        // Transport died between execution and completion. Do not
        // fail the lease (we cannot reach the coordinator anyway);
        // its deadline will re-issue it, and the replacement's bytes
        // will match ours.
        warn("worker ", config_.name, ": lease ", grant.id,
             " executed but not completed: ", e.what());
        std::lock_guard<std::mutex> lock(mutex_);
        ++summary_.leasesFailed;
        return;
    }
    workerMetrics().leasesCompleted.add();
    std::lock_guard<std::mutex> lock(mutex_);
    ++summary_.leasesCompleted;
    summary_.trialsExecuted += stripe.trialsSimulated;
    summary_.wallSeconds += stripe.wallSeconds;
}

void
WorkerAgent::failLease(const LeaseGrant &grant,
                       const std::string &error)
{
    warn("worker ", config_.name, ": lease ", grant.id, " failed: ",
         error);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++summary_.leasesFailed;
    }
    workerMetrics().leasesFailed.add();
    try {
        Client client(config_.host, config_.port);
        store::JsonObjectWriter body;
        body.field("worker", config_.name)
            .field("failed", true)
            .field("error", error);
        client.post("/v1/leases/" + grant.id + "/complete",
                    body.str());
    } catch (const std::exception &e) {
        // Best effort: an unreachable coordinator re-issues the
        // lease on expiry anyway.
        warn("worker ", config_.name,
             ": could not report failure of ", grant.id, ": ",
             e.what());
    }
}

} // namespace etc::service
