#include "service/coordinator.hh"

#include <algorithm>
#include <charconv>
#include <future>
#include <set>

#include "core/study.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace etc::service {

namespace {

/** Fleet metrics: lease lifecycle counters plus worker presence.
 *  Ticked at bookkeeping frequency, never inside simulation loops. */
struct FleetMetrics
{
    telemetry::Gauge &pending = telemetry::gauge(
        "etc_lease_pending", "Leases waiting for a worker");
    telemetry::Gauge &active = telemetry::gauge(
        "etc_lease_active", "Leases granted and within deadline");
    telemetry::Counter &issued = telemetry::counter(
        "etc_lease_issued_total",
        "Lease grants, including re-issues");
    telemetry::Counter &reissued = telemetry::counter(
        "etc_lease_reissued_total",
        "Lease grants beyond a lease's first (expiry or failure)");
    telemetry::Counter &expired = telemetry::counter(
        "etc_lease_expired_total",
        "Active leases whose heartbeat deadline lapsed");
    telemetry::Counter &completed = telemetry::counter(
        "etc_lease_completed_total", "Leases completed");
    telemetry::Counter &failed = telemetry::counter(
        "etc_lease_failed_total", "Worker-reported lease failures");
    telemetry::Gauge &workers = telemetry::gauge(
        "etc_worker_agents",
        "Workers seen by the coordinator within the activity window");
    telemetry::Counter &heartbeats = telemetry::counter(
        "etc_worker_heartbeats_total", "Lease heartbeats received");
};

FleetMetrics &
fleetMetrics()
{
    static FleetMetrics metrics;
    return metrics;
}

const char *
stateName(int state)
{
    switch (state) {
      case 0: return "pending";
      case 1: return "active";
      case 2: return "done";
    }
    return "unknown";
}

} // namespace

Coordinator::Coordinator(CoordinatorConfig config) : config_(config)
{
    if (config_.leaseTtlMs == 0)
        config_.leaseTtlMs = 1;
    if (config_.maxIssues == 0)
        config_.maxIssues = 1;
}

void
Coordinator::setActivityCallback(std::function<void()> callback)
{
    activity_ = std::move(callback);
}

std::string
Coordinator::leaseId(const std::string &fingerprint,
                     unsigned shardIndex, unsigned shardCount)
{
    return fingerprint + "." + std::to_string(shardIndex) + "of" +
           std::to_string(shardCount);
}

std::optional<Coordinator::ParsedId>
Coordinator::parseLeaseId(const std::string &leaseId) const
{
    size_t dot = leaseId.find('.');
    size_t of = leaseId.find("of", dot == std::string::npos ? 0 : dot);
    if (dot == std::string::npos || of == std::string::npos ||
        of <= dot + 1)
        return std::nullopt;
    // Digits only, and in range: a client-chosen index too large for
    // a stripe number names no lease (it must not throw or wrap).
    const char *first = leaseId.data() + dot + 1;
    const char *last = leaseId.data() + of;
    ParsedId parsed;
    auto [end, error] = std::from_chars(first, last, parsed.shardIndex);
    if (error != std::errc() || end != last)
        return std::nullopt;
    parsed.fingerprint = leaseId.substr(0, dot);
    return parsed;
}

Coordinator::Lease *
Coordinator::findLease(const std::string &leaseId, CellEntry **entry)
{
    // Caller holds mutex_.
    auto parsed = parseLeaseId(leaseId);
    if (!parsed)
        return nullptr;
    auto it = cells_.find(parsed->fingerprint);
    if (it == cells_.end() ||
        parsed->shardIndex >= it->second.leases.size())
        return nullptr;
    if (entry)
        *entry = &it->second;
    return &it->second.leases[parsed->shardIndex];
}

bool
Coordinator::registerCell(const LeaseCell &cell, unsigned shardCount,
                          const std::vector<bool> &alreadyDone)
{
    bool registered = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (cells_.count(cell.fingerprint))
            return false;
        CellEntry entry;
        entry.cell = cell;
        entry.shardCount = std::max(1u, shardCount);
        for (unsigned i = 0; i < entry.shardCount; ++i) {
            Lease lease;
            lease.shardIndex = i;
            auto [lo, hi] = core::ErrorToleranceStudy::shardRange(
                cell.trials, i, entry.shardCount);
            lease.lo = lo;
            lease.hi = hi;
            if (i < alreadyDone.size() && alreadyDone[i])
                lease.state = State::Done;
            entry.leases.push_back(lease);
        }
        cells_.emplace(cell.fingerprint, std::move(entry));
        updateGauges();
        registered = true;
    }
    // A fully-stored cell registers with every lease done; wake the
    // pool so a harvester promotes it without waiting for a tick.
    notifyActivity();
    return registered;
}

std::vector<LeaseGrant>
Coordinator::acquire(const std::string &worker, unsigned max,
                     const std::string &experiment)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked();
    touchWorker(worker);
    // The idle workers: the asker, and every other worker seen within
    // the activity window that holds no active lease.
    std::set<std::string> busy;
    for (const auto &[fingerprint, entry] : cells_)
        for (const auto &lease : entry.leases)
            if (lease.state == State::Active)
                busy.insert(lease.owner);
    size_t idle = 1;
    for (const auto &[seen, when] : workersSeen_)
        if (seen != worker && !busy.count(seen))
            ++idle;

    std::vector<LeaseGrant> grants;
    auto deadline = Clock::now() +
                    std::chrono::milliseconds(config_.leaseTtlMs);
    for (auto &[fingerprint, entry] : cells_) {
        if (!grants.empty())
            break; // one cell per grant: its stripes run as one pass
        if (entry.failed || entry.promoting ||
            (!experiment.empty() && entry.cell.experiment != experiment))
            continue;
        // This worker's share of the cell's pending stripes: a busy
        // fleet takes whole cells, a lone cell fans out over the idle.
        auto pending = static_cast<size_t>(std::count_if(
            entry.leases.begin(), entry.leases.end(),
            [](const Lease &l) { return l.state == State::Pending; }));
        size_t share = std::min<size_t>(max, (pending + idle - 1) / idle);
        for (auto &lease : entry.leases) {
            if (grants.size() >= share)
                break;
            if (lease.state != State::Pending)
                continue;
            lease.state = State::Active;
            lease.owner = worker;
            lease.deadline = deadline;
            ++lease.issue;
            ++issued_;
            fleetMetrics().issued.add();
            if (lease.issue > 1) {
                ++reissued_;
                fleetMetrics().reissued.add();
            }
            LeaseGrant grant;
            grant.id = leaseId(fingerprint, lease.shardIndex,
                               entry.shardCount);
            grant.cell = entry.cell;
            grant.shardIndex = lease.shardIndex;
            grant.shardCount = entry.shardCount;
            grant.lo = lease.lo;
            grant.hi = lease.hi;
            grant.issue = lease.issue;
            grant.ttlMs = config_.leaseTtlMs;
            grants.push_back(std::move(grant));
        }
    }
    updateGauges();
    return grants;
}

LeaseBeat
Coordinator::heartbeat(const std::string &leaseId,
                       const std::string &worker)
{
    std::lock_guard<std::mutex> lock(mutex_);
    touchWorker(worker);
    fleetMetrics().heartbeats.add();
    CellEntry *entry = nullptr;
    Lease *lease = findLease(leaseId, &entry);
    if (!lease)
        return LeaseBeat::Unknown;
    if (lease->state != State::Active || lease->owner != worker)
        return LeaseBeat::Lost;
    lease->deadline = Clock::now() +
                      std::chrono::milliseconds(config_.leaseTtlMs);
    return LeaseBeat::Active;
}

bool
Coordinator::complete(const std::string &leaseId,
                      const std::string &worker,
                      uint64_t trialsExecuted, double wallSeconds)
{
    bool known = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        touchWorker(worker);
        CellEntry *entry = nullptr;
        Lease *lease = findLease(leaseId, &entry);
        if (lease) {
            known = true;
            if (lease->state != State::Done) {
                lease->state = State::Done;
                lease->owner = worker;
                entry->trialsExecuted += trialsExecuted;
                entry->wallSeconds += wallSeconds;
                ++completed_;
                fleetMetrics().completed.add();
            }
            // else: the stale owner of a re-issued lease finished the
            // same content-addressed range -- idempotently done.
            updateGauges();
        }
    }
    if (known)
        notifyActivity();
    return known;
}

bool
Coordinator::fail(const std::string &leaseId,
                  const std::string &worker, const std::string &error)
{
    bool known = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        touchWorker(worker);
        CellEntry *entry = nullptr;
        Lease *lease = findLease(leaseId, &entry);
        if (lease && lease->state != State::Done) {
            known = true;
            ++failed_;
            fleetMetrics().failed.add();
            if (lease->issue >= config_.maxIssues) {
                entry->failed = true;
                entry->error = "lease " + leaseId + " failed after " +
                               std::to_string(lease->issue) +
                               " grants: " + error;
            } else {
                lease->state = State::Pending;
                lease->owner.clear();
                warn("coordinator: lease ", leaseId, " failed on '",
                     worker, "' (grant ", lease->issue, "): ", error,
                     " -- re-issuing");
            }
            updateGauges();
        }
    }
    if (known)
        notifyActivity();
    return known;
}

void
Coordinator::sweepExpired()
{
    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked();
}

void
Coordinator::sweepExpiredLocked()
{
    // Caller holds mutex_.
    auto now = Clock::now();
    for (auto &[fingerprint, entry] : cells_) {
        if (entry.failed)
            continue;
        for (auto &lease : entry.leases) {
            if (lease.state != State::Active || lease.deadline > now)
                continue;
            ++expired_;
            fleetMetrics().expired.add();
            if (lease.issue >= config_.maxIssues) {
                entry.failed = true;
                entry.error =
                    "lease " +
                    leaseId(fingerprint, lease.shardIndex,
                            entry.shardCount) +
                    " expired after " + std::to_string(lease.issue) +
                    " grants (last worker '" + lease.owner + "')";
            } else {
                warn("coordinator: lease ",
                     leaseId(fingerprint, lease.shardIndex,
                             entry.shardCount),
                     " expired on '", lease.owner,
                     "' -- re-issuing");
                lease.state = State::Pending;
                lease.owner.clear();
            }
        }
    }
    // Age out workers idle past the activity window (3 deadlines,
    // floored so tests with millisecond ttls don't flicker).
    auto window = std::chrono::milliseconds(
        std::max<uint64_t>(3 * config_.leaseTtlMs, 1000));
    for (auto it = workersSeen_.begin(); it != workersSeen_.end();) {
        if (it->second + window < now)
            it = workersSeen_.erase(it);
        else
            ++it;
    }
    updateGauges();
}

std::vector<CompletedCell>
Coordinator::takeCompleted()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CompletedCell> ready;
    for (auto &[fingerprint, entry] : cells_) {
        if (entry.failed || entry.promoting)
            continue;
        bool allDone = std::all_of(
            entry.leases.begin(), entry.leases.end(),
            [](const Lease &l) { return l.state == State::Done; });
        if (!allDone)
            continue;
        entry.promoting = true;
        CompletedCell done;
        done.cell = entry.cell;
        done.shardCount = entry.shardCount;
        done.trialsExecuted = entry.trialsExecuted;
        done.wallSeconds = entry.wallSeconds;
        ready.push_back(std::move(done));
    }
    return ready;
}

std::vector<std::pair<std::string, std::string>>
Coordinator::takeFailed()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::string>> failed;
    for (auto it = cells_.begin(); it != cells_.end();) {
        if (it->second.failed) {
            failed.emplace_back(it->first, it->second.error);
            it = cells_.erase(it);
        } else {
            ++it;
        }
    }
    if (!failed.empty())
        updateGauges();
    return failed;
}

void
Coordinator::finishCell(const std::string &fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cells_.erase(fingerprint);
    updateGauges();
}

void
Coordinator::reopenStripes(const std::string &fingerprint,
                           const std::vector<unsigned> &stripes)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cells_.find(fingerprint);
        if (it == cells_.end())
            return;
        CellEntry &entry = it->second;
        entry.promoting = false;
        for (unsigned stripe : stripes) {
            if (stripe >= entry.leases.size())
                continue;
            Lease &lease = entry.leases[stripe];
            lease.state = State::Pending;
            lease.owner.clear();
            warn("coordinator: shard ", lease.lo, "-", lease.hi,
                 " of cell ", fingerprint,
                 " vanished before promotion -- re-issuing its lease");
        }
        updateGauges();
    }
    notifyActivity();
}

std::optional<LeaseGrant>
Coordinator::lookupLease(const std::string &leaseId) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto parsed = parseLeaseId(leaseId);
    if (!parsed)
        return std::nullopt;
    auto it = cells_.find(parsed->fingerprint);
    if (it == cells_.end() ||
        parsed->shardIndex >= it->second.leases.size())
        return std::nullopt;
    const CellEntry &entry = it->second;
    const Lease &lease = entry.leases[parsed->shardIndex];
    LeaseGrant grant;
    grant.id = leaseId;
    grant.cell = entry.cell;
    grant.shardIndex = lease.shardIndex;
    grant.shardCount = entry.shardCount;
    grant.lo = lease.lo;
    grant.hi = lease.hi;
    grant.issue = lease.issue;
    grant.ttlMs = config_.leaseTtlMs;
    return grant;
}

CoordinatorStats
Coordinator::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CoordinatorStats stats;
    stats.cells = cells_.size();
    for (const auto &[fingerprint, entry] : cells_) {
        for (const auto &lease : entry.leases) {
            switch (lease.state) {
              case State::Pending: ++stats.leasesPending; break;
              case State::Active: ++stats.leasesActive; break;
              case State::Done: ++stats.leasesDone; break;
            }
        }
    }
    stats.workers = workersSeen_.size();
    stats.issued = issued_;
    stats.reissued = reissued_;
    stats.expired = expired_;
    stats.completed = completed_;
    stats.failed = failed_;
    return stats;
}

std::vector<LeaseInfo>
Coordinator::leases() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto now = Clock::now();
    std::vector<LeaseInfo> rows;
    for (const auto &[fingerprint, entry] : cells_) {
        for (const auto &lease : entry.leases) {
            LeaseInfo info;
            info.id = leaseId(fingerprint, lease.shardIndex,
                              entry.shardCount);
            info.fingerprint = fingerprint;
            info.shardIndex = lease.shardIndex;
            info.shardCount = entry.shardCount;
            info.state = stateName(static_cast<int>(lease.state));
            info.owner = lease.owner;
            info.issue = lease.issue;
            if (lease.state == State::Active)
                info.remainingMs =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(lease.deadline - now)
                        .count();
            rows.push_back(std::move(info));
        }
    }
    return rows;
}

void
Coordinator::touchWorker(const std::string &worker)
{
    // Caller holds mutex_.
    workersSeen_[worker] = Clock::now();
    fleetMetrics().workers.set(
        static_cast<int64_t>(workersSeen_.size()));
}

void
Coordinator::updateGauges() const
{
    // Caller holds mutex_.
    size_t pending = 0, active = 0;
    for (const auto &[fingerprint, entry] : cells_) {
        for (const auto &lease : entry.leases) {
            if (lease.state == State::Pending)
                ++pending;
            else if (lease.state == State::Active)
                ++active;
        }
    }
    fleetMetrics().pending.set(static_cast<int64_t>(pending));
    fleetMetrics().active.set(static_cast<int64_t>(active));
    fleetMetrics().workers.set(
        static_cast<int64_t>(workersSeen_.size()));
}

void
Coordinator::notifyActivity()
{
    // Outside mutex_: the callback pokes the scheduler's condvar and
    // must not nest under the coordinator lock.
    if (activity_)
        activity_();
}

LeaseKeeper::LeaseKeeper(Beat beat)
    : beat_(std::move(beat)), thread_([this] { loop(); })
{}

LeaseKeeper::~LeaseKeeper()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    thread_.join();
}

void
LeaseKeeper::hold(const LeaseGrant &grant, const std::string &worker)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        held_[grant.id] = worker;
        periodMs_ = std::max<uint64_t>(1, grant.ttlMs / 3);
    }
    wake_.notify_all();
}

void
LeaseKeeper::release(const std::string &leaseId)
{
    std::lock_guard<std::mutex> lock(mutex_);
    held_.erase(leaseId);
}

void
LeaseKeeper::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        // Sleep until a lease is held, then renew every period.
        wake_.wait(lock, [this] { return stopping_ || !held_.empty(); });
        wake_.wait_for(lock, std::chrono::milliseconds(periodMs_),
                       [this] { return stopping_; });
        if (stopping_)
            return;
        auto held = held_;
        lock.unlock();
        for (const auto &[id, worker] : held)
            beat_(id, worker);
        lock.lock();
    }
}

void
runLeasePass(
    core::ErrorToleranceStudy &study,
    const std::vector<LeaseGrant> &grants, const std::string &worker,
    LeaseKeeper &keeper,
    const std::function<void(const LeaseGrant &grant,
                             const core::StripeResult &stripe)> &landed,
    const std::function<void(const LeaseGrant &grant,
                             const std::string &error)> &failed)
{
    std::vector<unsigned> stripes;
    stripes.reserve(grants.size());
    for (const auto &grant : grants) {
        keeper.hold(grant, worker);
        stripes.push_back(grant.shardIndex);
    }

    // The engine hands each stripe over inside its serialized range
    // hook, so the sink only starts the stripe's completion -- for an
    // agent, two HTTP round trips -- on a thread that first waits for
    // the previous stripe's: a slow coordinator never holds up the pass.
    std::future<void> completing;
    std::vector<bool> done(grants.size(), false);
    try {
        const LeaseCell &cell = grants.front().cell;
        telemetry::TraceSpan span("lease", "pass");
        if (span.active())
            span.setArgs("{\"cell\":\"" + cell.fingerprint +
                         "\",\"stripes\":" +
                         std::to_string(stripes.size()) +
                         ",\"worker\":\"" + worker + "\"}");
        study.runStripes(
            cell.errors, cell.policy, cell.trials,
            grants.front().shardCount, stripes,
            [&](core::StripeResult stripe) {
                auto i = static_cast<size_t>(
                    std::find(stripes.begin(), stripes.end(),
                              stripe.index) -
                    stripes.begin());
                completing = std::async(
                    std::launch::async,
                    [&, i, stripe = std::move(stripe),
                     previous = std::move(completing)] {
                        if (previous.valid())
                            previous.wait();
                        try {
                            landed(grants[i], stripe);
                        } catch (const std::exception &e) {
                            failed(grants[i], e.what());
                        }
                        keeper.release(grants[i].id);
                    });
                done[i] = true;
            });
    } catch (const std::exception &e) {
        for (size_t i = 0; i < grants.size(); ++i)
            if (!done[i])
                failed(grants[i], e.what());
    }
    if (completing.valid())
        completing.wait();
    // Stripes a stop request left unstarted lapse and re-issue.
    for (const auto &grant : grants)
        keeper.release(grant.id);
}

} // namespace etc::service
