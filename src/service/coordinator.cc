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

/** Cell and fleet metrics: cell lifecycle, lease lifecycle and worker
 *  presence. Ticked at bookkeeping frequency, never inside simulation
 *  loops. */
struct FleetMetrics
{
    telemetry::Gauge &queueDepth = telemetry::gauge(
        "etc_scheduler_queue_depth",
        "Cell tasks waiting for a worker");
    telemetry::Counter &cellsDone = telemetry::counter(
        "etc_scheduler_cells_done_total",
        "Cell tasks completed successfully (simulated or cached)");
    telemetry::Counter &cellsCached = telemetry::counter(
        "etc_scheduler_cells_cached_total",
        "Cell tasks satisfied entirely from the result store");
    telemetry::Counter &cellsFailed = telemetry::counter(
        "etc_scheduler_cells_failed_total",
        "Cell tasks that raised an error");
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

const char *
cellStateName(CellState state)
{
    switch (state) {
      case CellState::Queued: return "queued";
      case CellState::Running: return "running";
      case CellState::Done: return "done";
      case CellState::Failed: return "failed";
    }
    return "unknown";
}

Coordinator::Coordinator(uint64_t leaseTtlMs)
    : leaseTtlMs_(std::max<uint64_t>(1, leaseTtlMs))
{}

void
Coordinator::setActivityCallback(std::function<void()> callback)
{
    activity_ = std::move(callback);
}

std::string
Coordinator::leaseId(const Cell &cell, unsigned shardIndex)
{
    return cell.spec.fingerprint + "." + std::to_string(shardIndex) +
           "of" + std::to_string(cell.leases.size());
}

std::shared_ptr<Cell>
Coordinator::findLease(const std::string &id, Cell::Lease **lease) const
{
    // Caller holds mutex_. The stripe index must parse (a client-chosen
    // one too large for a stripe number must not throw or wrap), and
    // the whole id must be the one leaseId() prints for it: no other
    // stripe count, no leading zeros, nothing trailing.
    size_t dot = id.find('.');
    if (dot == std::string::npos)
        return nullptr;
    auto it = cells_.find(id.substr(0, dot));
    unsigned shardIndex = 0;
    if (it == cells_.end() ||
        std::from_chars(id.data() + dot + 1, id.data() + id.size(),
                        shardIndex)
                .ec != std::errc() ||
        shardIndex >= it->second->leases.size() ||
        id != leaseId(*it->second, shardIndex))
        return nullptr;
    *lease = &it->second->leases[shardIndex];
    return it->second;
}

std::pair<std::shared_ptr<Cell>, bool>
Coordinator::admit(LeaseCell spec, store::CellKey key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &cell = cells_[spec.fingerprint];
    if (cell)
        return {cell, false};
    cell = std::make_shared<Cell>(std::move(spec), std::move(key));
    updateGauges();
    return {cell, true};
}

void
Coordinator::openLeases(Cell &cell, unsigned shardCount,
                        const std::vector<bool> &alreadyDone)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shardCount = std::max(1u, shardCount);
        for (unsigned i = 0; i < shardCount; ++i) {
            Cell::Lease lease;
            lease.shardIndex = i;
            auto [lo, hi] = core::ErrorToleranceStudy::shardRange(
                cell.spec.trials, i, shardCount);
            lease.lo = lo;
            lease.hi = hi;
            if (i < alreadyDone.size() && alreadyDone[i])
                lease.state = Cell::LeaseState::Done;
            cell.leases.push_back(lease);
        }
        updateGauges();
    }
    notifyActivity();
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
    for (const auto &[fingerprint, cell] : cells_)
        for (const auto &lease : cell->leases)
            if (lease.state == Cell::LeaseState::Active)
                busy.insert(lease.owner);
    size_t idle = 1;
    for (const auto &[seen, when] : workersSeen_)
        if (seen != worker && !busy.count(seen))
            ++idle;

    std::vector<LeaseGrant> grants;
    auto deadline = Clock::now() + std::chrono::milliseconds(leaseTtlMs_);
    for (auto &[fingerprint, cell] : cells_) {
        if (!grants.empty())
            break; // one cell per grant: its stripes run as one pass
        if (!experiment.empty() && cell->spec.experiment != experiment)
            continue;
        // This worker's share of the cell's pending stripes: a busy
        // fleet takes whole cells, a lone cell fans out over the idle.
        auto pending = static_cast<size_t>(std::count_if(
            cell->leases.begin(), cell->leases.end(),
            [](const Cell::Lease &l) {
                return l.state == Cell::LeaseState::Pending;
            }));
        size_t share = std::min<size_t>(max, (pending + idle - 1) / idle);
        for (auto &lease : cell->leases) {
            if (grants.size() >= share)
                break;
            if (lease.state != Cell::LeaseState::Pending)
                continue;
            cell->state = CellState::Running;
            lease.state = Cell::LeaseState::Active;
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
            grant.id = leaseId(*cell, lease.shardIndex);
            grant.cell = cell->spec;
            grant.shardIndex = lease.shardIndex;
            grant.shardCount = static_cast<unsigned>(cell->leases.size());
            grant.lo = lease.lo;
            grant.hi = lease.hi;
            grant.issue = lease.issue;
            grant.ttlMs = leaseTtlMs_;
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
    Cell::Lease *lease = nullptr;
    if (!findLease(leaseId, &lease))
        return LeaseBeat::Unknown;
    if (lease->state != Cell::LeaseState::Active || lease->owner != worker)
        return LeaseBeat::Lost;
    lease->deadline = Clock::now() + std::chrono::milliseconds(leaseTtlMs_);
    return LeaseBeat::Active;
}

std::shared_ptr<Cell>
Coordinator::complete(const std::string &leaseId,
                      const std::string &worker,
                      uint64_t trialsExecuted, double wallSeconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    touchWorker(worker);
    Cell::Lease *lease = nullptr;
    auto cell = findLease(leaseId, &lease);
    // A repeat is the stale owner of a re-issued lease finishing the
    // same content-addressed range: idempotently done, and the cell
    // is not handed over twice.
    if (!cell || lease->state == Cell::LeaseState::Done)
        return nullptr;
    lease->state = Cell::LeaseState::Done;
    lease->owner = worker;
    cell->trialsExecuted += trialsExecuted;
    cell->wallSeconds += wallSeconds;
    ++completed_;
    fleetMetrics().completed.add();
    updateGauges();
    bool last = std::all_of(cell->leases.begin(), cell->leases.end(),
                            [](const Cell::Lease &l) {
                                return l.state == Cell::LeaseState::Done;
                            });
    return last ? cell : nullptr;
}

LeaseBeat
Coordinator::fail(const std::string &leaseId,
                  const std::string &worker, const std::string &error)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        touchWorker(worker);
        Cell::Lease *lease = nullptr;
        auto cell = findLease(leaseId, &lease);
        if (!cell)
            return LeaseBeat::Unknown;
        if (lease->state != Cell::LeaseState::Active ||
            lease->owner != worker)
            return LeaseBeat::Lost;
        ++failed_;
        fleetMetrics().failed.add();
        if (lease->issue >= MAX_LEASE_ISSUES) {
            settleLocked(cell, CellState::Failed, 0.0,
                         "lease " + leaseId + " failed after " +
                             std::to_string(lease->issue) +
                             " grants: " + error);
        } else {
            lease->state = Cell::LeaseState::Pending;
            lease->owner.clear();
            warn("coordinator: lease ", leaseId, " failed on '", worker,
                 "' (grant ", lease->issue, "): ", error,
                 " -- re-issuing");
            updateGauges();
        }
    }
    notifyActivity();
    return LeaseBeat::Active;
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
    std::vector<std::pair<std::shared_ptr<Cell>, std::string>> capped;
    for (const auto &[fingerprint, cell] : cells_) {
        std::string error;
        for (auto &lease : cell->leases) {
            if (lease.state != Cell::LeaseState::Active ||
                lease.deadline > now)
                continue;
            ++expired_;
            fleetMetrics().expired.add();
            if (lease.issue >= MAX_LEASE_ISSUES) {
                error = "lease " + leaseId(*cell, lease.shardIndex) +
                        " expired after " + std::to_string(lease.issue) +
                        " grants (last worker '" + lease.owner + "')";
            } else {
                warn("coordinator: lease ",
                     leaseId(*cell, lease.shardIndex), " expired on '",
                     lease.owner, "' -- re-issuing");
                lease.state = Cell::LeaseState::Pending;
                lease.owner.clear();
            }
        }
        if (!error.empty())
            capped.emplace_back(cell, std::move(error));
    }
    for (const auto &[cell, error] : capped)
        settleLocked(cell, CellState::Failed, 0.0, error);
    // Age out workers idle past the activity window (3 deadlines,
    // floored so tests with millisecond ttls don't flicker).
    auto window = std::chrono::milliseconds(
        std::max<uint64_t>(3 * leaseTtlMs_, 1000));
    for (auto it = workersSeen_.begin(); it != workersSeen_.end();) {
        if (it->second + window < now)
            it = workersSeen_.erase(it);
        else
            ++it;
    }
    updateGauges();
}

std::optional<LeaseRange>
Coordinator::lookupLease(const std::string &leaseId) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Cell::Lease *lease = nullptr;
    auto cell = findLease(leaseId, &lease);
    if (!cell)
        return std::nullopt;
    return LeaseRange{cell->key, lease->lo, lease->hi};
}

void
Coordinator::reopenStripes(Cell &cell,
                           const std::vector<unsigned> &stripes)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (unsigned stripe : stripes) {
            if (stripe >= cell.leases.size())
                continue;
            Cell::Lease &lease = cell.leases[stripe];
            lease.state = Cell::LeaseState::Pending;
            lease.owner.clear();
            warn("coordinator: shard ", lease.lo, "-", lease.hi,
                 " of cell ", cell.spec.fingerprint,
                 " vanished before promotion -- re-issuing its lease");
        }
        updateGauges();
    }
    notifyActivity();
}

void
Coordinator::settleDone(const std::shared_ptr<Cell> &cell, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    settleLocked(cell, CellState::Done, seconds, {});
}

void
Coordinator::settleFailed(const std::shared_ptr<Cell> &cell,
                          const std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    settleLocked(cell, CellState::Failed, 0.0, error);
}

void
Coordinator::settleLocked(const std::shared_ptr<Cell> &cell,
                          CellState state, double seconds,
                          const std::string &error)
{
    // Caller holds mutex_. The entry leaves the table, but every job
    // holding it keeps reading its final state.
    cell->state = state;
    if (state == CellState::Done) {
        cell->wallSeconds += seconds;
        // Every stripe came from stored records: the cell was
        // stored, resumed or answered from agents' own stores, and
        // nobody simulated a trial of it.
        cell->cached = cell->trialsExecuted == 0;
        trialsSettled_ += cell->trialsExecuted;
        fleetMetrics().cellsDone.add();
        if (cell->cached)
            fleetMetrics().cellsCached.add();
    } else {
        cell->error = error;
        fleetMetrics().cellsFailed.add();
        warn("coordinator: cell ", cell->key.canonical(), " failed: ",
             error);
    }
    cells_.erase(cell->spec.fingerprint);
    updateGauges();
}

std::vector<CellStatus>
Coordinator::status(const std::vector<std::shared_ptr<Cell>> &cells)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked();
    std::vector<CellStatus> statuses;
    statuses.reserve(cells.size());
    for (const auto &cell : cells) {
        CellStatus status;
        status.fingerprint = cell->spec.fingerprint;
        status.canonical = cell->key.canonical();
        status.errors = cell->spec.errors;
        status.policy = cell->spec.policy;
        status.trials = cell->spec.trials;
        status.state = cell->state;
        status.cached = cell->cached;
        status.error = cell->error;
        // Stripe tallies are final only once the cell promotes.
        if (cell->state == CellState::Done) {
            status.trialsExecuted = cell->trialsExecuted;
            status.wallSeconds = cell->wallSeconds;
        }
        statuses.push_back(std::move(status));
    }
    return statuses;
}

CoordinatorStats
Coordinator::stats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked();
    CoordinatorStats stats;
    for (const auto &[fingerprint, cell] : cells_) {
        if (!cell->leases.empty())
            ++stats.cells;
        for (const auto &lease : cell->leases) {
            switch (lease.state) {
              case Cell::LeaseState::Pending: ++stats.leasesPending; break;
              case Cell::LeaseState::Active: ++stats.leasesActive; break;
              case Cell::LeaseState::Done: ++stats.leasesDone; break;
            }
        }
    }
    stats.workers = workersSeen_.size();
    stats.issued = issued_;
    stats.reissued = reissued_;
    stats.expired = expired_;
    stats.completed = completed_;
    stats.failed = failed_;
    stats.trialsExecuted = trialsSettled_;
    return stats;
}

std::vector<LeaseInfo>
Coordinator::leases()
{
    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked();
    auto now = Clock::now();
    std::vector<LeaseInfo> rows;
    for (const auto &[fingerprint, cell] : cells_) {
        for (const auto &lease : cell->leases) {
            LeaseInfo info;
            info.id = leaseId(*cell, lease.shardIndex);
            info.fingerprint = fingerprint;
            info.shardIndex = lease.shardIndex;
            info.shardCount = static_cast<unsigned>(cell->leases.size());
            info.state = stateName(static_cast<int>(lease.state));
            info.owner = lease.owner;
            info.issue = lease.issue;
            if (lease.state == Cell::LeaseState::Active)
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
    size_t queued = 0, pending = 0, active = 0;
    for (const auto &[fingerprint, cell] : cells_) {
        if (cell->state == CellState::Queued)
            ++queued;
        for (const auto &lease : cell->leases) {
            if (lease.state == Cell::LeaseState::Pending)
                ++pending;
            else if (lease.state == Cell::LeaseState::Active)
                ++active;
        }
    }
    fleetMetrics().queueDepth.set(static_cast<int64_t>(queued));
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
