#include "service/scheduler.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>

#include "store/record.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "telemetry/metrics.hh"

namespace etc::service {

namespace {

/** Scheduler-level metrics: worker gauges tick at bookkeeping
 *  frequency (pass boundaries), never inside simulation loops; the
 *  cell counters tick where cells settle, in the coordinator. */
struct SchedulerMetrics
{
    telemetry::Gauge &workers = telemetry::gauge(
        "etc_scheduler_workers",
        "Worker threads in the scheduler pool");
    telemetry::Gauge &workersBusy = telemetry::gauge(
        "etc_scheduler_workers_busy",
        "Worker threads currently executing a cell task");
    telemetry::Histogram &chunkSeconds = telemetry::histogram(
        "etc_scheduler_chunk_seconds",
        "Pass wall time credited to each stripe (one shard-range lease "
        "of a cell)",
        {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60});
};

SchedulerMetrics &
schedulerMetrics()
{
    static SchedulerMetrics metrics;
    return metrics;
}

/** How long an idle worker sleeps between coordinator polls. Lease
 *  activity (completions, failures) pokes the condvar, so this bounds
 *  only the latency of *expiry* detection, not of normal progress. */
constexpr std::chrono::milliseconds IDLE_POLL{100};

/** The worker name of every local executor: they share one study per
 *  experiment, as an agent's executors do, so the coordinator counts
 *  them as one worker when it shares a cell out. */
constexpr const char *LOCAL_WORKER = "local";

/** The shard-range leases of a cell of @p trials: @p chunks, but
 *  never more than one stripe per trial. */
unsigned
shardCountOf(unsigned chunks, unsigned trials)
{
    return std::max(1u, std::min(chunks, trials));
}

} // namespace

Scheduler::Scheduler(SchedulerConfig config)
    : config_(std::move(config)), coordinator_(config_.leaseTtlMs),
      keeper_([this](const std::string &leaseId,
                     const std::string &worker) {
          coordinator_.heartbeat(leaseId, worker);
      }),
      studies_(studyOptions())
{
    if (config_.cacheDir.empty())
        fatal("scheduler: a cache directory is required (jobs resume "
              "from persisted shards)");
    // Lease completions wake an idle worker immediately, so cells
    // promote as soon as their last shard lands instead of on the
    // next poll tick. The callback fires outside the coordinator
    // mutex; notifying without mutex_ held is safe (workers re-check
    // all state on wakeup anyway).
    coordinator_.setActivityCallback(
        [this] { workAvailable_.notify_all(); });
}

Scheduler::~Scheduler()
{
    stop();
}

bench::BenchOptions
Scheduler::studyOptions() const
{
    bench::BenchOptions opts;
    opts.threads = config_.threads;
    opts.seed = config_.seed;
    opts.cacheDir = config_.cacheDir;
    return opts;
}

void
Scheduler::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_)
        return;
    started_ = true;
    // workers = 0 still spawns one thread: the steward that probes
    // the cache, registers leases, and promotes completed cells. It
    // just never executes leases itself (remote agents do).
    unsigned threads = std::max(1u, config_.workers);
    schedulerMetrics().workers.set(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
Scheduler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();
}

Scheduler::SubmitOutcome
Scheduler::submit(
    const bench::Artifact &artifact, unsigned trialsOverride,
    std::optional<std::pair<unsigned, std::string>> cell)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<LeaseCell, store::CellKey>> planned;
    std::string signature;
    for (const bench::Experiment *exp : artifact.sweeps) {
        auto wanted =
            cell ? std::vector<std::pair<unsigned, std::string>>{*cell}
                 : bench::experimentCells(*exp);
        if (wanted.empty())
            continue; // a study a paper table only profiles
        // Static analysis only -- no simulation; cell keys derive
        // from it, so submissions and the figure endpoint agree with
        // `etc_lab run` on the same cache directory.
        bench::ExperimentStudy &lab = studies_.of(*exp);
        unsigned trials =
            trialsOverride ? trialsOverride : exp->defaultTrials;
        for (const auto &[errors, policy] : wanted) {
            auto key = lab.study.cellKey(errors, policy, trials);
            LeaseCell spec;
            spec.fingerprint = key.fingerprint();
            spec.experiment = exp->name;
            spec.errors = errors;
            spec.policy = policy;
            spec.trials = trials;
            spec.seed = lab.study.config().seed;
            signature += spec.fingerprint;
            signature += ';';
            planned.emplace_back(std::move(spec), std::move(key));
        }
    }

    // Job-level idempotency: an identical submission that is still
    // queued or running is the same job -- attach to it.
    if (auto active = activeJobsBySignature_.find(signature);
        active != activeJobsBySignature_.end()) {
        const Job &job = jobs_.at(active->second);
        std::string state = jobStateOf(coordinator_.status(job.cells));
        if (state == "queued" || state == "running")
            return {job.id, true, job.cells.size()};
        activeJobsBySignature_.erase(active);
    }

    Job job;
    job.id = "j";
    job.id += std::to_string(nextJobId_++);
    job.experiment = artifact.name;
    job.signature = signature;
    // Cell-level idempotency: the coordinator shares a live cell of
    // the same CellKey instead of running it twice.
    for (auto &[spec, key] : planned)
        job.cells.push_back(
            coordinator_.admit(std::move(spec), std::move(key)));

    std::string id = job.id;
    size_t cellCount = job.cells.size();
    jobs_[id] = std::move(job);
    activeJobsBySignature_[signature] = id;
    evictCompletedJobs();
    workAvailable_.notify_all();
    return {id, false, cellCount};
}

void
Scheduler::evictCompletedJobs()
{
    // Caller holds mutex_. A long-running daemon must not accumulate
    // one Job record per submission forever; keep the newest
    // MAX_RETAINED_JOBS and drop the oldest *completed* ones (their
    // results live on in the store -- only the status snapshot
    // becomes a 404). Active jobs are never evicted.
    if (jobs_.size() <= MAX_RETAINED_JOBS)
        return;
    std::vector<std::pair<uint64_t, std::string>> completed;
    for (const auto &[id, job] : jobs_) {
        std::string state = jobStateOf(coordinator_.status(job.cells));
        if (state == "done" || state == "failed")
            completed.emplace_back(std::stoull(id.substr(1)), id);
    }
    std::sort(completed.begin(), completed.end());
    for (const auto &[number, id] : completed) {
        if (jobs_.size() <= MAX_RETAINED_JOBS)
            break;
        auto it = jobs_.find(id);
        auto sig = activeJobsBySignature_.find(it->second.signature);
        if (sig != activeJobsBySignature_.end() && sig->second == id)
            activeJobsBySignature_.erase(sig);
        jobs_.erase(it);
    }
}

void
Scheduler::workerLoop()
{
    // Local executors are lease workers like any remote agent, just
    // with a function call instead of an HTTP round trip, and they
    // heartbeat the leases they hold like one (keeper_).
    const bool executor = config_.workers > 0;
    // This thread's own store handle for promotions (see the store's
    // one-instance-per-thread contract).
    store::ResultStore store(config_.cacheDir);
    bool idle = false;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (stopping_)
                return;
            // No predicate: lease completions notify without holding
            // mutex_, and the loop below re-derives all state anyway.
            // The timeout bounds expiry-detection latency when every
            // remote agent has gone silent.
            if (idle)
                workAvailable_.wait_for(lock, IDLE_POLL);
            if (stopping_)
                return;
        }
        coordinator_.sweepExpired();
        bool didWork = promoteCompletedCells(store);
        didWork |= probeNextCell();
        if (executor)
            didWork |= executeLeases();
        idle = !didWork;
    }
}

bool
Scheduler::probeNextCell()
{
    auto cell = coordinator_.takeQueued();
    if (!cell)
        return false;
    try {
        // Cache first: a warm-cache cell settles with zero simulation
        // and never opens a lease. (Each worker probes through its own
        // ResultStore instance; see the store's concurrent-writer
        // contract.)
        auto probeStarted = std::chrono::steady_clock::now();
        store::ResultStore probe(config_.cacheDir);
        if (probe.loadCell(cell->key)) {
            // A cache hit still costs a store load; report that wall
            // time (instead of 0) so dashboards get a finite number,
            // with cached=true marking that trialsPerSec is
            // meaningless for this cell.
            std::chrono::duration<double> probeSpan =
                std::chrono::steady_clock::now() - probeStarted;
            coordinator_.settleDone(cell, probeSpan.count());
            return true;
        }

        // Miss: decompose into shard-range leases. Stripes whose
        // shard record is already stored (a killed predecessor's
        // progress) open as done, so the cell resumes.
        unsigned shardCount =
            shardCountOf(config_.chunks, cell->spec.trials);
        std::vector<bool> alreadyDone(shardCount, false);
        for (unsigned i = 0; i < shardCount; ++i) {
            auto [lo, hi] = core::ErrorToleranceStudy::shardRange(
                cell->spec.trials, i, shardCount);
            alreadyDone[i] = probe.hasShard(cell->key, lo, hi);
        }
        coordinator_.openLeases(*cell, shardCount, alreadyDone);
    } catch (const std::exception &e) {
        coordinator_.settleFailed(cell, e.what());
    }
    return true;
}

bool
Scheduler::executeLeases()
{
    std::vector<bench::ExperimentStudy *> labs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return false;
        labs = studies_.built();
    }
    // A stop signal (graceful shutdown) parks local execution; the
    // leases re-pend via expiry and any progress is already persisted
    // as shard records, so a restarted daemon resumes mid-cell.
    if (stopRequested())
        return false;

    // A local failure rides the same re-issue path as a dead remote
    // worker: re-pend the lease (another grant may succeed on a
    // transient error) until the issue cap fails the cell.
    auto fail = [this](const LeaseGrant &grant, const std::string &error) {
        warn("scheduler: lease ", grant.id, " failed: ", error);
        coordinator_.fail(grant.id, LOCAL_WORKER, error);
    };
    for (bench::ExperimentStudy *lab : labs) {
        // Lock a study no other local executor is running before
        // asking for its leases, so no executor holds leases it
        // cannot start: they stay free for idle agents.
        std::unique_lock<std::mutex> run(lab->runMutex, std::try_to_lock);
        if (!run.owns_lock())
            continue;
        // Its share of one cell's pending stripes: they run as one pass.
        auto grants = coordinator_.acquire(
            LOCAL_WORKER, std::numeric_limits<unsigned>::max(),
            lab->exp.name);
        if (grants.empty())
            continue;
        schedulerMetrics().workersBusy.add(1);
        // Each stripe is persisted as a shard record before it lands;
        // an already stored one (e.g. completed by a remote worker while
        // its lease lapsed) lands without simulating.
        runLeasePass(
            lab->study, grants, LOCAL_WORKER, keeper_,
            [this](const LeaseGrant &grant,
                   const core::StripeResult &stripe) {
                schedulerMetrics().chunkSeconds.observe(
                    stripe.wallSeconds);
                // The cell's tallies sum in the coordinator and show
                // at promotion -- one accounting path for local and
                // remote workers alike.
                coordinator_.complete(grant.id, LOCAL_WORKER,
                                      stripe.trialsSimulated,
                                      stripe.wallSeconds);
            },
            fail);
        schedulerMetrics().workersBusy.add(-1);
        return true;
    }
    return false;
}

bool
Scheduler::promoteCompletedCells(store::ResultStore &store)
{
    auto completed = coordinator_.claimCompleted();
    for (const auto &cell : completed)
        promoteCell(cell, store);
    return !completed.empty();
}

void
Scheduler::promoteCell(const std::shared_ptr<Cell> &cell,
                       store::ResultStore &store)
{
    auto promoteStarted = std::chrono::steady_clock::now();
    try {
        if (store.hasCell(cell->key)) {
            store.dropShards(cell->key);
        } else {
            // Promote the shard tiling to the cell record: assembled,
            // persisted, and bit-identical to a monolithic run,
            // whoever executed the stripes. No simulation happens
            // here -- promotion is pure store arithmetic.
            try {
                store.promoteShards(cell->key,
                                    store.loadShards(cell->key));
            } catch (const store::StoreFormatError &) {
                // The tiling has gaps: the shard of some completed
                // stripe is gone or unreadable (removed or damaged
                // behind the daemon's back). Re-pend exactly those
                // stripes.
                unsigned shardCount =
                    shardCountOf(config_.chunks, cell->spec.trials);
                std::vector<unsigned> missing;
                for (unsigned i = 0; i < shardCount; ++i) {
                    auto [lo, hi] =
                        core::ErrorToleranceStudy::shardRange(
                            cell->spec.trials, i, shardCount);
                    if (!store.hasShard(cell->key, lo, hi))
                        missing.push_back(i);
                }
                if (missing.empty())
                    throw; // genuinely unmergeable: fail the cell
                warn("scheduler: cell ", cell->spec.fingerprint,
                     " missing ", missing.size(),
                     " completed stripe(s) from the store; "
                     "re-issuing their leases");
                coordinator_.reopenStripes(*cell, missing);
                return;
            }
        }

        std::chrono::duration<double> promoteSpan =
            std::chrono::steady_clock::now() - promoteStarted;
        coordinator_.settleDone(cell, promoteSpan.count());
    } catch (const std::exception &e) {
        coordinator_.settleFailed(cell, e.what());
    }
}

Scheduler::LeaseCompletion
Scheduler::completeLease(const std::string &leaseId,
                         const std::string &worker,
                         const std::string &record,
                         uint64_t trialsExecuted, double wallSeconds)
{
    auto lease = coordinator_.lookupLease(leaseId);
    if (!lease) {
        // The lease id encodes its cell fingerprint; if that cell is
        // already promoted, this is a ghost of a re-issued lease
        // whose bytes matched by construction -- tell it "done" so it
        // stops retrying. Anything else is genuinely unknown.
        std::string fingerprint =
            leaseId.substr(0, leaseId.find('.'));
        if (store::isFingerprint(fingerprint) &&
            store::ResultStore(config_.cacheDir)
                .hasCellByFingerprint(fingerprint))
            return LeaseCompletion::LateDone;
        return LeaseCompletion::Unknown;
    }

    // The record lands before the lease is done, so a done lease
    // never merges a hole.
    store::ResultStore(config_.cacheDir)
        .ingestRecord(record, lease->key, lease->lo, lease->hi);
    coordinator_.complete(leaseId, worker, trialsExecuted,
                          wallSeconds);
    return LeaseCompletion::Done;
}

std::string
Scheduler::jobStateOf(const std::vector<CellStatus> &cells)
{
    bool anyFailed = false, anyActive = false, anyStarted = false;
    for (const auto &cell : cells) {
        switch (cell.state) {
          case CellState::Failed: anyFailed = true; break;
          case CellState::Running:
            anyActive = true;
            anyStarted = true;
            break;
          case CellState::Queued: anyActive = true; break;
          case CellState::Done: anyStarted = true; break;
        }
    }
    if (anyFailed)
        return "failed";
    if (!anyActive)
        return "done";
    return anyStarted ? "running" : "queued";
}

std::optional<JobStatus>
Scheduler::jobStatus(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    const Job &job = it->second;

    JobStatus status;
    status.id = job.id;
    status.experiment = job.experiment;
    status.cells = coordinator_.status(job.cells);
    status.state = jobStateOf(status.cells);
    status.cellsTotal = status.cells.size();
    for (const auto &cell : status.cells) {
        if (cell.state == CellState::Done)
            ++status.cellsDone;
        status.trialsExecuted += cell.trialsExecuted;
    }
    return status;
}

SchedulerStats
Scheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SchedulerStats stats;
    stats.jobs = jobs_.size();
    // Each cell once, however many attached jobs share it.
    std::vector<std::shared_ptr<Cell>> cells;
    std::set<const Cell *> seen;
    for (const auto &[id, job] : jobs_)
        for (const auto &cell : job.cells)
            if (seen.insert(cell.get()).second)
                cells.push_back(cell);
    for (const auto &cell : coordinator_.status(cells)) {
        switch (cell.state) {
          case CellState::Queued: ++stats.cellsQueued; break;
          case CellState::Running: ++stats.cellsRunning; break;
          case CellState::Done: ++stats.cellsDone; break;
          case CellState::Failed: ++stats.cellsFailed; break;
        }
    }
    stats.trialsExecuted = coordinator_.stats().trialsExecuted;
    return stats;
}

} // namespace etc::service
