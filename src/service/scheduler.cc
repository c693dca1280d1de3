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

/** Scheduler-level metrics: queue/worker gauges tick at bookkeeping
 *  frequency (task transitions), never inside simulation loops. */
struct SchedulerMetrics
{
    telemetry::Gauge &queueDepth = telemetry::gauge(
        "etc_scheduler_queue_depth",
        "Cell tasks waiting for a worker");
    telemetry::Gauge &workers = telemetry::gauge(
        "etc_scheduler_workers",
        "Worker threads in the scheduler pool");
    telemetry::Gauge &workersBusy = telemetry::gauge(
        "etc_scheduler_workers_busy",
        "Worker threads currently executing a cell task");
    telemetry::Counter &cellsDone = telemetry::counter(
        "etc_scheduler_cells_done_total",
        "Cell tasks completed successfully (simulated or cached)");
    telemetry::Counter &cellsCached = telemetry::counter(
        "etc_scheduler_cells_cached_total",
        "Cell tasks satisfied entirely from the result store");
    telemetry::Counter &cellsFailed = telemetry::counter(
        "etc_scheduler_cells_failed_total",
        "Cell tasks that raised an error");
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

Scheduler::Scheduler(SchedulerConfig config)
    : config_(std::move(config)),
      coordinator_(CoordinatorConfig{config_.leaseTtlMs,
                                     config_.maxLeaseIssues}),
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
    struct PlannedCell
    {
        bench::ExperimentStudy *lab;
        unsigned errors;
        std::string policy;
        unsigned trials;
        store::CellKey key;
        std::string fingerprint;
    };
    std::vector<PlannedCell> planned;
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
            auto fingerprint = key.fingerprint();
            signature += fingerprint;
            signature += ';';
            planned.push_back({&lab, errors, policy, trials,
                               std::move(key), std::move(fingerprint)});
        }
    }

    // Job-level idempotency: an identical submission that is still
    // queued or running is the same job -- attach to it.
    if (auto active = activeJobsBySignature_.find(signature);
        active != activeJobsBySignature_.end()) {
        const Job &job = jobs_.at(active->second);
        std::string state = jobStateOf(job);
        if (state == "queued" || state == "running")
            return {job.id, true, job.cells.size()};
        activeJobsBySignature_.erase(active);
    }

    Job job;
    job.id = "j";
    job.id += std::to_string(nextJobId_++);
    job.experiment = artifact.name;
    job.signature = signature;
    bool enqueued = false;
    for (auto &plan : planned) {
        // Cell-level idempotency: reuse a live (queued/running) task
        // for the same CellKey instead of running it twice. Completed
        // tasks are not reused -- a fresh task re-reads the store and
        // completes as a cache hit with zero trials.
        std::shared_ptr<CellTask> task;
        if (auto live = liveTasks_.find(plan.fingerprint);
            live != liveTasks_.end()) {
            task = live->second;
        } else {
            task = std::make_shared<CellTask>();
            task->lab = plan.lab;
            task->errors = plan.errors;
            task->policy = plan.policy;
            task->trials = plan.trials;
            task->key = std::move(plan.key);
            task->fingerprint = plan.fingerprint;
            liveTasks_[plan.fingerprint] = task;
            queue_.push_back(task);
            enqueued = true;
        }
        job.cells.push_back(std::move(task));
    }

    std::string id = job.id;
    size_t cellCount = job.cells.size();
    jobs_[id] = std::move(job);
    activeJobsBySignature_[signature] = id;
    schedulerMetrics().queueDepth.set(
        static_cast<int64_t>(queue_.size()));
    evictCompletedJobs();
    if (enqueued)
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
        std::string state = jobStateOf(job);
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
        bool didWork = collectFailedCells();
        didWork |= promoteCompletedCells(store);
        didWork |= probeNextTask();
        if (executor)
            didWork |= executeLeases();
        idle = !didWork;
    }
}

bool
Scheduler::probeNextTask()
{
    std::shared_ptr<CellTask> task;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        task = queue_.front();
        queue_.pop_front();
        task->state = CellState::Running;
        schedulerMetrics().queueDepth.set(
            static_cast<int64_t>(queue_.size()));
    }
    try {
        // Cache first: a warm-cache cell completes with zero
        // simulation and never touches the coordinator. (Each worker
        // probes through its own ResultStore instance; see the
        // store's concurrent-writer contract.)
        auto probeStarted = std::chrono::steady_clock::now();
        store::ResultStore probe(config_.cacheDir);
        if (probe.loadCell(task->key)) {
            // A cache hit still costs a store load; report that wall
            // time (instead of 0) so dashboards get a finite number,
            // with cached=true marking that trialsPerSec is
            // meaningless for this cell.
            std::chrono::duration<double> probeSpan =
                std::chrono::steady_clock::now() - probeStarted;
            std::lock_guard<std::mutex> lock(mutex_);
            task->state = CellState::Done;
            task->cached = true;
            task->wallSeconds += probeSpan.count();
            liveTasks_.erase(task->fingerprint);
            schedulerMetrics().cellsDone.add();
            schedulerMetrics().cellsCached.add();
            return true;
        }

        // Miss: decompose into shard-range leases. Stripes whose
        // shard record is already stored (a killed predecessor's
        // progress) register as done, so the cell resumes.
        unsigned shardCount =
            std::max(1u, std::min(config_.chunks, task->trials));
        std::vector<bool> alreadyDone(shardCount, false);
        for (unsigned i = 0; i < shardCount; ++i) {
            auto [lo, hi] = core::ErrorToleranceStudy::shardRange(
                task->trials, i, shardCount);
            alreadyDone[i] = probe.hasShard(task->key, lo, hi);
        }

        LeaseCell cell;
        cell.fingerprint = task->fingerprint;
        cell.experiment = task->lab->exp.name;
        cell.errors = task->errors;
        cell.policy = task->policy;
        cell.trials = task->trials;
        cell.seed = task->lab->study.config().seed;

        // Registered *before* the coordinator sees the cell, so a
        // remote completion arriving immediately can find the task.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            leasedTasks_[task->fingerprint] = task;
        }
        coordinator_.registerCell(cell, shardCount, alreadyDone);
    } catch (const std::exception &e) {
        failTask(task, e.what());
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
        // an already stored one (e.g. pushed by a remote worker while
        // its lease lapsed) lands without simulating.
        runLeasePass(
            lab->study, grants, LOCAL_WORKER, keeper_,
            [this](const LeaseGrant &grant,
                   const core::StripeResult &stripe) {
                schedulerMetrics().chunkSeconds.observe(
                    stripe.wallSeconds);
                // Task/global tallies accrue at promotion (from the
                // coordinator's sums), not here -- one accounting path
                // for local and remote workers alike.
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
    auto completed = coordinator_.takeCompleted();
    for (const auto &done : completed)
        promoteCell(done, store);
    return !completed.empty();
}

void
Scheduler::promoteCell(const CompletedCell &done,
                       store::ResultStore &store)
{
    const std::string &fingerprint = done.cell.fingerprint;
    auto task = leasedTask(fingerprint);
    if (!task) {
        // The task vanished (collected as failed by a racing worker);
        // nothing to promote into.
        coordinator_.finishCell(fingerprint);
        return;
    }
    auto promoteStarted = std::chrono::steady_clock::now();
    try {
        if (store.hasCell(task->key)) {
            store.dropShards(task->key);
        } else {
            // Promote the shard tiling to the cell record: assembled,
            // persisted, and bit-identical to a monolithic run,
            // whoever executed the stripes. No simulation happens
            // here -- promotion is pure store arithmetic.
            try {
                store.promoteShards(task->key,
                                    store.loadShards(task->key));
            } catch (const store::StoreFormatError &) {
                // The tiling has gaps: some "completed" stripes never
                // reached the store (a worker lied or its push was
                // lost). Re-pend exactly those stripes.
                std::vector<unsigned> missing;
                for (unsigned i = 0; i < done.shardCount; ++i) {
                    auto [lo, hi] =
                        core::ErrorToleranceStudy::shardRange(
                            task->trials, i, done.shardCount);
                    if (!store.hasShard(task->key, lo, hi))
                        missing.push_back(i);
                }
                if (missing.empty())
                    throw; // genuinely unmergeable: fail the cell
                warn("scheduler: cell ", fingerprint, " missing ",
                     missing.size(),
                     " completed stripe(s) from the store; "
                     "re-issuing their leases");
                coordinator_.reopenStripes(fingerprint, missing);
                return;
            }
        }

        std::chrono::duration<double> promoteSpan =
            std::chrono::steady_clock::now() - promoteStarted;
        finishTask(task, done.trialsExecuted,
                   done.wallSeconds + promoteSpan.count());
        coordinator_.finishCell(fingerprint);
    } catch (const std::exception &e) {
        failTask(task, e.what());
        coordinator_.finishCell(fingerprint);
    }
}

bool
Scheduler::collectFailedCells()
{
    auto failed = coordinator_.takeFailed();
    for (const auto &[fingerprint, error] : failed) {
        if (auto task = leasedTask(fingerprint))
            failTask(task, error);
    }
    return !failed.empty();
}

std::shared_ptr<Scheduler::CellTask>
Scheduler::leasedTask(const std::string &fingerprint) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = leasedTasks_.find(fingerprint);
    return it == leasedTasks_.end() ? nullptr : it->second;
}

void
Scheduler::finishTask(const std::shared_ptr<CellTask> &task,
                      uint64_t trialsExecuted, double wallSeconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    task->trialsExecuted += trialsExecuted;
    task->wallSeconds += wallSeconds;
    trialsExecuted_ += trialsExecuted;
    // Every stripe came from stored shards: the cell resumed (or was
    // pushed) without this daemon simulating a single trial.
    task->cached = task->trialsExecuted == 0;
    task->state = CellState::Done;
    liveTasks_.erase(task->fingerprint);
    leasedTasks_.erase(task->fingerprint);
    schedulerMetrics().cellsDone.add();
    if (task->cached)
        schedulerMetrics().cellsCached.add();
}

void
Scheduler::failTask(const std::shared_ptr<CellTask> &task,
                    const std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    task->state = CellState::Failed;
    task->error = error;
    liveTasks_.erase(task->fingerprint);
    leasedTasks_.erase(task->fingerprint);
    schedulerMetrics().cellsFailed.add();
    warn("scheduler: cell ", task->key.canonical(), " failed: ",
         error);
}

std::vector<LeaseGrant>
Scheduler::acquireLeases(const std::string &worker, unsigned max)
{
    return coordinator_.acquire(worker, max);
}

LeaseBeat
Scheduler::heartbeatLease(const std::string &leaseId,
                          const std::string &worker)
{
    return coordinator_.heartbeat(leaseId, worker);
}

Scheduler::LeaseCompletion
Scheduler::completeLease(const std::string &leaseId,
                         const std::string &worker,
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
        bool hex16 =
            fingerprint.size() == 16 &&
            std::all_of(fingerprint.begin(), fingerprint.end(),
                        [](char c) {
                            return (c >= '0' && c <= '9') ||
                                   (c >= 'a' && c <= 'f');
                        });
        if (hex16 && store::ResultStore(config_.cacheDir)
                         .hasCellByFingerprint(fingerprint))
            return LeaseCompletion::LateDone;
        return LeaseCompletion::Unknown;
    }

    // Trust but verify: "complete" must mean the stripe's bytes are
    // actually in the store (pushed via /v1/shards, written by a
    // local worker sharing the cache, or subsumed by the promoted
    // cell record). A completion without bytes would merge a hole.
    if (auto task = leasedTask(lease->cell.fingerprint)) {
        store::ResultStore store(config_.cacheDir);
        if (!store.hasShard(task->key, lease->lo, lease->hi) &&
            !store.hasCell(task->key))
            return LeaseCompletion::MissingShard;
    }
    coordinator_.complete(leaseId, worker, trialsExecuted,
                          wallSeconds);
    return LeaseCompletion::Done;
}

bool
Scheduler::failLease(const std::string &leaseId,
                     const std::string &worker,
                     const std::string &error)
{
    return coordinator_.fail(leaseId, worker, error);
}

store::ResultStore::IngestOutcome
Scheduler::ingestRecord(const std::string &text)
{
    store::ResultStore store(config_.cacheDir);
    return store.ingestRecord(text);
}

CoordinatorStats
Scheduler::fleetStats() const
{
    return coordinator_.stats();
}

std::vector<LeaseInfo>
Scheduler::fleetLeases() const
{
    return coordinator_.leases();
}

std::string
Scheduler::jobStateOf(const Job &job)
{
    bool anyFailed = false, anyActive = false, anyStarted = false;
    for (const auto &task : job.cells) {
        switch (task->state) {
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
    status.state = jobStateOf(job);
    status.cellsTotal = job.cells.size();
    for (const auto &task : job.cells) {
        CellStatus cell;
        cell.fingerprint = task->fingerprint;
        cell.canonical = task->key.canonical();
        cell.errors = task->errors;
        cell.policy = task->policy;
        cell.trials = task->trials;
        cell.state = task->state;
        cell.cached = task->cached;
        cell.trialsExecuted = task->trialsExecuted;
        cell.wallSeconds = task->wallSeconds;
        cell.error = task->error;
        if (task->state == CellState::Done)
            ++status.cellsDone;
        status.trialsExecuted += task->trialsExecuted;
        status.cells.push_back(std::move(cell));
    }
    return status;
}

SchedulerStats
Scheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SchedulerStats stats;
    stats.jobs = jobs_.size();
    stats.trialsExecuted = trialsExecuted_;
    std::set<const CellTask *> seen;
    for (const auto &[id, job] : jobs_) {
        for (const auto &task : job.cells) {
            if (!seen.insert(task.get()).second)
                continue; // shared with an attached job
            switch (task->state) {
              case CellState::Queued: ++stats.cellsQueued; break;
              case CellState::Running: ++stats.cellsRunning; break;
              case CellState::Done: ++stats.cellsDone; break;
              case CellState::Failed: ++stats.cellsFailed; break;
            }
        }
    }
    return stats;
}

} // namespace etc::service
