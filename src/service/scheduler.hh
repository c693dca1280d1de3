/**
 * @file
 * Async campaign job scheduler: the engine room of `etc_lab serve`.
 *
 * Submitted figures and paper tables (or single cells) become jobs
 * over the coordinator's cells (see coordinator.hh), which own each
 * cell's state from admission to settlement. The scheduler keeps the
 * jobs, the studies their sweeps share and the daemon's own bounded
 * pool of local lease executors, and it settles each cell in the call
 * that ends its work: submit() probes every cell it admits, and the
 * completion of a cell's last open lease -- completeLease() for a
 * remote agent, the landed callback for a local executor -- promotes
 * it before it returns. Cells run on whoever holds their shard-range
 * leases -- the local executors, remote `etc_lab work` agents, or a
 * mix. A local executor first locks a sweep's study that no other
 * local executor is running, so it never holds leases it cannot
 * start; it then acquires its share of one of that sweep's cells'
 * pending stripes (all of them when no other worker is idle), runs
 * them as one pass (ErrorToleranceStudy::runStripes), completes each
 * lease as its stripe lands, and heartbeats every lease it holds
 * meanwhile, exactly like an agent:
 *
 *  - Idempotent on CellKey: a duplicate submission shares the
 *    coordinator's live cell (and an identical active job is returned
 *    outright instead of creating a twin).
 *  - Cache-first: the submission's probe settles a cell whose record
 *    is already in the ResultStore with zero simulation (`cached`,
 *    trialsExecuted == 0), so a warm job is done when its POST
 *    answers; stripes whose shard records are already stored open as
 *    done leases, so a resubmission resumes, and a cell with every
 *    stripe stored is promoted by the submission itself.
 *  - Kill-tolerant twice over: every lease persists as a shard
 *    record as its stripe lands, so losing the daemon mid-cell loses
 *    at most the stripes in flight, and losing a *worker* mid-pass
 *    just lets its leases expire and re-issue -- local pass failures
 *    ride the same re-issue path as remote worker deaths (one
 *    recovery mechanism, not two).
 *  - Deterministic: when every lease of a cell is done, the shards
 *    are promoted through the store's one promoteShards() path (no
 *    simulation), so a fleet-computed cell is bit-identical to a
 *    single-host run whoever executed the stripes.
 *  - Graceful: stop() lets every local worker finish and persist its
 *    pass, then joins the pool; a stop request (SIGINT/SIGTERM) stops
 *    passes from starting new stripes, and their unstarted leases
 *    lapse and re-issue.
 *
 * `workers = 0` runs a pure coordinator with no thread of its own:
 * probes, promotions and lease expiry all happen in the calls that
 * cause them, and all simulation happens on remote agents.
 *
 * Cells of the same sweep share one study (each policy's golden
 * run is made once) and are serialized on it -- the study itself is
 * not thread-safe -- but each pass's trials fan out across the
 * study's own campaign thread pool, and distinct sweeps run
 * concurrently on distinct workers.
 */

#ifndef ETC_SERVICE_SCHEDULER_HH
#define ETC_SERVICE_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/experiments.hh"
#include "core/study.hh"
#include "service/coordinator.hh"
#include "store/result_store.hh"

namespace etc::service {

/** Scheduler-wide configuration (from `etc_lab serve` flags). */
struct SchedulerConfig
{
    std::string cacheDir;     //!< result-store root (required)
    unsigned workers = 2;     //!< local lease executors (0 = pure
                              //!< coordinator: remote agents only)
    unsigned threads = 0;     //!< campaign threads per cell (0 = all)
    unsigned chunks = 4;      //!< shard-range leases per cell
    uint64_t seed = core::StudyConfig{}.seed;

    /** Lease deadline; workers heartbeat at a third of it. */
    uint64_t leaseTtlMs = 10000;
};

/** Point-in-time snapshot of one job. */
struct JobStatus
{
    std::string id;
    std::string experiment;
    std::string state; //!< queued | running | done | failed
    size_t cellsTotal = 0;
    size_t cellsDone = 0;
    uint64_t trialsExecuted = 0;
    std::vector<CellStatus> cells;
};

/** Aggregate counters for /v1/healthz and shutdown summaries. */
struct SchedulerStats
{
    size_t jobs = 0;
    size_t cellsQueued = 0;
    size_t cellsRunning = 0;
    size_t cellsDone = 0;
    size_t cellsFailed = 0;
    uint64_t trialsExecuted = 0;
};

class Scheduler
{
  public:
    explicit Scheduler(SchedulerConfig config);

    /** Graceful stop() + join (idempotent). */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    const SchedulerConfig &config() const { return config_; }

    /** The campaign knobs every study of the daemon's sweeps is built
     *  with, so its cell keys match `etc_lab run`'s. */
    bench::BenchOptions studyOptions() const;

    /** Spawn the `workers` local executors (call once); a workers =
     *  0 config spawns none. */
    void start();

    /**
     * Finish and persist every in-flight local lease, then join the
     * workers. Queued cells and unexecuted leases stay in the
     * coordinator (their progress, if any, is already in the store).
     */
    void stop();

    /** Outcome of a submission. */
    struct SubmitOutcome
    {
        std::string jobId;
        bool attached = false; //!< an identical active job was reused
        size_t cells = 0;
    };

    /**
     * Submit every cell of @p artifact's sweeps, or -- when @p cell
     * is set -- the single (errors, policy-name) cell of a one-sweep
     * artifact. @p trialsOverride nonzero overrides each sweep's
     * default trial count. Idempotent: an identical active submission
     * is returned with attached = true, and a cell the coordinator
     * holds live is shared, never duplicated. Each cell this call
     * admits is probed before it returns: done if stored, else leased.
     *
     * Callers validate names themselves (the service router resolves
     * the artifact and the policy against their registries, and
     * refuses a single cell of a paper table, before submitting).
     */
    SubmitOutcome submit(
        const bench::Artifact &artifact, unsigned trialsOverride,
        std::optional<std::pair<unsigned, std::string>> cell);

    /** @return a snapshot of job @p id, or nullopt if unknown. */
    std::optional<JobStatus> jobStatus(const std::string &id);

    /** @return aggregate counters over every job and cell. */
    SchedulerStats stats();

    /** The daemon's cell and lease table: the lease calls that touch
     *  no store go to it directly. */
    Coordinator &coordinator() { return coordinator_; }

    /// @name The fleet call that touches the store
    /// @{

    /** Outcome of completeLease(). */
    enum class LeaseCompletion
    {
        Done,     //!< accepted (possibly a repeat -- idempotent)
        LateDone, //!< lease gone but its cell is promoted; the
                  //!< stale worker's bytes matched by construction
        Unknown,  //!< no such lease and no such cell
    };

    /**
     * POST /v1/leases/<id>/complete: ingest the stripe's @p record --
     * its shard record, or the whole cell's -- checked against the
     * lease (ResultStore::ingestRecord()), then mark the lease done;
     * the completion of the cell's last open lease promotes the cell
     * before it returns. Idempotent and owner-agnostic: late
     * completions of re-issued leases are accepted, because every
     * writer of a content-addressed record produced identical bytes;
     * once the cell is promoted and the lease forgotten, one answers
     * LateDone and writes nothing.
     *
     * @throws store::StoreFormatError when @p record is not the
     *         lease's; nothing is written and the lease stays as it was.
     */
    LeaseCompletion completeLease(const std::string &leaseId,
                                  const std::string &worker,
                                  const std::string &record,
                                  uint64_t trialsExecuted,
                                  double wallSeconds);
    /// @}

  private:
    struct Job
    {
        std::string id;
        std::string experiment;
        std::string signature; //!< sorted cell fingerprints
        /** The coordinator's entries; a live cell is shared with
         *  every job that attached to it. */
        std::vector<std::shared_ptr<Cell>> cells;
    };

    /** Completed jobs retained for status queries; older ones are
     *  evicted (the daemon must not grow per submission forever). */
    static constexpr size_t MAX_RETAINED_JOBS = 512;

    void executorLoop();
    bool executeLeases();
    void probeCell(const std::shared_ptr<Cell> &cell);
    void promoteCell(const std::shared_ptr<Cell> &cell);
    void evictCompletedJobs();
    static std::string jobStateOf(const std::vector<CellStatus> &cells);

    SchedulerConfig config_;
    Coordinator coordinator_;
    std::optional<LeaseKeeper> keeper_; //!< only with local executors

    std::mutex mutex_; //!< guards everything below
    std::condition_variable workAvailable_;
    std::map<std::string, Job> jobs_;
    std::map<std::string, std::string> activeJobsBySignature_;
    bench::SweepStudies studies_; //!< one per submitted sweep
    uint64_t nextJobId_ = 1;
    uint64_t activity_ = 0; //!< times leases turned pending
    bool stopping_ = false;
    bool started_ = false;

    std::vector<std::thread> workers_;
};

} // namespace etc::service

#endif // ETC_SERVICE_SCHEDULER_HH
