/**
 * @file
 * Lease coordinator: the daemon's one table of submitted cells, from
 * admission to settlement, and the shard-range leases a worker fleet
 * runs them through.
 *
 * A submitted cell is admitted once per fingerprint: while it is live
 * (queued, leased or being promoted) a duplicate submission shares it.
 * The submission that creates a cell probes it (Scheduler::submit): a
 * cell whose record is stored settles done at once, and any other
 * opens `shardCount` leases, one per ErrorToleranceStudy::shardRange()
 * stripe. Workers (remote agents via POST /v1/leases/acquire, or the
 * daemon's own local executors) acquire leases -- one acquire grants
 * up to `max` pending stripes, all of one cell and no more than the
 * asker's share among the idle workers -- run them as one engine
 * pass, and complete them one by one as each stripe lands. A holder
 * keeps a lease only by renewing it (LeaseKeeper; local executors
 * heartbeat like agents); a lease whose deadline lapses without a
 * heartbeat is re-issued to the next acquirer. Because shard records
 * are content-addressed and a cell is a pure function of its key, a late
 * completion of a re-issued lease is harmless -- both workers wrote
 * identical bytes, so completion is accepted idempotently from any
 * owner, past or present. The completion that marks a cell's last
 * open lease done hands the cell to its caller to promote (or to
 * reopen the stripes the store lacks); a repeat hands over nothing.
 *
 * Settling a cell, done or failed, records its outcome in place and
 * drops it from the table: jobs hold their cells by shared pointer,
 * so they read the final state from the same entry, and the next
 * admission of its fingerprint starts a fresh cell that re-reads the
 * store. The coordinator never touches the result store or the
 * simulator: it is pure bookkeeping behind one mutex, so every method
 * is safe to call from the single-threaded HTTP event loop and from
 * scheduler workers concurrently. The probe, a completion's record
 * ingest and shard-merge promotion stay in the Scheduler, which owns
 * the store. Expiry needs no thread: acquires and reads re-pend
 * lapsed leases. The executor side both kinds of worker share --
 * LeaseKeeper and runLeasePass() -- lives here too.
 *
 * Failure model: a failure reported by the lease's holder and a
 * deadline expiry both re-pend the lease (a report from anyone else
 * changes nothing); a lease that reaches MAX_LEASE_ISSUES grants
 * settles its whole cell failed at once (a deterministic simulation
 * bug would otherwise re-issue forever).
 */

#ifndef ETC_SERVICE_COORDINATOR_HH
#define ETC_SERVICE_COORDINATOR_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "store/cell_key.hh"

namespace etc::core {
class ErrorToleranceStudy;
struct StripeResult;
} // namespace etc::core

namespace etc::service {

/** Static description of one submitted cell -- everything a remote
 *  worker needs to rebuild the exact CellKey. */
struct LeaseCell
{
    std::string fingerprint; //!< expected CellKey fingerprint
    std::string experiment;  //!< the sweep's registry name (a
                             //!< worker rebuilds its study from it)
    unsigned errors = 0;
    std::string policy;
    unsigned trials = 0;
    uint64_t seed = 0;
};

/** One granted lease: the cell description plus the stripe. */
struct LeaseGrant
{
    std::string id; //!< "<fingerprint>.<shardIndex>of<shardCount>"
    LeaseCell cell;
    unsigned shardIndex = 0;
    unsigned shardCount = 0;
    unsigned lo = 0; //!< stripe trial range [lo, hi)
    unsigned hi = 0;
    unsigned issue = 0;  //!< 1 on first grant, 2+ on re-issues
    uint64_t ttlMs = 0;
};

/** A worker's standing on a lease: the answer to a heartbeat or a
 *  failure report (the worker decides whether to keep going). */
enum class LeaseBeat
{
    Active,  //!< the worker holds it (renewed, or failure taken)
    Lost,    //!< re-issued to another worker, or done (finishing is
             //!< harmless)
    Unknown, //!< no such lease (cell settled, or never seen)
};

/** Lifecycle of one submitted cell. */
enum class CellState
{
    Queued,  //!< admitted; no worker has taken a lease yet
    Running, //!< a lease of it has been granted
    Done,
    Failed,
};

/** @return the canonical lowercase name of @p state. */
const char *cellStateName(CellState state);

/** Point-in-time snapshot of one cell of a job. */
struct CellStatus
{
    std::string fingerprint; //!< on-disk record address
    std::string canonical;   //!< human-readable cell key
    unsigned errors = 0;
    std::string policy;      //!< injection policy name
    unsigned trials = 0;
    CellState state = CellState::Queued;
    bool cached = false;          //!< served without simulating
    uint64_t trialsExecuted = 0;  //!< trials simulated (once done)
    double wallSeconds = 0.0;     //!< simulation wall time (once done)
    std::string error;            //!< failure message (state Failed)

    /** Simulation throughput (0 for cached/unstarted cells). */
    double
    trialsPerSec() const
    {
        return wallSeconds > 0.0 ? trialsExecuted / wallSeconds : 0.0;
    }
};

/** Point-in-time lease row (GET /v1/fleet and tests). */
struct LeaseInfo
{
    std::string id;
    std::string fingerprint;
    unsigned shardIndex = 0;
    unsigned shardCount = 0;
    std::string state; //!< pending | active | done
    std::string owner; //!< last granted worker ("" while pending)
    unsigned issue = 0;
    int64_t remainingMs = 0; //!< deadline - now (active only)
};

/** Aggregate counters (healthz, /v1/fleet, shutdown summaries). */
struct CoordinatorStats
{
    size_t cells = 0;         //!< cells whose leases are open
    size_t leasesPending = 0;
    size_t leasesActive = 0;
    size_t leasesDone = 0;
    size_t workers = 0;       //!< agents seen within the activity window
    uint64_t issued = 0;      //!< grants, including re-issues
    uint64_t reissued = 0;
    uint64_t expired = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;      //!< worker-reported lease failures
    uint64_t trialsExecuted = 0; //!< over every cell settled done
};

/**
 * One submitted cell, from admission to settlement. What admission
 * fixes -- the worker-facing description and the store key -- is
 * const, so any thread may read it; the cell's progress belongs to
 * the Coordinator, which reads it out under its mutex (status()).
 */
class Cell
{
  public:
    Cell(LeaseCell spec, store::CellKey key)
        : spec(std::move(spec)), key(std::move(key))
    {}

    const LeaseCell spec;
    const store::CellKey key;

  private:
    friend class Coordinator;

    enum class LeaseState { Pending, Active, Done };

    struct Lease
    {
        unsigned shardIndex = 0;
        unsigned lo = 0;
        unsigned hi = 0;
        LeaseState state = LeaseState::Pending;
        std::string owner;
        unsigned issue = 0;
        std::chrono::steady_clock::time_point deadline{};
    };

    CellState state = CellState::Queued;
    std::vector<Lease> leases; //!< empty until the probe opens them
    bool cached = false;
    uint64_t trialsExecuted = 0; //!< summed from complete() reports
    double wallSeconds = 0.0;    //!< likewise, plus probe or promotion
    std::string error;
};

/** The store range a lease covers (a completion's record must be of
 *  it). */
struct LeaseRange
{
    store::CellKey key;
    unsigned lo = 0;
    unsigned hi = 0;
};

class Coordinator
{
  public:
    /** Grants per lease before its cell fails permanently. */
    static constexpr unsigned MAX_LEASE_ISSUES = 5;

    /** @p leaseTtlMs is the lease deadline; a holder renews at a
     *  third of it. */
    explicit Coordinator(uint64_t leaseTtlMs);

    /** @p callback runs (outside the coordinator mutex) whenever
     *  leases turn pending -- a cell's leases open, or a failure or a
     *  promotion re-pends some -- so the scheduler's idle executors
     *  need not wait for their next poll. */
    void setActivityCallback(std::function<void()> callback);

    /// @name Admission
    /// @{

    /**
     * @return the live cell of @p spec's fingerprint -- queued,
     * running or being promoted -- or a new queued one, and whether
     * this call created it (its creator probes it). A duplicate
     * submission thus shares the live cell and never runs it twice; a
     * settled cell is never reused, so a fresh one re-reads the store.
     */
    std::pair<std::shared_ptr<Cell>, bool> admit(LeaseCell spec,
                                                 store::CellKey key);

    /** The probe missed: decompose @p cell into @p shardCount stripe
     *  leases. @p alreadyDone marks stripes whose shard record is
     *  already stored (the resume path); those leases start done. */
    void openLeases(Cell &cell, unsigned shardCount,
                    const std::vector<bool> &alreadyDone);
    /// @}

    /// @name Leases
    /// @{

    /**
     * Grant @p worker up to @p max pending leases, all of one cell
     * (expired actives were re-pended by sweepExpired(), which this
     * calls), so the worker runs them as one pass. The grant is also
     * capped at the worker's share of the cell's pending leases,
     * split evenly (rounding up) among the idle workers: the asker
     * and every other worker seen within the activity window that
     * holds no active lease. A busy fleet thus takes whole cells,
     * while a lone cell fans out over every idle worker. A non-empty
     * @p experiment grants only that experiment's cells (a local
     * executor asks only for a study it has locked). Re-grants count
     * toward the lease's issue cap.
     */
    std::vector<LeaseGrant> acquire(const std::string &worker,
                                    unsigned max,
                                    const std::string &experiment = {});

    /** Extend the deadline of @p leaseId if @p worker still owns it. */
    LeaseBeat heartbeat(const std::string &leaseId,
                        const std::string &worker);

    /**
     * Mark @p leaseId done. Idempotent and owner-agnostic: a stale
     * owner of a re-issued lease completed the same content-addressed
     * bytes, so its completion is accepted too (a repeat simply keeps
     * the lease done). The caller stores the stripe's record first.
     * @return the lease's cell when this call marked its last open
     *         lease done (the caller promotes it), else nullptr.
     */
    std::shared_ptr<Cell> complete(const std::string &leaseId,
                                   const std::string &worker,
                                   uint64_t trialsExecuted,
                                   double wallSeconds);

    /**
     * Failure reported by @p worker: if it holds the active lease,
     * re-pend the lease for the next acquirer, or -- at the issue cap
     * -- settle the whole cell failed; otherwise change nothing.
     * @return Active when the report was taken, else Lost or Unknown.
     */
    LeaseBeat fail(const std::string &leaseId, const std::string &worker,
                   const std::string &error);

    /** Re-pend lapsed active leases (a cell at the issue cap settles
     *  failed) and age out idle workers. Cheap; every acquire and
     *  every read of cell or lease state calls it. */
    void sweepExpired();

    /** @return the store range of open lease @p leaseId, or nullopt
     *  if no open cell has it. */
    std::optional<LeaseRange> lookupLease(const std::string &leaseId) const;
    /// @}

    /// @name Promotion and settlement
    /// @{

    /** Put the given stripes of @p cell, whose promotion found their
     *  shards missing from the store, back to pending. */
    void reopenStripes(Cell &cell, const std::vector<unsigned> &stripes);

    /** Settle @p cell done -- promoted, or probed as already stored
     *  -- adding @p seconds to its wall time. It is `cached` when it
     *  simulated no trial. */
    void settleDone(const std::shared_ptr<Cell> &cell, double seconds);

    /** Settle @p cell failed with @p error. */
    void settleFailed(const std::shared_ptr<Cell> &cell,
                      const std::string &error);
    /// @}

    /// @name Reads: each calls sweepExpired() first.
    /// @{

    /** @return a snapshot of each of @p cells, in order (a job's
     *  status); trials and wall time show once a cell settles done. */
    std::vector<CellStatus> status(
        const std::vector<std::shared_ptr<Cell>> &cells);

    CoordinatorStats stats();

    /** Every lease of every open cell (fleet debugging). */
    std::vector<LeaseInfo> leases();
    /// @}

  private:
    using Clock = std::chrono::steady_clock;

    static std::string leaseId(const Cell &cell, unsigned shardIndex);
    /** @return the open cell of lease @p id (exactly as leaseId()
     *  prints it), with @p lease set, or nullptr. */
    std::shared_ptr<Cell> findLease(const std::string &id,
                                    Cell::Lease **lease) const;
    /** @p cell is a pointer of the caller's own, not the table's
     *  entry, which this erases. */
    void settleLocked(const std::shared_ptr<Cell> &cell, CellState state,
                      double seconds, const std::string &error);
    void sweepExpiredLocked();
    void touchWorker(const std::string &worker);
    void updateGauges() const;
    void notifyActivity();

    const uint64_t leaseTtlMs_;
    std::function<void()> activity_;

    mutable std::mutex mutex_; //!< guards everything below
    /** Every live cell, by fingerprint: one per fingerprint. */
    std::map<std::string, std::shared_ptr<Cell>> cells_;
    std::map<std::string, Clock::time_point> workersSeen_;
    uint64_t issued_ = 0;
    uint64_t reissued_ = 0;
    uint64_t expired_ = 0;
    uint64_t completed_ = 0;
    uint64_t failed_ = 0;
    uint64_t trialsSettled_ = 0;
};

/**
 * Keeps held leases alive: a thread renews every lease between hold()
 * and release() at a third of its TTL. A holder keeps a lease only by
 * renewing it, so the daemon's local executors and remote agents both
 * hold theirs through one of these, from acquire until completion.
 */
class LeaseKeeper
{
  public:
    /** Renews one lease (a coordinator call or an HTTP heartbeat);
     *  the answer is ignored, since finishing a lost lease is
     *  harmless. */
    using Beat = std::function<void(const std::string &leaseId,
                                    const std::string &worker)>;

    explicit LeaseKeeper(Beat beat);

    /** Stops renewing and joins the thread. */
    ~LeaseKeeper();

    LeaseKeeper(const LeaseKeeper &) = delete;
    LeaseKeeper &operator=(const LeaseKeeper &) = delete;

    /** Renew @p grant on behalf of @p worker until release(). */
    void hold(const LeaseGrant &grant, const std::string &worker);

    /** Stop renewing @p leaseId (a no-op when it is not held). */
    void release(const std::string &leaseId);

  private:
    void loop();

    Beat beat_;
    std::mutex mutex_; //!< guards everything below
    std::condition_variable wake_;
    std::map<std::string, std::string> held_; //!< lease id -> worker
    uint64_t periodMs_ = 1000; //!< ttl/3 of the latest grant
    bool stopping_ = false;
    std::thread thread_;
};

/**
 * The one way a lease executor -- the daemon's local pool or an
 * `etc_lab work` agent -- runs what it acquired: @p grants, pending
 * stripes of one cell, as one pass through @p study, which nothing
 * else runs meanwhile (the study is not thread-safe: the daemon's
 * executors hold its run mutex). @p keeper renews
 * each grant for @p worker until its stripe, persisted, has been
 * through @p landed. The @p landed calls run in landing order on
 * threads of the call's own, off the engine's path, so a slow
 * completion (an agent's request to a stalled coordinator) never
 * holds up the pass; the call returns once every landed stripe has
 * been through it. When the pass fails, every grant that never landed
 * reaches @p failed; the grants a stop request left unstarted reach
 * neither, and lapse and re-issue.
 */
void runLeasePass(
    core::ErrorToleranceStudy &study,
    const std::vector<LeaseGrant> &grants, const std::string &worker,
    LeaseKeeper &keeper,
    const std::function<void(const LeaseGrant &grant,
                             const core::StripeResult &stripe)> &landed,
    const std::function<void(const LeaseGrant &grant,
                             const std::string &error)> &failed);

} // namespace etc::service

#endif // ETC_SERVICE_COORDINATOR_HH
