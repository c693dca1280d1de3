/**
 * @file
 * Lease coordinator: decomposes submitted cells into shard-range
 * leases and tracks their lifecycle across a worker fleet.
 *
 * Each registered cell becomes `shardCount` leases, one per
 * ErrorToleranceStudy::shardRange() stripe. Workers (remote agents
 * via POST /v1/leases/acquire, or the daemon's own local pool)
 * acquire leases -- one acquire grants up to `max` pending stripes,
 * all of one cell and no more than the asker's share among the idle
 * workers -- run them as one engine pass, and complete them one by
 * one as each stripe lands. A holder keeps a lease only by
 * renewing it (LeaseKeeper; local executors heartbeat like agents);
 * a lease whose deadline lapses without a heartbeat is re-issued to
 * the next acquirer. Because shard records are
 * content-addressed and a cell is a pure function of its key, a late
 * completion of a re-issued lease is harmless -- both workers wrote
 * identical bytes, so completion is accepted idempotently from any
 * owner, past or present.
 *
 * The coordinator never touches the result store or the simulator:
 * it is pure bookkeeping behind one mutex, so every method is safe to
 * call from the single-threaded HTTP event loop and from scheduler
 * workers concurrently. Store verification (has the shard actually
 * landed?) and shard-merge promotion stay in the Scheduler, which
 * owns the store. The executor side both kinds of worker share --
 * LeaseKeeper and runLeasePass() -- lives here too.
 *
 * Failure model: worker-reported failures and deadline expiries both
 * re-pend the lease; a lease that reaches maxIssues grants fails its
 * whole cell (a deterministic simulation bug would otherwise
 * re-issue forever). takeFailed()/takeCompleted() hand terminal cells
 * to exactly one harvesting worker.
 */

#ifndef ETC_SERVICE_COORDINATOR_HH
#define ETC_SERVICE_COORDINATOR_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace etc::core {
class ErrorToleranceStudy;
struct StripeResult;
} // namespace etc::core

namespace etc::service {

/** Coordinator knobs (from `etc_lab serve` flags). */
struct CoordinatorConfig
{
    /** Lease deadline; a worker heartbeats at ttl/3 to keep it. */
    uint64_t leaseTtlMs = 10000;

    /** Grants per lease before its cell fails permanently. */
    unsigned maxIssues = 5;
};

/** Static description of one cell registered for decomposition --
 *  everything a remote worker needs to rebuild the exact CellKey. */
struct LeaseCell
{
    std::string fingerprint; //!< expected CellKey fingerprint
    std::string experiment;  //!< the sweep's registry name (a
                             //!< worker rebuilds its study from it)
    unsigned errors = 0;
    std::string policy;
    unsigned trials = 0;
    uint64_t seed = 0;
    uint64_t checkpointInterval = 0;
    bool staticPrune = false;
    unsigned gangWidth = 0;
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

/** Heartbeat verdict (the worker decides whether to keep going). */
enum class LeaseBeat
{
    Active,  //!< deadline extended
    Lost,    //!< re-issued to another worker (finishing is harmless)
    Unknown, //!< no such lease (cell promoted, failed, or never seen)
};

/** A cell whose every lease is done, claimed for promotion. */
struct CompletedCell
{
    LeaseCell cell;
    unsigned shardCount = 0;
    uint64_t trialsExecuted = 0; //!< summed from complete() reports
    double wallSeconds = 0.0;    //!< summed from complete() reports
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
    size_t cells = 0;         //!< cells currently registered
    size_t leasesPending = 0;
    size_t leasesActive = 0;
    size_t leasesDone = 0;
    size_t workers = 0;       //!< agents seen within the activity window
    uint64_t issued = 0;      //!< grants, including re-issues
    uint64_t reissued = 0;
    uint64_t expired = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;      //!< worker-reported lease failures
};

class Coordinator
{
  public:
    explicit Coordinator(CoordinatorConfig config);

    /** @p callback runs (outside the coordinator mutex) whenever a
     *  lease completes or fails -- the scheduler pokes its condvar so
     *  promotion does not wait for the next poll tick. */
    void setActivityCallback(std::function<void()> callback);

    /**
     * Register @p cell as @p shardCount leases. @p alreadyDone marks
     * stripes whose shard record is already stored (the resume path);
     * those leases start done. Idempotent: re-registering a live
     * fingerprint is a no-op. @return true if newly registered.
     */
    bool registerCell(const LeaseCell &cell, unsigned shardCount,
                      const std::vector<bool> &alreadyDone);

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
     * bytes, so its completion is accepted too (double completions
     * simply keep the lease done). The caller verifies the shard
     * actually landed in the store first. @return false if unknown.
     */
    bool complete(const std::string &leaseId, const std::string &worker,
                  uint64_t trialsExecuted, double wallSeconds);

    /**
     * Worker-reported failure: re-pend the lease for the next
     * acquirer, or -- at the issue cap -- fail the whole cell.
     * @return false if unknown (or already done).
     */
    bool fail(const std::string &leaseId, const std::string &worker,
              const std::string &error);

    /** Re-pend lapsed active leases (cells at the issue cap fail)
     *  and age out idle workers. Cheap; called at poll frequency. */
    void sweepExpired();

    /** Claim cells whose every lease is done (each exactly once).
     *  The claimer promotes and then calls finishCell() -- or
     *  reopenStripes() if the store disagrees. */
    std::vector<CompletedCell> takeCompleted();

    /** Claim permanently failed cells: (fingerprint, error). */
    std::vector<std::pair<std::string, std::string>> takeFailed();

    /** Forget a promoted cell (its record is in the store). */
    void finishCell(const std::string &fingerprint);

    /** Put the given stripes of a claimed cell back to pending (the
     *  promoting worker found their shards missing from the store). */
    void reopenStripes(const std::string &fingerprint,
                       const std::vector<unsigned> &stripes);

    /** @return the grant-shaped view of @p leaseId whatever its
     *  state (completion handlers verify the store against it), or
     *  nullopt if no such lease is registered. */
    std::optional<LeaseGrant> lookupLease(
        const std::string &leaseId) const;

    CoordinatorStats stats() const;

    /** Every lease of every registered cell (fleet debugging). */
    std::vector<LeaseInfo> leases() const;

    uint64_t leaseTtlMs() const { return config_.leaseTtlMs; }

  private:
    using Clock = std::chrono::steady_clock;

    enum class State { Pending, Active, Done };

    struct Lease
    {
        unsigned shardIndex = 0;
        unsigned lo = 0;
        unsigned hi = 0;
        State state = State::Pending;
        std::string owner;
        unsigned issue = 0;
        Clock::time_point deadline{};
    };

    struct CellEntry
    {
        LeaseCell cell;
        unsigned shardCount = 0;
        std::vector<Lease> leases;
        uint64_t trialsExecuted = 0;
        double wallSeconds = 0.0;
        bool promoting = false; //!< claimed by takeCompleted()
        bool failed = false;
        std::string error;
    };

    struct ParsedId
    {
        std::string fingerprint;
        unsigned shardIndex = 0;
    };

    static std::string leaseId(const std::string &fingerprint,
                               unsigned shardIndex,
                               unsigned shardCount);
    std::optional<ParsedId> parseLeaseId(
        const std::string &leaseId) const;
    Lease *findLease(const std::string &leaseId, CellEntry **entry);
    void sweepExpiredLocked();
    void touchWorker(const std::string &worker);
    void updateGauges() const;
    void notifyActivity();

    CoordinatorConfig config_;
    std::function<void()> activity_;

    mutable std::mutex mutex_; //!< guards everything below
    std::map<std::string, CellEntry> cells_; //!< by fingerprint
    std::map<std::string, Clock::time_point> workersSeen_;
    uint64_t issued_ = 0;
    uint64_t reissued_ = 0;
    uint64_t expired_ = 0;
    uint64_t completed_ = 0;
    uint64_t failed_ = 0;
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
 * completion (an agent's push to a stalled coordinator) never holds
 * up the pass; the call returns once every landed stripe has been
 * through it. When the pass fails, every grant that never landed
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
