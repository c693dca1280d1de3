/**
 * @file
 * WorkerAgent: the remote half of the distributed campaign fabric
 * (`etc_lab work --coordinator URL`).
 *
 * The agent pulls shard-range leases from a coordinator daemon
 * (POST /v1/leases/acquire) -- one acquire grants up to `max` pending
 * stripes, all of one cell, within the agent's share among the idle
 * workers -- rebuilds the cell's exact study context from the grant
 * (the sweep's registry name, seed, checkpoint interval, static
 * prune, gang width -- everything that derives the CellKey), and runs
 * the stripes as one pass through the same cache-aware engine
 * `etc_lab run` uses; one pass at a time, spread over its threads. As
 * each stripe lands, the agent pushes its shard record back
 * (POST /v1/shards) and completes its lease, off the engine's path
 * (see runLeasePass), so a stalled coordinator never stalls the
 * pass. A LeaseKeeper thread heartbeats every held lease at a third
 * of its TTL, as the daemon's local executors do, so a live worker
 * never loses a lease and a SIGKILLed one loses them within one TTL.
 *
 * Correctness invariants:
 *
 *  - Before executing, the agent re-derives the CellKey from its own
 *    workload assembly and compares fingerprints with the grant; a
 *    mismatch (version skew between worker and coordinator binaries)
 *    fails the lease rather than pushing wrong-keyed bytes.
 *  - The pushed record is the canonical codec encoding -- the exact
 *    bytes a local run on the coordinator would have written -- so
 *    fleet results are bit-identical to single-host runs and races
 *    between duplicate workers are harmless by construction.
 *  - A lease lost to re-issue (heartbeat answers "lost") is still
 *    finished and pushed: the bytes match the replacement worker's,
 *    and the coordinator accepts late completions idempotently.
 *
 * The agent keeps its own result store (scratch by default), so a
 * re-granted stripe it already executed is a local cache hit, and the
 * stripes of a cell it has fully cached are answered with the cell
 * record, without simulation.
 */

#ifndef ETC_SERVICE_WORKER_HH
#define ETC_SERVICE_WORKER_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/experiments.hh"
#include "core/study.hh"
#include "service/coordinator.hh"
#include "store/cell_key.hh"

namespace etc::service {

/** Worker-agent knobs (from `etc_lab work` flags). */
struct WorkerConfig
{
    std::string host = "127.0.0.1"; //!< coordinator address
    uint16_t port = 0;

    /** Worker name reported on every lease call (shows up in
     *  /v1/fleet and lease ownership). Default: "w<pid>". */
    std::string name;

    /** Local result-store root; empty = a per-process scratch
     *  directory under the system temp dir. Pointing it at the
     *  coordinator's cache directory on a shared filesystem also
     *  works -- pushes then dedup to no-ops. */
    std::string cacheDir;

    unsigned threads = 0; //!< campaign threads per pass (0 = all)

    /** Stop after completing (or failing) this many leases (an
     *  acquire asks for no more than the rest of them); 0 = run until
     *  stop()/SIGTERM. */
    uint64_t maxLeases = 0;

    /** Idle poll interval when the coordinator has no work. */
    uint64_t pollMs = 500;
};

class WorkerAgent
{
  public:
    explicit WorkerAgent(WorkerConfig config);

    /** stop() + join (idempotent). */
    ~WorkerAgent();

    WorkerAgent(const WorkerAgent &) = delete;
    WorkerAgent &operator=(const WorkerAgent &) = delete;

    const WorkerConfig &config() const { return config_; }

    /** Spawn the executor thread (call once). */
    void start();

    /** Finish the pass in flight, then join the executor. */
    void stop();

    /** Block until the executor exits (maxLeases reached, or
     *  stop()/shutdown requested). */
    void join();

    /** Lifetime counters (read after join() for the exit report). */
    struct Summary
    {
        uint64_t leasesCompleted = 0;
        uint64_t leasesFailed = 0; //!< reported failed to coordinator
        uint64_t recordsPushed = 0;
        uint64_t trialsExecuted = 0;
        double wallSeconds = 0.0; //!< summed pass time of its stripes
    };

    Summary summary() const;

  private:
    void executorLoop();
    void beatLease(const std::string &id, const std::string &worker);
    bool stopNow() const;
    std::vector<LeaseGrant> acquire(uint64_t max);
    void processLeases(const std::vector<LeaseGrant> &grants);
    void finishLease(const LeaseGrant &grant, const store::CellKey &key,
                     const core::StripeResult &stripe);
    void completeLease(const LeaseGrant &grant, uint64_t trials,
                       double wallSeconds);
    void failLease(const LeaseGrant &grant, const std::string &error);
    bench::ExperimentStudy &contextFor(const LeaseCell &cell);

    WorkerConfig config_;

    /** Per-sweep engine state, parameterized by the grant (a fleet's
     *  leases may carry differing seeds, checkpoint settings or gang
     *  widths). Only the executor touches it. */
    std::map<std::string, std::unique_ptr<bench::ExperimentStudy>>
        contexts_;
    uint64_t leasesTaken_ = 0; //!< toward config_.maxLeases (executor)

    mutable std::mutex mutex_; //!< guards everything below
    std::condition_variable stopCv_;
    bool stopping_ = false;
    bool started_ = false;
    Summary summary_;

    std::thread executor_;
    LeaseKeeper keeper_; //!< heartbeats every held lease
};

} // namespace etc::service

#endif // ETC_SERVICE_WORKER_HH
