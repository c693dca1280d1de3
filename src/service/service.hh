/**
 * @file
 * CampaignService: the JSON request router of the `etc_lab serve`
 * daemon, mapping the HTTP API onto the scheduler and result store.
 *
 *   POST /v1/jobs                submit a figure, a paper table or
 *                                one cell of a sweep (idempotent on
 *                                CellKey; a duplicate submission
 *                                attaches to the live job)
 *   GET  /v1/jobs/<id>           job status + per-cell progress
 *   GET  /v1/cells/<key>         stored cell record as JSON (<key> is
 *                                the 16-hex CellKey fingerprint)
 *   GET  /v1/experiments         the registry: every paper figure
 *                                and table (a table names its
 *                                sweeps), plus the smoke sweeps
 *   GET  /v1/policies            the injection-policy registry (the
 *                                same rows `etc_lab policies` prints)
 *   GET  /v1/figures/<name>      figure or paper table rendered
 *                                from the store, byte-identical to
 *                                `etc_lab report` (optional
 *                                ?trials=N override); 409 while
 *                                cells are missing
 *   GET  /v1/analysis/<workload> static ACE/AVF vulnerability report,
 *                                byte-identical to `etc_lab analyze`
 *   GET  /v1/query               archive rollup from the secondary
 *                                index + stored records (no
 *                                simulation); filters workload=,
 *                                policy= (repeatable), errors=
 *                                (repeatable), seed=, trials=, with
 *                                agg= one of cells/coverage/curve/
 *                                delta/cdf/avf (base= names delta's
 *                                baseline); bytes identical to
 *                                `etc_lab query --json`
 *   GET  /v1/index               the secondary index: health counters
 *                                plus every indexed cell/shard entry
 *   POST /v1/leases/acquire      grant up to {"max":N} shard-range
 *                                leases to {"worker":name} (the fleet
 *                                pull API of `etc_lab work`)
 *   POST /v1/leases/<id>/heartbeat  extend the lease deadline; "lost"
 *                                means it was re-issued elsewhere
 *   POST /v1/leases/<id>/complete   report a lease finished (or
 *                                {"failed":true} to re-pend it); the
 *                                service verifies the shard record is
 *                                actually in the store first (409 if
 *                                not), and answers "done" to stale
 *                                owners of re-issued leases -- their
 *                                bytes matched by construction
 *   POST /v1/shards              push one shard/cell record (raw JSONL
 *                                body, exactly the on-disk bytes);
 *                                idempotent and safe to race
 *   GET  /v1/fleet               coordinator stats + the lease table
 *   GET  /v1/healthz             liveness: uptime, version, build
 *                                flags, queue depth + aggregate
 *                                counters + index health
 *   GET  /v1/metricz             every process metric in Prometheus
 *                                text exposition format (also the feed
 *                                of `etc_lab stats`)
 *
 * Every error is a 4xx/5xx JSON object {"error":...,"status":...};
 * figures are text/plain (their bytes are the contract), everything
 * else is application/json. Handlers only touch the scheduler's
 * queues and the store -- all simulation runs on scheduler workers --
 * so they are safe to call from the single-threaded HTTP event loop.
 *
 * Read side: the service keeps one StoreIndex and one ResultStore for
 * its cache root, loaded lazily by the first request that reads the
 * archive. Each request refreshes them, and a refresh re-reads the
 * index only when its manifest or journal changed on disk and a cell
 * record only when its file changed (file_io.hh), so an unchanged
 * archive is served from memory while a cell any process writes shows
 * up in the next answer. Response bytes are never cached: every
 * request folds the current index and records.
 */

#ifndef ETC_SERVICE_SERVICE_HH
#define ETC_SERVICE_SERVICE_HH

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/http_server.hh"
#include "service/scheduler.hh"
#include "store/cell_key.hh"
#include "store/index.hh"
#include "store/result_store.hh"

namespace etc::service {

class CampaignService
{
  public:
    /** @param scheduler started scheduler (not owned; must outlive). */
    explicit CampaignService(Scheduler &scheduler);

    /** Route one request (the HttpServer handler). */
    HttpResponse handle(const HttpRequest &request);

  private:
    HttpResponse submitJob(const HttpRequest &request);
    HttpResponse jobStatus(const std::string &id);
    HttpResponse cellRecord(const std::string &fingerprint);
    HttpResponse experimentList();
    HttpResponse policyList();
    HttpResponse figure(const std::string &name,
                        const HttpRequest &request);
    HttpResponse analysis(const std::string &name);
    HttpResponse query(const HttpRequest &request);
    HttpResponse indexStatus();
    HttpResponse acquireLeases(const HttpRequest &request);
    HttpResponse leaseAction(const std::string &suffix,
                             const HttpRequest &request);
    HttpResponse ingestShard(const HttpRequest &request);
    HttpResponse fleet();
    HttpResponse healthz();
    HttpResponse metricz();

    /**
     * The sweep's cell keys for (sweep, trials override), memoized:
     * keys need the workload assembled and the protection analysis
     * run, which must not repeat on the event loop for every figure
     * poll. All other key inputs are fixed per daemon. The memo is
     * bounded (distinct ?trials= values are client-chosen) and simply
     * resets when full. Call with readMutex_ held.
     */
    const std::vector<store::CellKey> &figureKeys(
        const bench::Experiment &exp, const bench::BenchOptions &opts);

    Scheduler &scheduler_;

    /** Guards the read side below: the archive's index and record
     *  memo, the figure-key memo and the table studies. */
    std::mutex readMutex_;
    store::StoreIndex index_;
    store::ResultStore store_;
    std::map<std::string, std::vector<store::CellKey>> figureKeys_;

    /** The studies paper tables read their analysis and profile
     *  columns from: a profile costs one golden simulation, so each is
     *  made once (the registry bounds the memo). */
    bench::SweepStudies studies_;
};

/** @return {"error":<message>,"status":<status>} with that status. */
HttpResponse errorResponse(int status, const std::string &message);

} // namespace etc::service

#endif // ETC_SERVICE_SERVICE_HH
