/**
 * @file
 * CampaignService: the JSON request router of the `etc_lab serve`
 * daemon, mapping the HTTP API onto the scheduler and result store.
 * handle() walks one route table (path or prefix, method, 405
 * message, handler, label); the matched route's label is what
 * etc_http_requests_total counts the response under and names the
 * request's `http/<label>` trace span. Labels are the paths below,
 * with a prefix route's id or name as "*":
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
 *   GET  /v1/index               the archive index: health counters
 *                                plus one entry per indexed cell
 *   POST /v1/leases/acquire      grant up to {"max":N} shard-range
 *                                leases to {"worker":name} (the fleet
 *                                pull API of `etc_lab work`)
 *   POST /v1/leases/<id>/heartbeat  extend the lease deadline; "lost"
 *                                means it was re-issued elsewhere
 *   POST /v1/leases/<id>/complete   report a lease finished with its
 *                                stripe's record, exactly the on-disk
 *                                bytes of its shard or of the whole
 *                                cell, in "record" (or {"failed":true}
 *                                to re-pend it); a record that is not
 *                                the lease's is a 400 that writes
 *                                nothing. Idempotent and safe to race;
 *                                answers "done" to stale owners of
 *                                re-issued leases -- their bytes
 *                                matched by construction
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
 * else is application/json. Handlers only touch the scheduler's jobs,
 * the coordinator's cell table and the store -- all simulation runs
 * on scheduler workers or agents -- so they are safe to call from the
 * single-threaded HTTP event loop. The lease calls that touch no
 * store (acquire, heartbeat, failure, fleet status) go to the
 * coordinator directly; a completion stores its record first,
 * through the scheduler.
 *
 * Read side: the service keeps one StoreIndex and one ResultStore for
 * its cache root, loaded lazily by the first request that reads the
 * archive. Each request refreshes them, and a refresh lists cells/
 * again only when the directory changed on disk (index.hh) and reads
 * a cell record only when its file changed (file_io.hh), so an
 * unchanged archive is served from memory while a cell any process
 * renames into place shows up in the next answer. Response bytes are
 * never cached: every request folds the current index and records.
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

    /** Route one request (the HttpServer handler), stamping the
     *  route's label on the response (HttpResponse::endpoint). */
    HttpResponse handle(const HttpRequest &request);

  private:
    // The route handlers: each takes the request and the rest of its
    // path past the route's own (a prefix route's id or name).
    HttpResponse submitJob(const HttpRequest &, const std::string &);
    HttpResponse jobStatus(const HttpRequest &, const std::string &id);
    HttpResponse cellRecord(const HttpRequest &, const std::string &key);
    HttpResponse experimentList(const HttpRequest &, const std::string &);
    HttpResponse policyList(const HttpRequest &, const std::string &);
    HttpResponse figure(const HttpRequest &, const std::string &name);
    HttpResponse analysis(const HttpRequest &, const std::string &name);
    HttpResponse query(const HttpRequest &, const std::string &);
    HttpResponse indexStatus(const HttpRequest &, const std::string &);
    HttpResponse acquireLeases(const HttpRequest &, const std::string &);
    HttpResponse leaseAction(const HttpRequest &, const std::string &suffix);
    HttpResponse fleet(const HttpRequest &, const std::string &);
    HttpResponse healthz(const HttpRequest &, const std::string &);
    HttpResponse metricz(const HttpRequest &, const std::string &);

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
    Coordinator &coordinator_; //!< the scheduler's cell table

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
