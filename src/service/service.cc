#include "service/service.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string_view>

#include "core/query.hh"
#include "core/vulnerability_report.hh"
#include "store/index.hh"
#include "store/json.hh"
#include "workloads/workload.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace etc::service {

namespace {

std::string
encodeIndexHealth(const store::IndexHealth &health)
{
    store::JsonObjectWriter writer;
    writer.field("cells", health.cells)
        .field("shardSets", health.shardSets)
        .field("shardRanges", health.shardRanges)
        .field("orphanedShards", health.orphanedShards);
    return writer.str();
}

/**
 * Finite non-negative seconds from a JSON number or string field
 * (absent fields are 0; wall time is telemetry, not bit-exact data,
 * so plain decimal text is fine here). nullopt means unparseable.
 */
std::optional<double>
parseSeconds(const store::JsonValue *value)
{
    if (!value)
        return 0.0;
    if (value->kind != store::JsonValue::Kind::Number &&
        value->kind != store::JsonValue::Kind::String)
        return std::nullopt;
    try {
        size_t used = 0;
        double parsed = std::stod(value->text, &used);
        if (used != value->text.size() || !(parsed >= 0.0) ||
            !std::isfinite(parsed))
            return std::nullopt;
        return parsed;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

/** Parse @p request's body into @p body. @return the 400 that
 *  refuses it unless it is a JSON object. */
std::optional<HttpResponse>
readObjectBody(const HttpRequest &request, store::JsonValue &body)
{
    try {
        body = store::parseJson(request.body);
    } catch (const store::JsonError &e) {
        return errorResponse(400, std::string("malformed JSON body: ") +
                                      e.what());
    }
    if (!body.isObject())
        return errorResponse(400, "request body must be a JSON object");
    return std::nullopt;
}

/** Everything `etc_lab work` needs to execute the stripe and verify
 *  it rebuilt the exact CellKey the coordinator expects. */
std::string
encodeLeaseGrant(const LeaseGrant &grant)
{
    store::JsonObjectWriter writer;
    writer.field("id", grant.id)
        .field("cell", grant.cell.fingerprint)
        .field("experiment", grant.cell.experiment)
        .field("errors", uint64_t{grant.cell.errors})
        .field("policy", grant.cell.policy)
        .field("trials", uint64_t{grant.cell.trials})
        .field("seed", store::hexU64(grant.cell.seed))
        .field("shardIndex", uint64_t{grant.shardIndex})
        .field("shardCount", uint64_t{grant.shardCount})
        .field("lo", uint64_t{grant.lo})
        .field("hi", uint64_t{grant.hi})
        .field("issue", uint64_t{grant.issue})
        .field("ttlMs", grant.ttlMs);
    return writer.str();
}

/** A lease call's 200 answer, {"state":<state>}. */
HttpResponse
leaseState(const char *state)
{
    store::JsonObjectWriter writer;
    writer.field("state", state);
    return HttpResponse::json(200, writer.str());
}

/** A JSON array of pre-encoded @p values. */
std::string
jsonArray(const std::vector<std::string> &values)
{
    std::string array = "[";
    for (const auto &value : values) {
        if (array.size() > 1)
            array += ',';
        array += value;
    }
    return array + "]";
}

std::string
encodeCellStatus(const CellStatus &cell)
{
    store::JsonObjectWriter writer;
    writer.field("key", cell.fingerprint)
        .field("canonical", cell.canonical)
        .field("errors", uint64_t{cell.errors})
        .field("policy", cell.policy)
        .field("trials", uint64_t{cell.trials})
        .field("state", cellStateName(cell.state))
        .field("cached", cell.cached)
        .field("trialsExecuted", cell.trialsExecuted)
        // Throughput of the simulation this daemon actually ran for
        // the cell (0 for cached or still-queued cells), so daemon
        // users see trials/sec without grepping BENCH_JSON lines.
        .field("wallSeconds", readableDouble(cell.wallSeconds))
        .field("trialsPerSec", readableDouble(cell.trialsPerSec()));
    if (!cell.error.empty())
        writer.field("error", cell.error);
    return writer.str();
}

std::string
encodeJobStatus(const JobStatus &status)
{
    std::vector<std::string> cells;
    cells.reserve(status.cells.size());
    for (const auto &cell : status.cells)
        cells.push_back(encodeCellStatus(cell));

    store::JsonObjectWriter writer;
    writer.field("job", status.id)
        .field("experiment", status.experiment)
        .field("state", status.state)
        .field("cellsTotal", uint64_t{status.cellsTotal})
        .field("cellsDone", uint64_t{status.cellsDone})
        .field("trialsExecuted", status.trialsExecuted)
        .rawField("cells", jsonArray(cells));
    return writer.str();
}

std::string
encodeKeyJson(const store::CellKey &key)
{
    store::JsonObjectWriter writer;
    writer.field("workload", key.workload)
        .field("policy", key.policy)
        .field("errors", uint64_t{key.errors})
        .field("trials", uint64_t{key.trials})
        .field("seed", store::hexU64(key.seed))
        .field("budgetBits",
               store::hexU64(store::doubleBits(key.budgetFactor)))
        .field("memoryModel", key.memoryModel)
        .field("program", key.programHash);
    if (!key.policyHash.empty())
        writer.field("policyHash", key.policyHash);
    writer.field("canonical", key.canonical())
        .field("fingerprint", key.fingerprint());
    return writer.str();
}

std::string
encodeSummaryJson(const core::CellSummary &summary)
{
    std::vector<std::string> fidelities;
    fidelities.reserve(summary.fidelities.size());
    for (const auto &score : summary.fidelities) {
        store::JsonObjectWriter line;
        line.field("bits",
                   store::hexU64(store::doubleBits(score.value)))
            .field("value", readableDouble(score.value))
            .field("acceptable", score.acceptable)
            .field("unit", score.unit);
        fidelities.push_back(line.str());
    }

    store::JsonObjectWriter writer;
    writer.field("trials", uint64_t{summary.trials})
        .field("completed", uint64_t{summary.completed})
        .field("crashed", uint64_t{summary.crashed})
        .field("timedOut", uint64_t{summary.timedOut})
        .field("trialsPruned", summary.trialsPruned)
        .field("totalInstructions", summary.totalInstructions)
        .field("failureRate", readableDouble(summary.failureRate()))
        .field("meanFidelity", readableDouble(summary.meanFidelity()))
        .field("acceptableRate",
               readableDouble(summary.acceptableRate()))
        .rawField("fidelities", jsonArray(fidelities));
    return writer.str();
}

} // namespace

HttpResponse
errorResponse(int status, const std::string &message)
{
    store::JsonObjectWriter writer;
    writer.field("error", message).field("status", uint64_t(status));
    return HttpResponse::json(status, writer.str());
}

CampaignService::CampaignService(Scheduler &scheduler)
    : scheduler_(scheduler), coordinator_(scheduler.coordinator()),
      index_(scheduler_.config().cacheDir),
      store_(scheduler_.config().cacheDir),
      studies_(scheduler_.studyOptions())
{}

HttpResponse
CampaignService::handle(const HttpRequest &request)
{
    // A path ending in '/' is a prefix, and the rest of the request's
    // path goes to the handler. The first match answers.
    struct Route
    {
        const char *path;
        const char *method;
        const char *refusal; //!< the 405 message for any other method
        HttpResponse (CampaignService::*handler)(const HttpRequest &,
                                                 const std::string &rest);
        const char *label; //!< etc_http_requests_total's endpoint
    };
    static const Route ROUTES[] = {
        {"/v1/jobs", "POST", "use POST to submit a job",
         &CampaignService::submitJob, "/v1/jobs"},
        {"/v1/jobs/", "GET", "use GET for job status",
         &CampaignService::jobStatus, "/v1/jobs/*"},
        {"/v1/cells/", "GET", "use GET for cell records",
         &CampaignService::cellRecord, "/v1/cells/*"},
        {"/v1/experiments", "GET", "use GET for the experiment registry",
         &CampaignService::experimentList, "/v1/experiments"},
        {"/v1/policies", "GET", "use GET for the policy registry",
         &CampaignService::policyList, "/v1/policies"},
        {"/v1/figures/", "GET", "use GET for figures",
         &CampaignService::figure, "/v1/figures/*"},
        {"/v1/analysis/", "GET", "use GET for analysis reports",
         &CampaignService::analysis, "/v1/analysis/*"},
        {"/v1/query", "GET", "use GET for archive queries",
         &CampaignService::query, "/v1/query"},
        {"/v1/index", "GET", "use GET for the archive index",
         &CampaignService::indexStatus, "/v1/index"},
        {"/v1/leases/acquire", "POST", "use POST to acquire leases",
         &CampaignService::acquireLeases, "/v1/leases/acquire"},
        {"/v1/leases/", "POST", "use POST for lease lifecycle calls",
         &CampaignService::leaseAction, "/v1/leases/*"},
        {"/v1/fleet", "GET", "use GET for fleet status",
         &CampaignService::fleet, "/v1/fleet"},
        {"/v1/healthz", "GET", "use GET for health checks",
         &CampaignService::healthz, "/v1/healthz"},
        {"/v1/metricz", "GET", "use GET for metrics",
         &CampaignService::metricz, "/v1/metricz"},
    };

    const std::string path = request.path();
    for (const Route &route : ROUTES) {
        std::string_view routePath = route.path;
        if (routePath.ends_with('/') ? !path.starts_with(routePath)
                                     : path != routePath)
            continue;
        telemetry::TraceSpan span("http", route.label);
        HttpResponse response =
            request.method == route.method
                ? (this->*route.handler)(request,
                                         path.substr(routePath.size()))
                : errorResponse(405, route.refusal);
        response.endpoint = route.label;
        return response;
    }
    return errorResponse(404, "no such endpoint: " + path);
}

HttpResponse
CampaignService::submitJob(const HttpRequest &request,
                           const std::string &)
{
    store::JsonValue body;
    if (auto refused = readObjectBody(request, body))
        return *refused;

    std::optional<bench::Artifact> artifact;
    unsigned trials = 0;
    std::optional<std::pair<unsigned, std::string>> cell;
    try {
        const store::JsonValue *name = body.find("experiment");
        if (!name)
            return errorResponse(400,
                                 "missing required field 'experiment'");
        artifact = bench::findArtifact(name->asString());
        if (!artifact)
            return errorResponse(
                404, "unknown experiment '" + name->asString() +
                         "' (try GET /v1/experiments)");

        if (const store::JsonValue *value = body.find("trials")) {
            trials = value->asU32();
            if (trials == 0)
                return errorResponse(
                    400, "trials must be >= 1 (omit the field for "
                         "the experiment default)");
        }

        // The removed pre-policy alias is refused rather than
        // ignored, which would silently run the default policy.
        if (body.find("mode"))
            return errorResponse(
                400, "'mode' is no longer accepted; name the injection "
                     "policy with 'policy'");
        const store::JsonValue *errors = body.find("errors");
        // "policy" names the single cell's injection policy.
        const store::JsonValue *policy = body.find("policy");
        if (policy && !errors)
            return errorResponse(
                400, "'policy' requires 'errors' (a single-cell "
                     "submission names both)");
        if (errors && artifact->table)
            return errorResponse(
                400, "'errors' names one cell of one sweep, and '" +
                         artifact->name + "' is a paper table");
        if (errors) {
            // Validated against the process-wide policy registry --
            // the same resolver every CLI flag routes through.
            std::string policyName =
                policy ? fault::resolveInjectionPolicy(
                             policy->asString())
                             .name
                       : fault::PROTECTED_POLICY;
            cell = {{errors->asU32(), std::move(policyName)}};
        }
    } catch (const store::JsonError &e) {
        return errorResponse(400,
                             std::string("bad request field: ") +
                                 e.what());
    } catch (const std::invalid_argument &e) {
        // An unregistered policy name (try GET /v1/policies).
        return errorResponse(400, e.what());
    }

    auto outcome = scheduler_.submit(*artifact, trials, cell);
    auto status = scheduler_.jobStatus(outcome.jobId);

    store::JsonObjectWriter writer;
    writer.field("job", outcome.jobId)
        .field("attached", outcome.attached)
        .field("cells", uint64_t{outcome.cells})
        .field("state", status ? status->state : "queued");
    return HttpResponse::json(202, writer.str());
}

HttpResponse
CampaignService::jobStatus(const HttpRequest &, const std::string &id)
{
    auto status = scheduler_.jobStatus(id);
    if (!status)
        return errorResponse(404, "unknown job '" + id + "'");
    return HttpResponse::json(200, encodeJobStatus(*status));
}

HttpResponse
CampaignService::cellRecord(const HttpRequest &,
                            const std::string &fingerprint)
{
    if (!store::isFingerprint(fingerprint))
        return errorResponse(
            400, "cell keys are 16 lowercase hex digits (the CellKey "
                 "fingerprint)");
    std::lock_guard<std::mutex> lock(readMutex_);
    const store::CellRecord *record = store_.readCell(fingerprint, nullptr);
    if (!record)
        return errorResponse(404, "no stored record for cell '" +
                                      fingerprint + "'");
    store::JsonObjectWriter writer;
    writer.rawField("key", encodeKeyJson(record->key))
        .rawField("summary", encodeSummaryJson(record->summary));
    return HttpResponse::json(200, writer.str());
}

HttpResponse
CampaignService::experimentList(const HttpRequest &, const std::string &)
{
    // Archive coverage per experiment, from the index alone. Cell
    // keys need the workload assembled and analyzed (memoized in
    // figureKeys), so only experiments whose workload has at least
    // one indexed cell pay that; everything else is 0 for free.
    std::lock_guard<std::mutex> lock(readMutex_);
    index_.load();
    std::set<std::string> indexedWorkloads;
    for (const auto &[fingerprint, key] : index_.entries())
        indexedWorkloads.insert(key.workload);
    bench::BenchOptions opts = scheduler_.studyOptions();
    std::vector<std::string> list;
    for (const auto &artifact : bench::artifacts()) {
        // A figure lists its own policies and error counts; a paper
        // table's sweeps have theirs, under the names in "sweeps".
        std::vector<std::string> policies, errorCounts, sweeps;
        if (artifact.figure) {
            const bench::Experiment &figure = *artifact.figure;
            policies.reserve(figure.policies.size());
            for (const auto &policy : figure.policies)
                policies.push_back(store::jsonQuote(policy));
            errorCounts.reserve(figure.errorCounts.size());
            for (unsigned errors : figure.errorCounts)
                errorCounts.push_back(std::to_string(errors));
        }
        uint64_t cellsCached = 0, defaultTrials = 0;
        for (const bench::Experiment *sweep : artifact.sweeps) {
            if (sweep->errorCounts.empty())
                continue; // a study the table only profiles
            sweeps.push_back(store::jsonQuote(sweep->name));
            defaultTrials =
                std::max<uint64_t>(defaultTrials, sweep->defaultTrials);
            if (indexedWorkloads.count(sweep->workload))
                for (const auto &key : figureKeys(*sweep, opts))
                    if (index_.hasCell(key.fingerprint()))
                        ++cellsCached;
        }
        store::JsonObjectWriter writer;
        writer.field("name", artifact.name)
            .field("figure", artifact.headline())
            .field("title", artifact.figure ? artifact.figure->title
                                            : artifact.table->caption)
            .field("workload",
                   artifact.figure ? artifact.figure->workload : "")
            .field("cells", uint64_t{artifact.cells()})
            .field("cellsCached", cellsCached)
            .field("defaultTrials", defaultTrials)
            .rawField("policies", jsonArray(policies))
            .rawField("errorCounts", jsonArray(errorCounts))
            .rawField("sweeps", jsonArray(sweeps));
        list.push_back(writer.str());
    }

    store::JsonObjectWriter writer;
    writer.rawField("experiments", jsonArray(list));
    return HttpResponse::json(200, writer.str());
}

HttpResponse
CampaignService::policyList(const HttpRequest &, const std::string &)
{
    // The same describeInjectionPolicies() rows `etc_lab policies`
    // prints -- one code path, two renderings.
    std::vector<std::string> list;
    for (const auto &row : fault::describeInjectionPolicies()) {
        store::JsonObjectWriter writer;
        writer.field("name", row.name)
            .field("description", row.description)
            .field("legacy", row.legacy)
            .field("scope", row.scope)
            .field("resultKinds", row.resultKinds)
            .field("bitModel", row.bitModel)
            .field("hash", row.hash);
        list.push_back(writer.str());
    }

    store::JsonObjectWriter writer;
    writer.rawField("policies", jsonArray(list));
    return HttpResponse::json(200, writer.str());
}

HttpResponse
CampaignService::figure(const HttpRequest &request,
                        const std::string &name)
{
    auto artifact = bench::findArtifact(name);
    if (!artifact)
        return errorResponse(404, "unknown experiment '" + name +
                                      "' (try GET /v1/experiments)");

    bench::BenchOptions opts = scheduler_.studyOptions();
    // The rules of `etc_lab fetch --trials`: digits only, >= 1 and
    // overflow-checked, so a malformed value is a 400, never the
    // default trial count.
    if (auto trials = request.queryParam("trials")) {
        try {
            opts.trials = bench::parseCount32("?trials=", *trials);
        } catch (const FatalError &error) {
            return errorResponse(400, error.what());
        }
        if (opts.trials == 0)
            return errorResponse(400, "bad ?trials= value");
    }

    // Byte-identity contract: this is the exact render path of
    // `etc_lab report` pointed at the same cache directory.
    std::ostringstream out;
    std::vector<store::CellKey> missing;
    {
        std::lock_guard<std::mutex> lock(readMutex_);
        std::vector<std::vector<store::CellKey>> keys;
        keys.reserve(artifact->sweeps.size());
        for (const bench::Experiment *sweep : artifact->sweeps)
            keys.push_back(figureKeys(*sweep, opts));
        missing = bench::renderFromStore(out, *artifact, keys, store_,
                                         studies_);
    }
    if (!missing.empty()) {
        std::vector<std::string> names;
        names.reserve(missing.size());
        for (const auto &key : missing)
            names.push_back(store::jsonQuote(key.canonical()));
        store::JsonObjectWriter writer;
        writer
            .field("error",
                   "figure '" + name + "' is missing " +
                       std::to_string(missing.size()) +
                       " stored cells -- submit the experiment and "
                       "wait for the job to drain")
            .field("status", uint64_t{409})
            .rawField("missingCells", jsonArray(names));
        return HttpResponse::json(409, writer.str());
    }
    return HttpResponse::text(200, out.str());
}

HttpResponse
CampaignService::analysis(const HttpRequest &, const std::string &name)
{
    // Validate against the workload registry before doing any work.
    auto names = workloads::workloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end())
        return errorResponse(404, "unknown workload '" + name + "'");

    // Byte-identity contract: this is the exact render path of
    // `etc_lab analyze --workload <name>`. The report needs one
    // golden simulation, so it comes from the process-wide memo (it
    // is a pure function of the workload).
    return HttpResponse::text(200, core::renderVulnerabilityReport(
                                       *core::vulnerabilityReportOf(name)));
}

const std::vector<store::CellKey> &
CampaignService::figureKeys(const bench::Experiment &exp,
                            const bench::BenchOptions &opts)
{
    // The daemon's seed/memory-model/budget knobs are fixed, so the
    // keys vary only with the experiment and the ?trials= override.
    std::string memoKey =
        exp.name + ":" + std::to_string(opts.trials);
    auto it = figureKeys_.find(memoKey);
    if (it == figureKeys_.end()) {
        if (figureKeys_.size() >= 64)
            figureKeys_.clear(); // client-chosen ?trials= values
        it = figureKeys_
                 .emplace(memoKey,
                          bench::experimentCellKeys(exp, opts))
                 .first;
    }
    return it->second;
}

HttpResponse
CampaignService::query(const HttpRequest &request, const std::string &)
{
    core::QueryOptions options;
    try {
        if (auto agg = request.queryParam("agg"))
            options.agg = core::parseQueryAgg(*agg);
        if (auto workload = request.queryParam("workload"))
            options.filter.workload = *workload;
        options.filter.policies = request.queryParams("policy");
        // The rules of `etc_lab query`'s flags: digits only and
        // overflow-checked (or 0x hex for a seed), so a sign or a
        // trailing character is a 400, not a silently different value.
        try {
            for (const std::string &text : request.queryParams("errors"))
                options.filter.errors.push_back(
                    bench::parseCount32("?errors=", text));
            if (auto seed = request.queryParam("seed"))
                options.filter.seed = bench::parseSeedValue("?seed=", *seed);
            if (auto trials = request.queryParam("trials")) {
                options.filter.trials =
                    bench::parseCount32("?trials=", *trials);
                if (*options.filter.trials == 0)
                    return errorResponse(400, "bad ?trials= value");
            }
        } catch (const FatalError &error) {
            return errorResponse(400, error.what());
        }
        if (auto base = request.queryParam("base"))
            options.basePolicy = *base;

        // Byte-identity contract: the envelope is the exact output
        // of `etc_lab query --json` over the same cache directory.
        std::lock_guard<std::mutex> lock(readMutex_);
        return HttpResponse::json(
            200, core::runQuery(index_, store_, options).json);
    } catch (const core::QueryError &error) {
        return errorResponse(400, error.what());
    }
}

HttpResponse
CampaignService::indexStatus(const HttpRequest &, const std::string &)
{
    std::lock_guard<std::mutex> lock(readMutex_);
    index_.load();
    auto health = index_.health();

    std::vector<std::string> entries;
    for (const auto &[fingerprint, key] : index_.entries()) {
        store::JsonObjectWriter writer;
        writer.field("fingerprint", fingerprint)
            .field("workload", key.workload)
            .field("policy", key.policy)
            .field("errors", uint64_t{key.errors})
            .field("trials", uint64_t{key.trials})
            .field("seed", store::hexU64(key.seed));
        entries.push_back(writer.str());
    }

    store::JsonObjectWriter writer;
    writer.rawField("health", encodeIndexHealth(health))
        .rawField("entries", jsonArray(entries));
    return HttpResponse::json(200, writer.str());
}

HttpResponse
CampaignService::acquireLeases(const HttpRequest &request,
                               const std::string &)
{
    store::JsonValue body;
    if (auto refused = readObjectBody(request, body))
        return *refused;
    std::string worker;
    unsigned max = 1;
    try {
        const store::JsonValue *name = body.find("worker");
        if (!name)
            return errorResponse(400,
                                 "missing required field 'worker'");
        worker = name->asString();
        if (worker.empty())
            return errorResponse(400, "'worker' must be non-empty");
        if (const store::JsonValue *value = body.find("max"))
            max = std::max(1u, value->asU32());
    } catch (const store::JsonError &e) {
        return errorResponse(400,
                             std::string("bad request field: ") +
                                 e.what());
    }

    auto grants = coordinator_.acquire(worker, max);
    std::vector<std::string> leases;
    leases.reserve(grants.size());
    for (const auto &grant : grants)
        leases.push_back(encodeLeaseGrant(grant));
    store::JsonObjectWriter writer;
    writer.rawField("leases", jsonArray(leases));
    return HttpResponse::json(200, writer.str());
}

HttpResponse
CampaignService::leaseAction(const HttpRequest &request,
                             const std::string &suffix)
{
    size_t slash = suffix.rfind('/');
    if (slash == std::string::npos || slash == 0)
        return errorResponse(
            404, "lease calls are POST /v1/leases/<id>/heartbeat "
                 "or .../complete");
    std::string id = suffix.substr(0, slash);
    std::string action = suffix.substr(slash + 1);

    store::JsonValue body;
    if (auto refused = readObjectBody(request, body))
        return *refused;
    std::string worker;
    try {
        const store::JsonValue *name = body.find("worker");
        if (!name)
            return errorResponse(400,
                                 "missing required field 'worker'");
        worker = name->asString();
    } catch (const store::JsonError &e) {
        return errorResponse(400,
                             std::string("bad request field: ") +
                                 e.what());
    }
    if (worker.empty())
        return errorResponse(400, "'worker' must be non-empty");

    if (action == "heartbeat") {
        switch (coordinator_.heartbeat(id, worker)) {
          case LeaseBeat::Active: {
            store::JsonObjectWriter writer;
            writer.field("state", "active")
                .field("ttlMs", scheduler_.config().leaseTtlMs);
            return HttpResponse::json(200, writer.str());
          }
          case LeaseBeat::Lost:
            return leaseState("lost");
          case LeaseBeat::Unknown:
            break;
        }
        return errorResponse(404, "unknown lease '" + id + "'");
    }

    if (action == "complete") {
        static telemetry::Counter &ingested = telemetry::counter(
            "etc_worker_shards_ingested_total",
            "Records accepted with lease completions "
            "(POST /v1/leases/<id>/complete)");
        bool failed = false;
        uint64_t trialsExecuted = 0;
        std::string error;
        std::optional<std::string> record;
        try {
            if (const store::JsonValue *value = body.find("failed"))
                failed = value->asBool();
            if (const store::JsonValue *value =
                    body.find("trialsExecuted"))
                trialsExecuted = value->asU64();
            if (const store::JsonValue *value = body.find("error"))
                error = value->asString();
            if (const store::JsonValue *value = body.find("record"))
                record = value->asString();
        } catch (const store::JsonError &e) {
            return errorResponse(400,
                                 std::string("bad request field: ") +
                                     e.what());
        }
        auto wallSeconds = parseSeconds(body.find("wallSeconds"));
        if (!wallSeconds)
            return errorResponse(400, "bad 'wallSeconds' value");

        if (failed) {
            // Only the lease's holder fails it; anyone else hears
            // "lost", as from a heartbeat, and changes nothing.
            switch (coordinator_.fail(id, worker,
                                      error.empty()
                                          ? "worker-reported failure"
                                          : error)) {
              case LeaseBeat::Active:
                return leaseState("pending");
              case LeaseBeat::Lost:
                return leaseState("lost");
              case LeaseBeat::Unknown:
                break;
            }
            return errorResponse(404, "unknown lease '" + id + "'");
        }
        if (!record)
            return errorResponse(
                400, "missing required field 'record' (the stripe's "
                     "shard record, or the cell record)");

        Scheduler::LeaseCompletion outcome;
        try {
            outcome = scheduler_.completeLease(
                id, worker, *record, trialsExecuted, *wallSeconds);
        } catch (const store::StoreFormatError &e) {
            return errorResponse(400,
                                 std::string("unacceptable record: ") +
                                     e.what());
        }
        switch (outcome) {
          case Scheduler::LeaseCompletion::Done:
            ingested.add();
            return leaseState("done");
          case Scheduler::LeaseCompletion::LateDone: {
            store::JsonObjectWriter writer;
            writer.field("state", "done").field("late", true);
            return HttpResponse::json(200, writer.str());
          }
          case Scheduler::LeaseCompletion::Unknown:
            break;
        }
        return errorResponse(404, "unknown lease '" + id + "'");
    }

    return errorResponse(404, "unknown lease action '" + action +
                                  "' (heartbeat or complete)");
}

HttpResponse
CampaignService::fleet(const HttpRequest &, const std::string &)
{
    auto stats = coordinator_.stats();
    std::vector<std::string> leases;
    for (const auto &row : coordinator_.leases()) {
        store::JsonObjectWriter writer;
        writer.field("id", row.id)
            .field("cell", row.fingerprint)
            .field("shardIndex", uint64_t{row.shardIndex})
            .field("shardCount", uint64_t{row.shardCount})
            .field("state", row.state)
            .field("owner", row.owner)
            .field("issue", uint64_t{row.issue})
            .field("remainingMs",
                   readableDouble(double(row.remainingMs)));
        leases.push_back(writer.str());
    }

    store::JsonObjectWriter writer;
    writer.field("cells", uint64_t{stats.cells})
        .field("leasesPending", uint64_t{stats.leasesPending})
        .field("leasesActive", uint64_t{stats.leasesActive})
        .field("leasesDone", uint64_t{stats.leasesDone})
        .field("workers", uint64_t{stats.workers})
        .field("leasesIssued", stats.issued)
        .field("leasesReissued", stats.reissued)
        .field("leasesExpired", stats.expired)
        .field("leasesCompleted", stats.completed)
        .field("leasesFailed", stats.failed)
        .field("leaseTtlMs", scheduler_.config().leaseTtlMs)
        .rawField("leases", jsonArray(leases));
    return HttpResponse::json(200, writer.str());
}

HttpResponse
CampaignService::healthz(const HttpRequest &, const std::string &)
{
    auto stats = scheduler_.stats();
    store::JsonObjectWriter writer;
    writer.field("status", "ok")
        .field("version", telemetry::versionString())
        .field("buildFlags", telemetry::buildFlags())
        .field("uptimeSeconds",
               readableDouble(telemetry::uptimeSeconds()))
        .field("workers", uint64_t{scheduler_.config().workers})
        .field("jobs", uint64_t{stats.jobs})
        // Cells waiting for a worker -- the queue depth a load
        // balancer or fleet coordinator would shed on.
        .field("queueDepth", uint64_t{stats.cellsQueued})
        .field("cellsQueued", uint64_t{stats.cellsQueued})
        .field("cellsRunning", uint64_t{stats.cellsRunning})
        .field("cellsDone", uint64_t{stats.cellsDone})
        .field("cellsFailed", uint64_t{stats.cellsFailed})
        .field("trialsExecuted", stats.trialsExecuted);
    // Fleet counters ride along so one probe also covers the lease
    // fabric (a wedged fleet shows up as pending leases with no
    // workers seen).
    auto fleetStats = coordinator_.stats();
    writer.field("leasesPending", uint64_t{fleetStats.leasesPending})
        .field("leasesActive", uint64_t{fleetStats.leasesActive})
        .field("leasesCompleted", fleetStats.completed)
        .field("fleetWorkers", uint64_t{fleetStats.workers});
    // Archive-index health rides along so one probe covers both the
    // daemon and the store it fronts (orphaned shards show up here
    // before anyone queries).
    store::IndexHealth health;
    {
        std::lock_guard<std::mutex> lock(readMutex_);
        index_.load();
        health = index_.health();
    }
    writer.field("indexCells", health.cells)
        .field("indexShardSets", health.shardSets)
        .field("indexOrphanedShards", health.orphanedShards);
    return HttpResponse::json(200, writer.str());
}

HttpResponse
CampaignService::metricz(const HttpRequest &, const std::string &)
{
    // Refresh the lease table and the daemon's index first, so the
    // etc_lease_* and etc_index_* series a scrape sees describe them
    // as they are now.
    coordinator_.sweepExpired();
    {
        std::lock_guard<std::mutex> lock(readMutex_);
        index_.load();
    }
    // The exposition bytes come straight from the registry; the
    // content type is the one Prometheus scrapers negotiate for the
    // 0.0.4 text format.
    HttpResponse response;
    response.status = 200;
    response.contentType = "text/plain; version=0.0.4; charset=utf-8";
    response.body = telemetry::renderPrometheus();
    return response;
}

} // namespace etc::service
