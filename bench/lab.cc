#include "bench/lab.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/lint.hh"
#include "bench/experiments.hh"
#include "core/query.hh"
#include "core/vulnerability_report.hh"
#include "service/client.hh"
#include "service/http_server.hh"
#include "service/scheduler.hh"
#include "service/service.hh"
#include "service/worker.hh"
#include "store/index.hh"
#include "store/json.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/table.hh"
#include "telemetry/trace.hh"

namespace etc::bench {

namespace {

/** What the command line asked for: the subcommand and every flag
 *  value, at its default until a flag sets it (FLAGS below names the
 *  flag of each field, SUBCOMMANDS which subcommands read it). */
struct LabOptions
{
    std::string command;    //!< the subcommand's name
    std::string experiment; //!< a registry entry
    std::string workload;   //!< a registry workload
    unsigned chunks = 4;    //!< stripes persisted per cell
    BenchOptions bench;     //!< the shared campaign knobs (--policy
                            //!< lands in bench.policies)
    std::string traceOut;   //!< empty = tracing off

    // The campaign service and its fleet.
    uint16_t port = 8977;            //!< serve binds it, the others dial
    std::string host = "127.0.0.1";  //!< the daemon to dial
    unsigned workers = 2;            //!< local cell workers
                                     //!< (0 = coordinator-only)
    std::string coordinator;         //!< http://HOST:PORT
    std::string workerName;          //!< empty = w<pid>
    uint64_t leaseTtlMs = 10000;     //!< lease heartbeat deadline
    uint64_t maxLeases = 0;          //!< 0 = until SIGTERM
    uint64_t pollMs = 500;           //!< idle poll interval
    bool wait = false;               //!< poll until the job drains
    std::string job;                 //!< a job id
    std::string figure;              //!< a figure name
    std::string cell;                //!< a cell fingerprint
    bool verbose = false;            //!< per-request access log

    // The archive.
    std::vector<unsigned> errors;      //!< every --errors value
    std::optional<uint64_t> querySeed; //!< the --seed filter, only
                                       //!< when explicitly given
    std::string agg = "cells";         //!< aggregation name
    std::string basePolicy = "protected"; //!< delta baseline
    bool json = false;                 //!< print the envelope
    bool quarantine = false;           //!< move corrupt records aside
};

void
emitLabJson(const LabOptions &opts, size_t cells, size_t cellsCached,
            size_t cellsComputed, uint64_t trialsExecuted,
            bool interrupted = false)
{
    std::cerr << "ETC_LAB_JSON {"
              << "\"command\":\"" << opts.command << "\","
              << "\"experiment\":\"" << opts.experiment << "\","
              << "\"cells\":" << cells << ","
              << "\"cells_cached\":" << cellsCached << ","
              << "\"cells_computed\":" << cellsComputed << ","
              << "\"trials_executed\":" << trialsExecuted << ","
              << "\"interrupted\":" << (interrupted ? "true" : "false")
              << "}" << std::endl;
}

/** Exit status of a run cut short by SIGINT/SIGTERM (128 + SIGINT). */
constexpr int EXIT_INTERRUPTED = 130;

/** The registry entry --experiment names. */
Artifact
artifactOf(const LabOptions &opts)
{
    auto artifact = findArtifact(opts.experiment);
    if (!artifact)
        fatal("unknown experiment '", opts.experiment,
              "' (available: ", experimentNames(), ")");
    return *artifact;
}

int
labRun(const LabOptions &opts)
{
    Artifact artifact = artifactOf(opts);
    installStopSignalHandlers();
    SweepStudies studies(opts.bench);
    ArtifactRun run = runArtifact(std::cout, artifact, studies, opts.chunks);
    uint64_t trials = 0;
    for (const ExperimentStudy *lab : studies.built())
        trials += lab->study.trialsExecuted();
    if (run.interrupted)
        inform("etc_lab: interrupted; the stripes in flight were ",
               opts.bench.cacheDir.empty()
                   ? "finished (no --cache-dir, progress discarded)"
                   : "finished and persisted -- resume with `etc_lab "
                     "resume`");
    emitLabJson(opts, run.cells, run.cellsCached, run.cellsComputed, trials,
                run.interrupted);
    return run.interrupted ? EXIT_INTERRUPTED : 0;
}

int
labReport(const LabOptions &opts)
{
    Artifact artifact = artifactOf(opts);
    store::ResultStore cache(opts.bench.cacheDir);
    std::vector<std::vector<store::CellKey>> keys;
    size_t cells = 0;
    for (const Experiment *sweep : artifact.sweeps) {
        keys.push_back(experimentCellKeys(*sweep, opts.bench));
        cells += keys.back().size();
    }
    SweepStudies studies(opts.bench);
    auto missing = renderFromStore(std::cout, artifact, keys, cache, studies);
    if (!missing.empty())
        fatal("no stored record for cell ", missing.front().canonical(),
              " in ", opts.bench.cacheDir, " -- run `etc_lab run` first");
    emitLabJson(opts, cells, cells, 0, 0);
    return 0;
}

int
labPolicies(const LabOptions &)
{
    // The same describeInjectionPolicies() rows GET /v1/policies
    // serves -- one code path, two renderings.
    Table table({"name", "legacy", "scope", "result kinds",
                 "bit model", "hash", "description"});
    for (const auto &row : fault::describeInjectionPolicies())
        table.addRow({row.name, row.legacy ? "yes" : "-", row.scope,
                      row.resultKinds, row.bitModel, row.hash,
                      row.description});
    table.print(std::cout);
    return 0;
}

int
labList(const LabOptions &opts)
{
    // With a cache directory, report per-experiment archive coverage
    // ("cached cells / total") from the secondary index. Cell keys
    // need the workload assembled and analyzed, so only experiments
    // whose workload has at least one indexed cell pay that.
    std::optional<store::StoreIndex> index;
    std::set<std::string> indexedWorkloads;
    if (!opts.bench.cacheDir.empty()) {
        index.emplace(opts.bench.cacheDir);
        index->load();
        for (const auto &[fingerprint, key] : index->entries())
            indexedWorkloads.insert(key.workload);
    }

    Table table({"name", "figure", "workload", "cells", "cached",
                 "trials", "error counts"});
    for (const auto &artifact : artifacts()) {
        // Both columns count the cells `run --experiment <name>` would
        // run under these flags: a figure's under --policy's list, a
        // paper table's under its sweeps' own (`run` refuses --policy
        // on a table).
        BenchOptions sweepOpts = opts.bench;
        if (artifact.table)
            sweepOpts.policies.clear();
        size_t hits = 0, total = 0;
        for (const Experiment *sweep : artifact.sweeps) {
            total += experimentCells(*sweep, sweepPolicies(*sweep, sweepOpts))
                         .size();
            if (indexedWorkloads.count(sweep->workload))
                for (const auto &key : experimentCellKeys(*sweep, sweepOpts))
                    if (index->hasCell(key.fingerprint()))
                        ++hits;
        }
        std::string coverage =
            index ? std::to_string(hits) + "/" + std::to_string(total)
                  : "-";
        // A paper table's sweeps each have their own workload, trials
        // and error counts (GET /v1/experiments names them).
        std::string trials = "-", errorCounts = "-";
        if (artifact.figure) {
            trials = std::to_string(artifact.figure->defaultTrials);
            errorCounts.clear();
            for (unsigned errors : artifact.figure->errorCounts) {
                if (!errorCounts.empty())
                    errorCounts += ',';
                errorCounts += std::to_string(errors);
            }
        }
        table.addRow({artifact.name, artifact.headline(),
                      artifact.figure ? artifact.figure->workload : "-",
                      std::to_string(total), coverage, trials,
                      errorCounts});
    }
    table.print(std::cout);
    return 0;
}

int
labQuery(const LabOptions &opts)
{
    core::QueryOptions options;
    options.filter.workload = opts.workload;
    options.filter.policies = opts.bench.policies;
    options.filter.errors = opts.errors;
    if (opts.querySeed)
        options.filter.seed = *opts.querySeed;
    if (opts.bench.trials)
        options.filter.trials = opts.bench.trials;
    options.basePolicy = opts.basePolicy;
    try {
        options.agg = core::parseQueryAgg(opts.agg);
        auto report = core::runQuery(opts.bench.cacheDir, options);
        if (opts.json) {
            // Raw envelope bytes, no added newline: stdout must be
            // byte-identical to GET /v1/query on the same cache.
            std::cout << report.json << std::flush;
        } else {
            report.table.print(std::cout);
            inform("etc_lab: matched ", report.cellsMatched, " of ",
                   report.cellsIndexed, " indexed cells (",
                   report.recordsLoaded,
                   " records loaded, 0 trials simulated)");
        }
        return 0;
    } catch (const core::QueryError &error) {
        std::cerr << "etc_lab: " << error.what() << '\n';
        return 1;
    }
}

int
labReindex(const LabOptions &opts)
{
    store::StoreIndex index(opts.bench.cacheDir);
    auto report = index.audit(opts.quarantine);
    std::cout << "cells indexed: " << report.cells << '\n'
              << "partial cells: " << report.shardSets << '\n'
              << "orphaned shards: " << report.orphanedShards.size()
              << '\n';
    for (const auto &path : report.orphanedShards)
        std::cout << "  orphaned: " << path << '\n';
    std::cout << "corrupt records: " << report.corruptRecords.size()
              << '\n';
    for (const auto &path : report.corruptRecords)
        std::cout << "  corrupt: " << path
                  << (opts.quarantine ? " (quarantined)" : "") << '\n';
    std::cerr << "ETC_REINDEX_JSON {"
              << "\"cells\":" << report.cells << ","
              << "\"partial_cells\":" << report.shardSets << ","
              << "\"orphaned_shards\":" << report.orphanedShards.size()
              << ","
              << "\"corrupt_records\":" << report.corruptRecords.size()
              << ","
              << "\"quarantined\":" << report.quarantined << "}"
              << std::endl;
    return report.corruptRecords.empty() ? 0 : 1;
}

int
labAnalyze(const LabOptions &opts)
{
    auto workload = workloads::createWorkload(opts.workload);
    // The exact bytes GET /v1/analysis/<workload> serves (when run
    // with the default policy pair).
    std::cout << core::renderVulnerabilityReport(
        core::buildVulnerabilityReport(*workload, opts.bench.policies));
    return 0;
}

int
labLint(const LabOptions &opts)
{
    std::vector<std::string> names;
    if (!opts.workload.empty())
        names.push_back(opts.workload);
    else
        names = workloads::workloadNames();

    size_t totalFindings = 0;
    for (const auto &name : names) {
        auto workload = workloads::createWorkload(name);
        analysis::LintReport report =
            analysis::lintProgram(workload->program());
        // The tag bitmap the campaigns inject under: lint it against
        // every registered policy's invariants too.
        auto protection = core::computeStudyProtection(
            *workload, core::StudyConfig{});
        analysis::lintInjectable(workload->program(), protection.tagged,
                                 report);
        if (report.clean()) {
            std::cout << name << ": clean\n";
        } else {
            std::cout << name << ": " << report.findings.size()
                      << " finding(s)\n"
                      << report.toString();
            totalFindings += report.findings.size();
        }
    }
    return totalFindings ? 1 : 0;
}

int
labServe(const LabOptions &opts)
{
    service::SchedulerConfig config;
    config.cacheDir = opts.bench.cacheDir;
    config.workers = opts.workers;
    config.threads = opts.bench.threads;
    config.chunks = opts.chunks;
    config.seed = opts.bench.seed;
    config.leaseTtlMs = opts.leaseTtlMs;

    service::Scheduler scheduler(config);
    service::CampaignService service(scheduler);
    service::HttpServer server(
        opts.port, [&service](const service::HttpRequest &request) {
            return service.handle(request);
        });
    server.setAccessLog(opts.verbose);
    scheduler.start();

    installStopSignalHandlers();
    inform("etc_lab: serving campaign API on http://127.0.0.1:",
           server.port(), " (cache ", config.cacheDir, ", ",
           config.workers, " local workers",
           config.workers == 0 ? " -- coordinator-only, attach "
                                 "`etc_lab work` agents"
                               : "",
           ", ", opts.chunks, " chunks per cell, ", config.leaseTtlMs,
           " ms lease TTL)");
    server.run();

    inform("etc_lab: stop requested; finishing and persisting the "
           "stripes in flight");
    scheduler.stop();
    auto stats = scheduler.stats();
    inform("etc_lab: serve summary: ", stats.jobs, " jobs, ",
           stats.cellsDone, " cells done, ",
           stats.cellsQueued + stats.cellsRunning,
           " cells unfinished (their finished stripes are persisted), ",
           stats.trialsExecuted, " trials executed");
    std::cerr << "ETC_SERVE_JSON {"
              << "\"port\":" << server.port() << ","
              << "\"jobs\":" << stats.jobs << ","
              << "\"cells_done\":" << stats.cellsDone << ","
              << "\"cells_unfinished\":"
              << stats.cellsQueued + stats.cellsRunning << ","
              << "\"cells_failed\":" << stats.cellsFailed << ","
              << "\"trials_executed\":" << stats.trialsExecuted << "}"
              << std::endl;
    return 0;
}

int
labWork(const LabOptions &opts)
{
    // --coordinator http://HOST:PORT (the scheme prefix is
    // optional; a trailing slash or path is rejected rather than
    // silently ignored).
    std::string rest = opts.coordinator;
    if (rest.rfind("http://", 0) == 0)
        rest = rest.substr(7);
    size_t colon = rest.rfind(':');
    if (rest.empty() || rest.find('/') != std::string::npos ||
        colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size())
        fatal("--coordinator expects http://HOST:PORT, got '",
              opts.coordinator, "'");

    service::WorkerConfig config;
    config.host = rest.substr(0, colon);
    config.port = static_cast<uint16_t>(parseCountValue(
        "--coordinator port", rest.substr(colon + 1), 65535));
    config.name = opts.workerName;
    config.cacheDir = opts.bench.cacheDir;
    config.threads = opts.bench.threads;
    config.maxLeases = opts.maxLeases;
    config.pollMs = opts.pollMs;

    service::WorkerAgent agent(config);
    installStopSignalHandlers();
    agent.start();
    inform("etc_lab: worker '", agent.config().name, "' pulling from ",
           config.host, ":", config.port, " (cache ",
           agent.config().cacheDir, ")");
    agent.join();

    auto summary = agent.summary();
    inform("etc_lab: work summary: ", summary.leasesCompleted,
           " leases completed, ", summary.leasesFailed, " failed, ",
           summary.recordsPushed, " records pushed, ",
           summary.trialsExecuted, " trials executed");
    std::cerr << "ETC_WORK_JSON {"
              << "\"worker\":\"" << agent.config().name << "\","
              << "\"leases_completed\":" << summary.leasesCompleted
              << ","
              << "\"leases_failed\":" << summary.leasesFailed << ","
              << "\"records_pushed\":" << summary.recordsPushed << ","
              << "\"trials_executed\":" << summary.trialsExecuted
              << "}" << std::endl;
    return summary.leasesFailed ? 1 : 0;
}

int
labSubmit(const LabOptions &opts)
{
    if (opts.errors.size() > 1)
        fatal("submit takes a single --errors (one cell per "
              "submission)");
    if (opts.errors.empty() && !opts.bench.policies.empty())
        fatal("submit: --policy requires --errors (a single-cell "
              "submission names both)");
    if (opts.bench.policies.size() > 1)
        fatal("submit takes a single --policy (one cell per "
              "submission)");

    service::Client client(opts.host, opts.port);
    store::JsonObjectWriter body;
    body.field("experiment", opts.experiment);
    if (opts.bench.trials)
        body.field("trials", uint64_t{opts.bench.trials});
    if (!opts.errors.empty()) {
        body.field("errors", uint64_t{opts.errors.front()});
        body.field("policy", opts.bench.policies.empty()
                                 ? std::string(fault::PROTECTED_POLICY)
                                 : opts.bench.policies.front());
    }

    auto response = client.post("/v1/jobs", body.str());
    if (!response.ok()) {
        std::cerr << "etc_lab: submit failed: " << response.body
                  << '\n';
        return 1;
    }
    if (!opts.wait) {
        std::cout << response.body << std::endl;
        return 0;
    }

    std::string jobId =
        store::parseJson(response.body).at("job").asString();
    inform("etc_lab: submitted ", jobId, "; waiting for it to drain");
    // Exponential backoff with jitter instead of a fixed-rate poll:
    // short jobs still finish within ~100 ms of draining, long fleet
    // campaigns cost the daemon a request every couple of seconds,
    // and the jitter keeps N waiting submitters from phase-locking
    // into synchronized request bursts.
    uint64_t delayMs = 50;
    constexpr uint64_t MAX_DELAY_MS = 2000;
    std::minstd_rand jitterRng(
        static_cast<std::minstd_rand::result_type>(::getpid()));
    while (true) {
        auto status = client.get("/v1/jobs/" + jobId);
        if (!status.ok()) {
            std::cerr << "etc_lab: status poll failed: " << status.body
                      << '\n';
            return 1;
        }
        std::string state =
            store::parseJson(status.body).at("state").asString();
        if (state == "done" || state == "failed") {
            std::cout << status.body << std::endl;
            return state == "done" ? 0 : 1;
        }
        uint64_t jitter =
            delayMs >= 4 ? jitterRng() % (delayMs / 4) : 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delayMs + jitter));
        delayMs = std::min(delayMs * 2, MAX_DELAY_MS);
    }
}

int
labStats(const LabOptions &opts)
{
    service::Client client(opts.host, opts.port);
    auto response = client.get("/v1/metricz");
    if (!response.ok()) {
        std::cerr << "etc_lab: " << response.body << '\n';
        return 1;
    }

    // Render the scrape as a human table: one row per sample, with
    // each family's TYPE looked up from its exposition header
    // (histogram samples carry _bucket/_sum/_count suffixes and share
    // their family's header).
    std::map<std::string, std::string> types;
    auto typeOf = [&types](const std::string &family) -> std::string {
        if (auto it = types.find(family); it != types.end())
            return it->second;
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            size_t n = std::strlen(suffix);
            if (family.size() > n &&
                family.compare(family.size() - n, n, suffix) == 0) {
                auto base =
                    types.find(family.substr(0, family.size() - n));
                if (base != types.end())
                    return base->second;
            }
        }
        return "-";
    };

    Table table({"metric", "type", "value"});
    std::istringstream lines(response.body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        if (line.rfind("# TYPE ", 0) == 0) {
            std::istringstream header(line.substr(7));
            std::string family, type;
            header >> family >> type;
            types[family] = type;
            continue;
        }
        if (line[0] == '#')
            continue; // HELP and comments
        size_t space = line.rfind(' ');
        if (space == std::string::npos || space == 0)
            continue;
        std::string series = line.substr(0, space);
        std::string value = line.substr(space + 1);
        table.addRow({series, typeOf(series.substr(0, series.find('{'))),
                      value});
    }
    table.print(std::cout);
    return 0;
}

int
labStatus(const LabOptions &opts)
{
    service::Client client(opts.host, opts.port);
    auto response = client.get("/v1/jobs/" + opts.job);
    if (!response.ok()) {
        std::cerr << "etc_lab: " << response.body << '\n';
        return 1;
    }
    std::cout << response.body << std::endl;
    return 0;
}

int
labFetch(const LabOptions &opts)
{
    if (opts.figure.empty() == opts.cell.empty())
        fatal("fetch requires exactly one of --figure NAME or "
              "--cell KEY");
    service::Client client(opts.host, opts.port);
    if (!opts.figure.empty()) {
        std::string target = "/v1/figures/" + opts.figure;
        if (opts.bench.trials)
            target += "?trials=" + std::to_string(opts.bench.trials);
        auto response = client.get(target);
        if (!response.ok()) {
            std::cerr << "etc_lab: " << response.body << '\n';
            return 1;
        }
        // Raw bytes, no added newline: stdout must be byte-identical
        // to `etc_lab report` on the daemon's cache directory.
        std::cout << response.body << std::flush;
        return 0;
    }
    auto response = client.get("/v1/cells/" + opts.cell);
    if (!response.ok()) {
        std::cerr << "etc_lab: " << response.body << '\n';
        return 1;
    }
    std::cout << response.body << std::endl;
    return 0;
}

/** One flag: its value placeholder (nullptr for a switch), the parser
 *  that stores its value in LabOptions, and its help text. */
struct Flag
{
    const char *name;
    const char *value;
    void (*parse)(LabOptions &opts, const std::string &value);
    const char *help;
};

const Flag FLAGS[] = {
    {"--experiment", "NAME",
     [](LabOptions &o, const std::string &v) { o.experiment = v; },
     "a paper figure or table, or a smoke sweep (`etc_lab\n"
     "list` names them all)"},
    {"--cache-dir", "DIR",
     [](LabOptions &o, const std::string &v) {
         if (v.empty())
             fatal("--cache-dir expects a directory");
         o.bench.cacheDir = v;
     },
     "result-store root (run without it persists nothing)"},
    {"--trials", "N",
     [](LabOptions &o, const std::string &v) {
         o.bench.trials = parseCount32("--trials", v);
         if (o.bench.trials == 0)
             fatal("--trials must be >= 1 (omit the flag for the "
                   "default)");
     },
     "trials per cell (>= 1; default: each sweep's); query:\n"
     "keep only cells of this trial count"},
    {"--policy", "NAME",
     [](LabOptions &o, const std::string &v) {
         o.bench.policies.push_back(parsePolicyName(v).name);
     },
     "an injection policy (repeatable; `etc_lab policies`\n"
     "names them). run: sweep these instead of the sweep's\n"
     "own list (refused on a paper table); submit: the single\n"
     "cell's (needs --errors); query: filter; analyze: the\n"
     "policies to classify"},
    {"--threads", "N",
     [](LabOptions &o, const std::string &v) {
         o.bench.threads = parseCount32("--threads", v);
     },
     "worker threads (0 = all cores)"},
    {"--seed", "S",
     [](LabOptions &o, const std::string &v) {
         o.bench.seed = parseSeedValue("--seed", v);
         o.querySeed = o.bench.seed; // an explicit --seed filters query
     },
     "master study seed (decimal or 0x hex); query: filter\n"
     "to this seed"},
    {"--workload", "NAME",
     [](LabOptions &o, const std::string &v) {
         const auto &names = workloads::workloadNames();
         if (std::find(names.begin(), names.end(), v) == names.end()) {
             std::string list;
             for (const auto &name : names)
                 list += (list.empty() ? "" : ", ") + name;
             fatal("unknown workload '", v, "' (available: ", list, ")");
         }
         o.workload = v;
     },
     "a registry workload (lint: default all; query: filter)"},
    {"--chunks", "N",
     [](LabOptions &o, const std::string &v) {
         o.chunks = parseCount32("--chunks", v);
         if (o.chunks == 0)
             fatal("--chunks must be >= 1");
     },
     "stripes persisted as shard records per cell (default\n"
     "4). A cell's stripes run as one pass, each persisted\n"
     "as it ends, so a kill loses at most the stripes in\n"
     "flight"},
    {"--port", "N",
     [](LabOptions &o, const std::string &v) {
         o.port = static_cast<uint16_t>(parseCountValue("--port", v, 65535));
     },
     "daemon TCP port (default 8977; serve: 0 picks one).\n"
     "The daemon binds 127.0.0.1 only"},
    {"--host", "H", [](LabOptions &o, const std::string &v) { o.host = v; },
     "daemon host (default 127.0.0.1; a remote daemon is\n"
     "loopback-only, so reach it through a tunnel or port\n"
     "forward)"},
    {"--workers", "K",
     [](LabOptions &o, const std::string &v) {
         o.workers = parseCount32("--workers", v);
     },
     "local cell workers (default 2; 0 = coordinator-only,\n"
     "remote agents do all the simulating)"},
    {"--coordinator", "URL",
     [](LabOptions &o, const std::string &v) { o.coordinator = v; },
     "the coordinator daemon, http://HOST:PORT"},
    {"--name", "NAME",
     [](LabOptions &o, const std::string &v) { o.workerName = v; },
     "worker name on lease calls (default w<pid>)"},
    {"--lease-ttl-ms", "N",
     [](LabOptions &o, const std::string &v) {
         o.leaseTtlMs = parseCountValue(
             "--lease-ttl-ms", v, std::numeric_limits<uint64_t>::max());
         if (o.leaseTtlMs == 0)
             fatal("--lease-ttl-ms must be >= 1");
     },
     "lease heartbeat deadline before re-issue (default\n"
     "10000)"},
    {"--max-leases", "N",
     [](LabOptions &o, const std::string &v) {
         o.maxLeases = parseCountValue(
             "--max-leases", v, std::numeric_limits<uint64_t>::max());
     },
     "exit after N leases (default: run until SIGTERM)"},
    {"--poll-ms", "N",
     [](LabOptions &o, const std::string &v) {
         o.pollMs = parseCountValue("--poll-ms", v,
                                    std::numeric_limits<uint64_t>::max());
     },
     "idle poll interval when the coordinator has no work\n"
     "(default 500)"},
    {"--errors", "N",
     [](LabOptions &o, const std::string &v) {
         o.errors.push_back(parseCount32("--errors", v));
     },
     "submit: one cell at this error count instead of the\n"
     "whole sweep; query: filter (repeatable)"},
    {"--agg", "NAME", [](LabOptions &o, const std::string &v) { o.agg = v; },
     "the rollup: cells, coverage, curve, delta, cdf or avf\n"
     "(default cells)"},
    {"--base", "NAME",
     [](LabOptions &o, const std::string &v) {
         o.basePolicy = parsePolicyName(v).name;
     },
     "delta's baseline policy (default protected)"},
    {"--json", nullptr,
     [](LabOptions &o, const std::string &) { o.json = true; },
     "print the JSON envelope (byte-identical to GET\n"
     "/v1/query) instead of a table"},
    {"--quarantine", nullptr,
     [](LabOptions &o, const std::string &) { o.quarantine = true; },
     "move corrupt record files under index/quarantine/"},
    {"--wait", nullptr,
     [](LabOptions &o, const std::string &) { o.wait = true; },
     "poll until the job drains, then print its status"},
    {"--job", "ID", [](LabOptions &o, const std::string &v) { o.job = v; },
     "the job to query"},
    {"--figure", "NAME",
     [](LabOptions &o, const std::string &v) { o.figure = v; },
     "render this experiment's figure from the daemon's\n"
     "store"},
    {"--cell", "KEY", [](LabOptions &o, const std::string &v) { o.cell = v; },
     "the stored record of this cell fingerprint"},
    {"--trace-out", "FILE",
     [](LabOptions &o, const std::string &v) {
         if (v.empty())
             fatal("--trace-out expects a file path");
         o.traceOut = v;
     },
     "write Chrome Trace Event JSONL spans to FILE (view via\n"
     "`jq -s . FILE` in Perfetto; results are identical\n"
     "with tracing on or off)"},
    {"--verbose", nullptr,
     [](LabOptions &o, const std::string &) { o.verbose = true; },
     "one access-log line per HTTP request (method, path,\n"
     "status, bytes, latency)"},
};

/** One subcommand: its handler, every flag its code reads (it refuses
 *  the others), the flags it cannot run without, and its help text. */
struct Subcommand
{
    const char *name;
    int (*run)(const LabOptions &opts);
    std::vector<std::string_view> reads;
    std::vector<std::string_view> required;
    const char *help;

    bool
    readsFlag(std::string_view flag) const
    {
        return std::find(reads.begin(), reads.end(), flag) != reads.end();
    }
};

/** The flags `run` and `resume` read. */
const std::vector<std::string_view> RUN_FLAGS = {
    "--experiment", "--cache-dir", "--trials", "--policy",
    "--threads", "--seed", "--chunks", "--trace-out"};

const Subcommand SUBCOMMANDS[] = {
    {"run", labRun, RUN_FLAGS, {"--experiment"},
     "execute the sweeps: persist every cell to the cache, skip\n"
     "stored cells, resume partial ones, then render the figure\n"
     "or table. SIGINT/SIGTERM stops starting new stripes,\n"
     "finishes and persists the ones in flight, and exits with\n"
     "a summary (status 130)"},
    {"resume", labRun, RUN_FLAGS, {"--experiment", "--cache-dir"},
     "run, continuing a killed campaign from its stored shards"},
    {"report", labReport,
     {"--experiment", "--cache-dir", "--trials", "--policy", "--seed",
      "--trace-out"},
     {"--experiment", "--cache-dir"},
     "render the figure or table purely from stored records\n"
     "(no trials; fails on missing cells)"},
    {"list", labList,
     {"--cache-dir", "--trials", "--policy", "--seed", "--trace-out"},
     {},
     "print the registry: every paper figure and table, and the\n"
     "smoke sweeps (with --cache-dir, a 'cached' column reports\n"
     "archive coverage per entry from the secondary index)"},
    {"query", labQuery,
     {"--cache-dir", "--workload", "--policy", "--errors", "--seed",
      "--trials", "--agg", "--base", "--json", "--trace-out"},
     {"--cache-dir"},
     "roll up the archived cells of a cache directory without\n"
     "simulating anything: filter, then aggregate with --agg.\n"
     "Prints a table; --json prints the exact bytes GET\n"
     "/v1/query serves"},
    {"reindex", labReindex, {"--cache-dir", "--quarantine", "--trace-out"},
     {"--cache-dir"},
     "audit the store: decode every record file, reporting\n"
     "orphaned shard files and corrupt records (count and\n"
     "paths); nonzero exit when corruption was found"},
    {"policies", labPolicies, {}, {},
     "print the injection-policy registry (name, description,\n"
     "result kinds, bit model) -- the same rows GET /v1/policies\n"
     "serves"},
    {"analyze", labAnalyze, {"--workload", "--policy"}, {"--workload"},
     "print the static ACE/AVF vulnerability report of one\n"
     "workload -- the same bytes GET /v1/analysis/<workload>\n"
     "serves"},
    {"lint", labLint, {"--workload"}, {},
     "run the assembly lint (CFG well-formedness, unreachable\n"
     "code, uninitialized reads, stack discipline, injectable-\n"
     "bitmap consistency) over one workload or the whole\n"
     "registry; nonzero exit on findings"},
    {"serve", labServe,
     {"--cache-dir", "--port", "--workers", "--threads", "--chunks",
      "--seed", "--lease-ttl-ms", "--verbose", "--trace-out"},
     {"--cache-dir"},
     "run the HTTP campaign daemon: submitted jobs decompose\n"
     "into shard-range leases run by the local workers and/or\n"
     "remote `etc_lab work` agents; lapsed leases re-issue, and\n"
     "fleet results are bit-identical to single-host runs.\n"
     "SIGINT/SIGTERM finishes and persists the stripes in\n"
     "flight"},
    {"work", labWork,
     {"--coordinator", "--name", "--cache-dir", "--threads",
      "--max-leases", "--poll-ms", "--trace-out"},
     {"--coordinator"},
     "run a worker agent: pull its share of one cell's pending\n"
     "shard-range leases at a time from a coordinator daemon,\n"
     "run them as one pass through the same cache-aware engine,\n"
     "push each shard record back as it lands, heartbeat every\n"
     "held lease"},
    {"submit", labSubmit,
     {"--host", "--port", "--experiment", "--trials", "--errors",
      "--policy", "--wait"},
     {"--experiment"},
     "POST a job to a daemon (--errors and --policy for one\n"
     "cell, --wait to poll until it drains)"},
    {"status", labStatus, {"--host", "--port", "--job"}, {"--job"},
     "GET a job's status"},
    {"fetch", labFetch, {"--host", "--port", "--figure", "--cell", "--trials"},
     {},
     "GET a figure (--figure; bytes match `etc_lab report`) or\n"
     "a cell record (--cell): exactly one of the two"},
    {"stats", labStats, {"--host", "--port"}, {},
     "GET /v1/metricz from a daemon and render the scrape as a\n"
     "human table (metric, type, value)"},
};

/** Print "  @p left" padded to @p width, then @p text, each of its
 *  lines indented to the same column. */
void
printEntry(std::ostream &os, const std::string &left, size_t width,
           const std::string &text)
{
    os << "  " << left;
    if (left.size() + 1 > width)
        os << '\n' << std::string(width + 2, ' ');
    else
        os << std::string(width - left.size(), ' ');
    for (char c : text) {
        os << c;
        if (c == '\n')
            os << std::string(width + 2, ' ');
    }
    os << '\n';
}

[[noreturn]] void
usage(int status)
{
    std::ostream &os = std::cerr;
    os << "usage: etc_lab <subcommand> [options]\n"
          "\n"
          "subcommands (each refuses the options it does not read):\n";
    for (const Subcommand &command : SUBCOMMANDS) {
        std::string help = command.help;
        for (size_t i = 0; i < command.required.size(); ++i)
            help += (i ? ", " : "\nrequires ") +
                    std::string(command.required[i]);
        printEntry(os, command.name, 10, help);
    }
    os << "\noptions (--flag V or --flag=V):\n";
    for (const Flag &flag : FLAGS) {
        std::string help = flag.help;
        help += "\nread by:";
        for (const Subcommand &command : SUBCOMMANDS)
            if (command.readsFlag(flag.name))
                help += std::string(" ") + command.name;
        printEntry(os,
                   flag.value ? std::string(flag.name) + " " + flag.value
                              : flag.name,
                   19, help);
    }
    printEntry(os, "--help, -h", 19, "this message (anywhere)");
    os << "\nResults are bit-identical for every --threads value, every\n"
          "--chunks value, across kill/resume, and whether cells were\n"
          "computed by `run`, by a daemon or by its agents -- only\n"
          "wall-clock time changes.\n";
    std::exit(status);
}

const Flag *
findFlag(std::string_view name)
{
    for (const Flag &flag : FLAGS)
        if (name == flag.name)
            return &flag;
    return nullptr;
}

/**
 * Parse argv against the tables into @p opts: an unknown flag prints
 * usage and exits 2; a flag the subcommand does not read, a bad value
 * or a missing required flag throws FatalError.
 * @return the subcommand's row
 */
const Subcommand &
parseLabArgs(int argc, char **argv, LabOptions &opts)
{
    if (argc < 2)
        usage(2);
    std::string_view name = argv[1];
    if (name == "--help" || name == "-h")
        usage(0);
    const Subcommand *command = nullptr;
    for (const Subcommand &row : SUBCOMMANDS)
        if (name == row.name)
            command = &row;
    if (!command) {
        std::cerr << "etc_lab: unknown subcommand '" << name << "'\n";
        usage(2);
    }
    opts.command = command->name;

    std::set<std::string_view> given;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            usage(0);
        size_t eq = arg.find('=');
        const Flag *flag = findFlag(arg.substr(0, eq));
        if (!flag || (!flag->value && eq != std::string::npos)) {
            std::cerr << "etc_lab: unknown argument '" << arg << "'\n";
            usage(2);
        }
        if (!command->readsFlag(flag->name))
            fatal(flag->name, " does not apply to `", command->name, "`");
        std::string value;
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
        } else if (flag->value) {
            if (i + 1 >= argc)
                fatal(flag->name, " expects a value");
            value = argv[++i];
        }
        flag->parse(opts, value);
        given.insert(flag->name);
    }
    for (std::string_view required : command->required)
        if (!given.count(required))
            fatal(command->name, " requires ", required, " ",
                  findFlag(required)->value);
    return *command;
}

} // namespace

int
labMain(int argc, char **argv)
{
    try {
        LabOptions opts;
        const Subcommand &command = parseLabArgs(argc, argv, opts);
        // Tracing opens before the handler runs, so every span it
        // emits is captured; the tracer flushes on process exit.
        if (!opts.traceOut.empty())
            telemetry::Tracer::instance().open(opts.traceOut);
        return command.run(opts);
    } catch (const FatalError &error) {
        std::cerr << "etc_lab: " << error.what() << '\n';
        return 1;
    } catch (const store::JsonError &error) {
        std::cerr << "etc_lab: unexpected response: " << error.what()
                  << '\n';
        return 1;
    }
}

} // namespace etc::bench
