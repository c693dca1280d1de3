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

namespace etc::bench {

namespace {

struct LabOptions
{
    std::string command;    //!< run | resume | report | list
                            //!< | query | reindex | policies
                            //!< | analyze | lint | serve | submit
                            //!< | status | fetch | stats
    std::string experiment; //!< registry name (--experiment)
    std::string workload;   //!< analyze/lint: registry workload name
    unsigned chunks = 4;    //!< stripes persisted per cell during run
    BenchOptions bench;     //!< the shared campaign knobs (--policy
                            //!< lands in bench.policies)

    // Campaign-service knobs (serve + the remote subcommands).
    uint16_t port = 8977;            //!< --port (serve binds, others dial)
    std::string host = "127.0.0.1";  //!< --host for remote subcommands
    unsigned workers = 2;            //!< serve: local cell workers
                                     //!< (0 = coordinator-only)

    // Fleet knobs (serve + work).
    std::string coordinator;         //!< work: http://HOST:PORT
    std::string workerName;          //!< work: --name (default w<pid>)
    uint64_t leaseTtlMs = 10000;     //!< serve: --lease-ttl-ms
    uint64_t maxLeases = 0;          //!< work: stop after N leases
    uint64_t pollMs = 500;           //!< work: idle poll interval
    std::optional<unsigned> errors;  //!< submit: single-cell error count
    bool wait = false;               //!< submit: poll until the job drains
    std::string job;                 //!< status: job id
    std::string figure;              //!< fetch: figure name
    std::string cell;                //!< fetch: cell fingerprint
    bool verbose = false;            //!< serve: per-request access log

    // Archive-query knobs (query + reindex).
    std::vector<unsigned> errorsList;  //!< query: every --errors value
    std::optional<uint64_t> querySeed; //!< query: --seed filter, only
                                       //!< when explicitly given
    std::string agg = "cells";         //!< query: aggregation name
    std::string basePolicy = "protected"; //!< query: delta baseline
    bool json = false;                 //!< query: print the envelope
    bool quarantine = false;           //!< reindex: move corrupt aside
};

[[noreturn]] void
usage(int status)
{
    std::cerr
        << "usage: etc_lab <subcommand> [options]\n"
           "\n"
           "local subcommands:\n"
           "  run     execute the sweeps; persist every cell to the\n"
           "          cache, skip stored cells, resume partial ones,\n"
           "          then render the figure or table. SIGINT/SIGTERM\n"
           "          stops starting new stripes, finishes and persists\n"
           "          the ones in flight, and exits with a summary\n"
           "          (status 130)\n"
           "  resume  same as run (requires --cache-dir); continues a\n"
           "          killed campaign from its stored shards\n"
           "  report  render the figure or table purely from stored\n"
           "          records (no trials; fails on missing cells)\n"
           "  list    print the registry: every paper figure and\n"
           "          table, and the smoke sweeps (with --cache-dir, a\n"
           "          'cached' column reports archive coverage per\n"
           "          entry from the secondary index)\n"
           "  query   roll up the archived cells of a cache directory\n"
           "          (--cache-dir) without simulating anything:\n"
           "          filter by --workload/--policy/--errors/--seed/\n"
           "          --trials, aggregate with --agg (cells, coverage,\n"
           "          curve, delta, cdf, avf; --base names delta's\n"
           "          baseline policy). Prints a table; --json prints\n"
           "          the exact bytes GET /v1/query serves\n"
           "  reindex rebuild the secondary index from a full store\n"
           "          scan, reporting orphaned shard files and corrupt\n"
           "          records (count + paths; --quarantine moves\n"
           "          corrupt files under index/quarantine/); nonzero\n"
           "          exit when corruption was found\n"
           "  policies\n"
           "          print the injection-policy registry (name,\n"
           "          description, result kinds, bit model) -- the\n"
           "          same rows GET /v1/policies serves\n"
           "  analyze print the static ACE/AVF vulnerability report of\n"
           "          one workload (--workload; --policy to pick the\n"
           "          classified policies) -- the same bytes\n"
           "          GET /v1/analysis/<workload> serves\n"
           "  lint    run the assembly lint (CFG well-formedness,\n"
           "          unreachable code, uninitialized reads, stack\n"
           "          discipline, injectable-bitmap consistency) over\n"
           "          one workload (--workload) or the whole registry;\n"
           "          nonzero exit on findings\n"
           "\n"
           "campaign-service subcommands:\n"
           "  serve   run the HTTP campaign daemon: submitted jobs\n"
           "          decompose into shard-range leases executed by\n"
           "          the local worker pool and/or remote `etc_lab\n"
           "          work` agents (--workers 0 = coordinator-only:\n"
           "          all simulation happens on workers); lapsed\n"
           "          leases re-issue automatically and fleet results\n"
           "          are bit-identical to single-host runs;\n"
           "          SIGINT/SIGTERM finishes and persists the\n"
           "          stripes in flight and exits cleanly\n"
           "  work    run a worker agent: pull its share of one\n"
           "          cell's pending shard-range leases at a time from\n"
           "          a coordinator daemon (--coordinator\n"
           "          http://HOST:PORT), run them as one pass through\n"
           "          the same cache-aware engine, push each canonical\n"
           "          shard record back as it lands, heartbeat every\n"
           "          held lease\n"
           "  submit  POST a job to a daemon (--experiment, optional\n"
           "          --errors/--policy for one cell, --wait to poll\n"
           "          until it drains)\n"
           "  status  GET a job's status (--job ID)\n"
           "  fetch   GET a figure (--figure NAME; bytes match\n"
           "          `etc_lab report`) or a cell record (--cell KEY)\n"
           "  stats   GET /v1/metricz from a daemon and render the\n"
           "          scrape as a human table (metric, type, value)\n"
           "\n"
           "options:\n"
           "  --experiment NAME        one of: "
        << experimentNames()
        << "\n"
           "  --cache-dir DIR          result-store root (required for\n"
           "                           resume/report/serve; run\n"
           "                           without it persists nothing)\n"
           "  --trials N               trials per cell (>= 1; default:\n"
           "                           each sweep's)\n"
           "  --policy NAME            run/resume/report: sweep\n"
           "                           this injection policy instead\n"
           "                           of the sweep's own list\n"
           "                           (repeatable; refused on a\n"
           "                           paper table). submit: the\n"
           "                           single cell's policy (needs\n"
           "                           --errors). See `etc_lab\n"
           "                           policies` for the registry\n"
           "  --threads N              worker threads (0 = all cores)\n"
           "  --seed S                 master study seed (decimal or 0x"
           " hex)\n"
           "  --checkpoint-interval N  golden-run checkpoint spacing\n"
           "  --static-prune           synthesize provably-masked\n"
           "                           trials instead of simulating\n"
           "                           them (results are identical\n"
           "                           either way)\n"
           "  --gang-width N|auto      most trial lanes per lockstep\n"
           "                           gang on the checkpointed fast\n"
           "                           path (0 = scalar, auto = runner\n"
           "                           default; a stripe's trials are\n"
           "                           dealt into near-equal gangs, one\n"
           "                           per thread, up to this width;\n"
           "                           results are identical either\n"
           "                           way). serve: the width every\n"
           "                           job runs at\n"
           "  --workload NAME          analyze/lint: the registry\n"
           "                           workload to analyze (lint\n"
           "                           defaults to all)\n"
           "  --chunks N               stripes persisted as shard\n"
           "                           records per cell while running\n"
           "                           (default 4). A cell's stripes\n"
           "                           run as one pass, each persisted\n"
           "                           as it ends, so a kill loses at\n"
           "                           most the stripes in flight\n"
           "  --port N                 daemon TCP port (default 8977;\n"
           "                           serve: 0 picks one). The daemon\n"
           "                           binds 127.0.0.1 only\n"
           "  --host H                 daemon host for submit/status/\n"
           "                           fetch (default 127.0.0.1; a\n"
           "                           remote daemon is loopback-only,\n"
           "                           so reach it through a tunnel or\n"
           "                           port forward)\n"
           "  --workers K              serve: local cell workers\n"
           "                           (default 2; 0 = coordinator-\n"
           "                           only, remote agents do all the\n"
           "                           simulating)\n"
           "  --coordinator URL        work: the coordinator daemon,\n"
           "                           http://HOST:PORT (required)\n"
           "  --name NAME              work: worker name on lease\n"
           "                           calls (default w<pid>)\n"
           "  --lease-ttl-ms N         serve: lease heartbeat deadline\n"
           "                           before re-issue (default 10000)\n"
           "  --max-leases N           work: exit after N leases\n"
           "                           (default: run until SIGTERM)\n"
           "  --poll-ms N              work: idle poll interval when\n"
           "                           the coordinator has no work\n"
           "                           (default 500)\n"
           "  --errors N               submit: one cell at this error\n"
           "                           count instead of the whole sweep.\n"
           "                           query: filter to this error\n"
           "                           count (repeatable)\n"
           "  --agg NAME               query: the rollup to compute\n"
           "                           (cells, coverage, curve, delta,\n"
           "                           cdf, avf; default cells)\n"
           "  --base NAME              query: delta's baseline policy\n"
           "                           (default protected)\n"
           "  --json                   query: print the JSON envelope\n"
           "                           (byte-identical to GET\n"
           "                           /v1/query) instead of a table\n"
           "  --quarantine             reindex: move corrupt record\n"
           "                           files under index/quarantine/\n"
           "  --wait                   submit: poll until the job\n"
           "                           drains, then print its status\n"
           "  --job ID                 status: the job to query\n"
           "  --figure NAME            fetch: render this experiment's\n"
           "                           figure from the daemon's store\n"
           "  --cell KEY               fetch: stored record of this\n"
           "                           cell fingerprint\n"
           "  --trace-out FILE         run/serve: write Chrome Trace\n"
           "                           Event JSONL spans to FILE (view\n"
           "                           via `jq -s . FILE` in Perfetto;\n"
           "                           results are identical with\n"
           "                           tracing on or off)\n"
           "  --verbose                serve: one access-log line per\n"
           "                           HTTP request (method, path,\n"
           "                           status, bytes, latency)\n"
           "  --help                   this message\n"
           "\n"
           "Results are bit-identical for every --threads value, every\n"
           "--chunks value, across kill/resume, and whether cells were\n"
           "computed by `run`, by a daemon or by its agents -- only\n"
           "wall-clock time changes.\n";
    std::exit(status);
}

LabOptions
parseLabArgs(int argc, char **argv)
{
    if (argc < 2)
        usage(2);
    LabOptions opts;
    opts.command = argv[1];
    if (opts.command == "--help" || opts.command == "-h")
        usage(0);
    const std::vector<std::string> commands = {
        "run",     "resume", "report",  "list",   "query",
        "reindex", "policies", "analyze", "lint", "serve",  "work",
        "submit",  "status", "fetch",  "stats"};
    if (std::find(commands.begin(), commands.end(), opts.command) ==
        commands.end()) {
        std::cerr << "etc_lab: unknown subcommand '" << opts.command
                  << "'\n";
        usage(2);
    }

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto valueOf = [&](const std::string &flag) {
            return flagValue(argc, argv, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (parseCampaignFlag(argc, argv, i, opts.bench)) {
            // An explicit --seed also filters `query`.
            if (arg.rfind("--seed", 0) == 0)
                opts.querySeed = opts.bench.seed;
        } else if (auto name = valueOf("--experiment")) {
            opts.experiment = *name;
        } else if (auto workload = valueOf("--workload")) {
            opts.workload = *workload;
        } else if (auto chunks = valueOf("--chunks")) {
            opts.chunks = parseCount32("--chunks", *chunks);
            if (opts.chunks == 0)
                fatal("--chunks must be >= 1");
        } else if (auto port = valueOf("--port")) {
            opts.port = static_cast<uint16_t>(
                parseCountValue("--port", *port, 65535));
        } else if (auto host = valueOf("--host")) {
            opts.host = *host;
        } else if (auto workers = valueOf("--workers")) {
            // An agent runs one pass at a time, spread over --threads.
            if (opts.command != "serve")
                fatal("--workers only applies to `serve`");
            opts.workers = parseCount32("--workers", *workers);
        } else if (auto coordinator = valueOf("--coordinator")) {
            opts.coordinator = *coordinator;
        } else if (auto name = valueOf("--name")) {
            opts.workerName = *name;
        } else if (auto ttl = valueOf("--lease-ttl-ms")) {
            opts.leaseTtlMs = parseCountValue(
                "--lease-ttl-ms", *ttl,
                std::numeric_limits<uint64_t>::max());
            if (opts.leaseTtlMs == 0)
                fatal("--lease-ttl-ms must be >= 1");
        } else if (auto leases = valueOf("--max-leases")) {
            opts.maxLeases = parseCountValue(
                "--max-leases", *leases,
                std::numeric_limits<uint64_t>::max());
        } else if (auto poll = valueOf("--poll-ms")) {
            opts.pollMs = parseCountValue(
                "--poll-ms", *poll,
                std::numeric_limits<uint64_t>::max());
        } else if (auto errors = valueOf("--errors")) {
            opts.errors = parseCount32("--errors", *errors);
            opts.errorsList.push_back(*opts.errors);
        } else if (auto agg = valueOf("--agg")) {
            opts.agg = *agg;
        } else if (auto base = valueOf("--base")) {
            opts.basePolicy = parsePolicyName(*base).name;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--quarantine") {
            opts.quarantine = true;
        } else if (arg == "--wait") {
            opts.wait = true;
        } else if (auto job = valueOf("--job")) {
            opts.job = *job;
        } else if (auto figure = valueOf("--figure")) {
            opts.figure = *figure;
        } else if (auto cell = valueOf("--cell")) {
            opts.cell = *cell;
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else {
            std::cerr << "etc_lab: unknown argument '" << arg << "'\n";
            usage(2);
        }
    }

    bool local = opts.command == "run" || opts.command == "resume" ||
                 opts.command == "report";
    bool cached = !opts.bench.cacheDir.empty();
    if (local && opts.experiment.empty())
        fatal("--experiment is required (one of: ", experimentNames(),
              ")");
    if (local && opts.command != "run" && !cached)
        fatal(opts.command, " requires --cache-dir");
    if (!opts.workload.empty()) {
        auto names = workloads::workloadNames();
        if (std::find(names.begin(), names.end(), opts.workload) ==
            names.end())
            fatal("unknown workload '", opts.workload,
                  "' (available: ", [&names] {
                      std::string list;
                      for (const auto &name : names) {
                          if (!list.empty())
                              list += ", ";
                          list += name;
                      }
                      return list;
                  }(), ")");
    }
    if (opts.command == "analyze" && opts.workload.empty())
        fatal("analyze requires --workload NAME");
    if ((opts.command == "query" || opts.command == "reindex") &&
        !cached)
        fatal(opts.command, " requires --cache-dir (it reads the "
              "archive, never simulates)");
    if (opts.command == "submit" && opts.errorsList.size() > 1)
        fatal("submit takes a single --errors (one cell per "
              "submission)");
    if (opts.command == "serve" && !cached)
        fatal("serve requires --cache-dir (jobs persist to and resume "
              "from the result store)");
    if (opts.command == "work" && opts.coordinator.empty())
        fatal("work requires --coordinator http://HOST:PORT");
    if (opts.command != "work" && !opts.coordinator.empty())
        fatal("--coordinator only applies to `work`");
    if (opts.command == "submit" && opts.experiment.empty())
        fatal("submit requires --experiment");
    if (opts.command == "submit" && !opts.errors &&
        !opts.bench.policies.empty())
        fatal("submit: --policy requires --errors (a single-cell "
              "submission names both)");
    if (opts.command == "submit" && opts.bench.policies.size() > 1)
        fatal("submit takes a single --policy (one cell per "
              "submission)");
    if (opts.command == "status" && opts.job.empty())
        fatal("status requires --job ID");
    if (opts.command == "fetch" &&
        opts.figure.empty() == opts.cell.empty())
        fatal("fetch requires exactly one of --figure NAME or "
              "--cell KEY");
    // Tracing opens at parse time, so every subcommand's spans are
    // captured.
    finishCampaignFlags(opts.bench);
    return opts;
}

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

int
labRun(const LabOptions &opts, const Artifact &artifact)
{
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
labReport(const LabOptions &opts, const Artifact &artifact)
{
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
labPolicies()
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
        for (const auto &[fingerprint, entry] : index->entries()) {
            (void)fingerprint;
            if (entry.complete)
                indexedWorkloads.insert(entry.key.workload);
        }
    }

    Table table({"name", "figure", "workload", "cells", "cached",
                 "trials", "error counts"});
    for (const auto &artifact : artifacts()) {
        std::string coverage = "-";
        if (index) {
            size_t hits = 0, total = 0;
            for (const Experiment *sweep : artifact.sweeps) {
                total += experimentCells(*sweep,
                                         sweepPolicies(*sweep, opts.bench))
                             .size();
                if (indexedWorkloads.count(sweep->workload))
                    for (const auto &key :
                         experimentCellKeys(*sweep, opts.bench))
                        if (index->hasCell(key.fingerprint()))
                            ++hits;
            }
            coverage = std::to_string(hits) + "/" + std::to_string(total);
        }
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
                      std::to_string(artifact.cells()), coverage, trials,
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
    options.filter.errors = opts.errorsList;
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
    auto report = index.rebuild(opts.quarantine);
    std::cout << "cells indexed: " << report.cells << '\n'
              << "shard sets indexed: " << report.shardSets << '\n'
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
              << "\"shard_sets\":" << report.shardSets << ","
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
    config.checkpointInterval = opts.bench.checkpointInterval;
    config.gangWidth = opts.bench.gangWidth;
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
    service::Client client(opts.host, opts.port);
    store::JsonObjectWriter body;
    body.field("experiment", opts.experiment);
    if (opts.bench.trials)
        body.field("trials", uint64_t{opts.bench.trials});
    if (opts.errors) {
        body.field("errors", uint64_t{*opts.errors});
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

} // namespace

int
labMain(int argc, char **argv)
{
    try {
        LabOptions opts = parseLabArgs(argc, argv);
        if (opts.command == "list")
            return labList(opts);
        if (opts.command == "query")
            return labQuery(opts);
        if (opts.command == "reindex")
            return labReindex(opts);
        if (opts.command == "policies")
            return labPolicies();
        if (opts.command == "analyze")
            return labAnalyze(opts);
        if (opts.command == "lint")
            return labLint(opts);
        if (opts.command == "serve")
            return labServe(opts);
        if (opts.command == "work")
            return labWork(opts);
        if (opts.command == "submit")
            return labSubmit(opts);
        if (opts.command == "status")
            return labStatus(opts);
        if (opts.command == "fetch")
            return labFetch(opts);
        if (opts.command == "stats")
            return labStats(opts);
        auto artifact = findArtifact(opts.experiment);
        if (!artifact)
            fatal("unknown experiment '", opts.experiment,
                  "' (available: ", experimentNames(), ")");
        if (opts.command == "report")
            return labReport(opts, *artifact);
        return labRun(opts, *artifact);
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
