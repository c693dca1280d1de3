/**
 * @file
 * etc_probe: the benchmark's in-process layer probe.
 *
 * Every subcommand times calls into the library's public functions
 * from here, so the per-layer numbers need no span, counter or option
 * inside the program. Each prints one JSON object on stdout; times are
 * host seconds (steady_clock), counters are deltas of the program's
 * own metrics registry over the measured calls.
 *
 *   setup  --experiment E... --seed S
 *          workload assembly, protection analysis and golden run +
 *          checkpoint capture (CampaignRunner construction), plus a
 *          single-thread Simulator::run of each golden program
 *   sweep  --experiment E[:TRIALS]... --seed S --cache-dir D
 *          --chunks C --threads T
 *          a cold sweep through the calls `etc_lab run` makes per
 *          chunk (runRange, scoreFidelity, storeShard) and per cell
 *          (loadShards, mergeShardSummaries, storeCell, dropShards),
 *          each timed on its own
 *   read   --experiment E[:TRIALS]... --seed S --cache-dir D
 *          the archive read side: index load, record loads, one
 *          runQuery per aggregation, figure load + render
 *   cell   --experiment E --errors N --policy P --trials T --seed S
 *          --cache-dir D --gang-width W --checkpoint-interval I
 *          one cell through ErrorToleranceStudy::runCell (the
 *          correctness oracle runs it scalar without checkpoints)
 *   serve  --cache-dir D --seed S --chunks C --threads T
 *          the campaign daemon in-process behind a handler that times
 *          CampaignService::handle per endpoint; coordinator-only, so
 *          `etc_lab work` agents run its leases; prints the bound
 *          port, serves GET /probe/stats, stops on SIGTERM
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/experiments.hh"
#include "core/query.hh"
#include "core/study.hh"
#include "fault/campaign.hh"
#include "fault/policy.hh"
#include "service/http_server.hh"
#include "service/scheduler.hh"
#include "service/service.hh"
#include "sim/simulator.hh"
#include "store/index.hh"
#include "store/json.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "telemetry/metrics.hh"

namespace {

using namespace etc;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Run @p fn and add its duration to @p total; returns fn's result. */
template <typename Fn>
auto
timed(double &total, Fn &&fn)
{
    auto start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        total += secondsSince(start);
    } else {
        auto result = fn();
        total += secondsSince(start);
        return result;
    }
}

struct Args
{
    std::string command;
    std::vector<std::pair<std::string, unsigned>> experiments; //!< name,
                                                               //!< trials
    uint64_t seed = core::StudyConfig{}.seed;
    std::string cacheDir;
    unsigned chunks = 4;
    unsigned threads = 0;
    unsigned errors = 0;
    std::string policy = fault::PROTECTED_POLICY;
    unsigned trials = 0;
    unsigned gangWidth = fault::GANG_WIDTH_AUTO;
    uint64_t checkpointInterval =
        fault::CampaignRunner::DEFAULT_CHECKPOINT_INTERVAL;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: etc_probe setup|sweep|read|cell|serve [options]");
    Args args;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal(flag, " expects a value");
        std::string value = argv[++i];
        auto count = [&] {
            return static_cast<unsigned>(bench::parseCount32(flag, value));
        };
        if (flag == "--experiment") {
            size_t colon = value.find(':');
            unsigned trials =
                colon == std::string::npos
                    ? 0
                    : bench::parseCount32(flag, value.substr(colon + 1));
            args.experiments.emplace_back(value.substr(0, colon), trials);
        } else if (flag == "--seed") {
            args.seed = bench::parseSeedValue(flag, value);
        } else if (flag == "--cache-dir") {
            args.cacheDir = value;
        } else if (flag == "--chunks") {
            args.chunks = std::max(1u, count());
        } else if (flag == "--threads") {
            args.threads = count();
        } else if (flag == "--errors") {
            args.errors = count();
        } else if (flag == "--policy") {
            args.policy = value;
        } else if (flag == "--trials") {
            args.trials = count();
        } else if (flag == "--gang-width") {
            args.gangWidth = bench::parseGangWidthValue(flag, value);
        } else if (flag == "--checkpoint-interval") {
            args.checkpointInterval =
                bench::parseCountValue(flag, value, UINT64_MAX);
        } else {
            fatal("unknown argument '", flag, "'");
        }
    }
    return args;
}

const bench::Experiment &
experimentNamed(const std::string &name)
{
    const bench::Experiment *exp = bench::findExperiment(name);
    if (!exp)
        fatal("unknown experiment '", name, "'");
    return *exp;
}

bench::BenchOptions
benchOptions(const Args &args, unsigned trials)
{
    bench::BenchOptions opts;
    opts.seed = args.seed;
    opts.threads = args.threads;
    opts.trials = trials;
    opts.cacheDir = args.cacheDir;
    opts.gangWidth = args.gangWidth;
    opts.checkpointInterval = args.checkpointInterval;
    return opts;
}

/** Value of an unlabeled series in a Prometheus scrape (0 if absent). */
double
scrapeValue(const std::string &scrape, const std::string &name)
{
    std::istringstream lines(scrape);
    std::string line;
    while (std::getline(lines, line))
        if (line.size() > name.size() && line[name.size()] == ' ' &&
            line.compare(0, name.size(), name) == 0)
            return std::stod(line.substr(name.size() + 1));
    return 0.0;
}

/** Deltas of the program's own counters across a measured region. */
class CounterDelta
{
  public:
    static inline const std::vector<std::pair<const char *, const char *>>
        COUNTERS = {
            {"restores", "etc_checkpoint_restores_total"},
            {"pages_applied", "etc_checkpoint_pages_applied_total"},
            {"pages_reverted", "etc_checkpoint_pages_reverted_total"},
            {"trials", "etc_trials_simulated_total"},
            {"trial_instructions", "etc_trial_instructions_total"},
            {"gang_batches", "etc_gang_batches_total"},
            {"gang_lane_slots", "etc_gang_lane_slots_total"},
            {"gang_lanes", "etc_gang_lanes_total"},
            {"gang_evictions", "etc_gang_lane_evictions_total"},
            {"bytes_written", "etc_store_bytes_written_total"},
            {"bytes_read", "etc_store_bytes_read_total"},
            {"journal_appends", "etc_index_journal_appends_total"},
            {"leases_issued", "etc_lease_issued_total"},
            {"leases_reissued", "etc_lease_reissued_total"},
            {"leases_expired", "etc_lease_expired_total"},
            {"heartbeats", "etc_worker_heartbeats_total"},
        };

    CounterDelta() : before_(telemetry::renderPrometheus()) {}

    /** `"name":delta` pairs, comma-separated. */
    std::string
    json() const
    {
        std::string after = telemetry::renderPrometheus();
        std::ostringstream out;
        out << std::setprecision(17);
        for (size_t i = 0; i < COUNTERS.size(); ++i)
            out << (i ? "," : "") << '"' << COUNTERS[i].first << "\":"
                << scrapeValue(after, COUNTERS[i].second) -
                       scrapeValue(before_, COUNTERS[i].second);
        return out.str();
    }

  private:
    std::string before_;
};

/** Streams `"key":value` members with full double precision. */
class JsonOut
{
  public:
    JsonOut() { out_ << std::setprecision(17) << '{'; }

    JsonOut &
    num(const std::string &key, double value)
    {
        sep() << '"' << key << "\":" << value;
        return *this;
    }

    JsonOut &
    raw(const std::string &body)
    {
        if (!body.empty())
            sep() << body;
        return *this;
    }

    std::string str() const { return out_.str() + "}"; }

  private:
    std::ostream &
    sep()
    {
        if (!first_)
            out_ << ',';
        first_ = false;
        return out_;
    }

    std::ostringstream out_;
    bool first_ = true;
};

std::unique_ptr<fault::CampaignRunner>
makeRunner(const workloads::Workload &workload,
           const analysis::ProtectionResult &protection,
           const core::StudyConfig &config,
           const fault::InjectionPolicy &policy)
{
    return std::make_unique<fault::CampaignRunner>(
        workload.program(),
        policy.injectableBitmap(workload.program(), protection.tagged),
        config.memoryModel, config.checkpointInterval, policy.resultKinds,
        policy.bitModel, config.staticPrune);
}

int
cmdSetup(const Args &args)
{
    double assemble = 0, protect = 0, golden = 0, interp = 0;
    uint64_t checkpoints = 0, interpInstructions = 0;
    for (const auto &[name, trials] : args.experiments) {
        (void)trials;
        const auto &exp = experimentNamed(name);
        auto config = bench::makeStudyConfig(exp, benchOptions(args, 0));
        auto workload = timed(assemble, [&] {
            return workloads::createWorkload(exp.workload, exp.scale);
        });
        auto protection = timed(protect, [&] {
            return core::computeStudyProtection(*workload, config);
        });
        auto runner = timed(golden, [&] {
            return makeRunner(*workload, protection, config,
                              fault::resolveInjectionPolicy(
                                  fault::PROTECTED_POLICY));
        });
        checkpoints += runner->checkpointCount();
        // Single-thread interpreter speed on the golden program.
        sim::Simulator simulator(workload->program(), config.memoryModel);
        auto result = timed(interp, [&] { return simulator.run(); });
        interpInstructions += result.instructions;
    }
    std::cout << JsonOut()
                     .num("assemble_s", assemble)
                     .num("protect_s", protect)
                     .num("golden_s", golden)
                     .num("checkpoints", static_cast<double>(checkpoints))
                     .num("interp_s", interp)
                     .num("interp_instructions",
                          static_cast<double>(interpInstructions))
                     .str()
              << std::endl;
    return 0;
}

int
cmdSweep(const Args &args)
{
    CounterDelta counters;
    double protect = 0, golden = 0, run = 0, score = 0, shardWrite = 0,
           chunk = 0, load = 0, merge = 0, cellWrite = 0, assemble = 0;
    uint64_t cells = 0, chunks = 0;
    auto sweepStart = Clock::now();
    for (const auto &[name, trialsArg] : args.experiments) {
        const auto &exp = experimentNamed(name);
        unsigned trials = trialsArg ? trialsArg : exp.defaultTrials;
        auto config = bench::makeStudyConfig(exp, benchOptions(args, trials));
        auto workload = workloads::createWorkload(exp.workload, exp.scale);
        auto protection = timed(protect, [&] {
            return core::computeStudyProtection(*workload, config);
        });
        store::ResultStore cache(args.cacheDir);
        std::map<std::string, std::unique_ptr<fault::CampaignRunner>>
            runners;

        for (const auto &[errors, policyName] :
             bench::experimentCells(exp)) {
            const auto &policy = fault::resolveInjectionPolicy(policyName);
            auto &runner = runners[policyName];
            if (!runner)
                runner = timed(golden, [&] {
                    return makeRunner(*workload, protection, config,
                                      policy);
                });
            auto key = core::makeCellKey(*workload, protection, config,
                                         errors, policy, trials);

            // The chunk step of ErrorToleranceStudy::runCellShard.
            fault::CampaignConfig campaign;
            campaign.trials = trials;
            campaign.errors = errors;
            campaign.budgetFactor = config.budgetFactor;
            campaign.threads = config.threads;
            campaign.gangWidth = config.gangWidth;
            campaign.seed = config.seed ^ (uint64_t{errors} << 32) ^
                            policy.seedSalt();
            for (unsigned c = 0; c < args.chunks; ++c) {
                auto chunkStart = Clock::now();
                auto [lo, hi] = core::ErrorToleranceStudy::shardRange(
                    trials, c, args.chunks);
                double runSeconds = 0;
                auto result = timed(runSeconds, [&] {
                    return runner->runRange(campaign, lo, hi);
                });
                run += runSeconds;
                core::CellSummary summary;
                summary.errors = errors;
                summary.policy = policy.name;
                summary.trials = result.trials;
                summary.completed = result.completed;
                summary.crashed = result.crashed;
                summary.timedOut = result.timedOut;
                summary.trialsPruned = result.trialsPruned;
                summary.wallSeconds = runSeconds;
                timed(score, [&] {
                    for (const auto &outcome : result.outcomes) {
                        summary.totalInstructions +=
                            outcome.run.instructions;
                        if (outcome.run.completed())
                            summary.fidelities.push_back(
                                workload->scoreFidelity(
                                    runner->goldenOutput(),
                                    outcome.output));
                    }
                });
                timed(shardWrite,
                      [&] { cache.storeShard(key, lo, hi, summary); });
                chunk += secondsSince(chunkStart);
                ++chunks;
            }

            // The assembly step of ErrorToleranceStudy::runCell.
            auto assembleStart = Clock::now();
            auto shards = timed(load, [&] { return cache.loadShards(key); });
            auto merged = timed(merge, [&] {
                return store::mergeShardSummaries(key, std::move(shards));
            });
            timed(cellWrite, [&] {
                cache.storeCell(key, merged);
                cache.dropShards(key);
            });
            assemble += secondsSince(assembleStart);
            ++cells;
        }
    }
    std::cout << JsonOut()
                     .num("wall_s", secondsSince(sweepStart))
                     .num("cells", static_cast<double>(cells))
                     .num("chunks", static_cast<double>(chunks))
                     .num("protect_s", protect)
                     .num("golden_s", golden)
                     .num("run_s", run)
                     .num("score_s", score)
                     .num("shard_write_s", shardWrite)
                     .num("chunk_s", chunk)
                     .num("shard_load_s", load)
                     .num("merge_s", merge)
                     .num("cell_write_s", cellWrite)
                     .num("assemble_s", assemble)
                     .raw(counters.json())
                     .str()
              << std::endl;
    return 0;
}

int
cmdRead(const Args &args)
{
    CounterDelta counters;
    double indexLoad = 0, storeLoad = 0, render = 0;
    timed(indexLoad, [&] {
        store::StoreIndex index(args.cacheDir);
        index.load();
    });

    store::ResultStore cache(args.cacheDir);
    std::string workload;
    uint64_t loaded = 0;
    for (const auto &[name, trials] : args.experiments) {
        const auto &exp = experimentNamed(name);
        auto opts = benchOptions(args, trials);
        if (workload.empty())
            workload = exp.workload;
        for (const auto &key : bench::experimentCellKeys(exp, opts))
            timed(storeLoad, [&] {
                if (cache.loadCell(key))
                    ++loaded;
            });
        timed(render, [&] {
            auto sweep = bench::loadExperimentFromStore(exp, opts, cache);
            if (!sweep.complete())
                fatal("figure ", name, " has missing cells");
            std::ostringstream figure;
            bench::renderExperiment(figure, exp,
                                    bench::sweepPolicies(exp, opts),
                                    sweep.points);
        });
    }

    JsonOut out;
    uint64_t recordsLoaded = 0;
    for (auto agg : {core::QueryAgg::Cells, core::QueryAgg::Coverage,
                     core::QueryAgg::Curve, core::QueryAgg::Delta,
                     core::QueryAgg::Cdf, core::QueryAgg::Avf}) {
        core::QueryOptions options;
        options.agg = agg;
        options.filter.workload = workload;
        double seconds = 0;
        auto report = timed(seconds, [&] {
            return core::runQuery(args.cacheDir, options);
        });
        recordsLoaded += report.recordsLoaded;
        out.num(std::string("query_") + core::queryAggName(agg) + "_s",
                seconds);
    }
    std::cout << out.num("index_load_s", indexLoad)
                     .num("store_load_s", storeLoad)
                     .num("cells_loaded", static_cast<double>(loaded))
                     .num("render_s", render)
                     .num("records_loaded",
                          static_cast<double>(recordsLoaded))
                     .raw(counters.json())
                     .str()
              << std::endl;
    return 0;
}

int
cmdCell(const Args &args)
{
    if (args.experiments.size() != 1)
        fatal("cell takes exactly one --experiment");
    const auto &exp = experimentNamed(args.experiments.front().first);
    auto workload = workloads::createWorkload(exp.workload, exp.scale);
    auto config =
        bench::makeStudyConfig(exp, benchOptions(args, args.trials));
    core::ErrorToleranceStudy study(*workload, config);
    double seconds = 0;
    auto key = study.cellKey(args.errors, args.policy, args.trials);
    timed(seconds,
          [&] { study.runCell(args.errors, args.policy, args.trials); });
    std::cout << "{\"fingerprint\":\"" << key.fingerprint()
              << "\",\"wall_s\":" << seconds << "}" << std::endl;
    return 0;
}

/** Per-endpoint handler time, keyed by a stable endpoint name. */
std::string
endpointOf(const service::HttpRequest &request)
{
    std::string path = request.path();
    auto suffix = [&](const char *tail) {
        size_t n = std::char_traits<char>::length(tail);
        return path.size() >= n &&
               path.compare(path.size() - n, n, tail) == 0;
    };
    if (path == "/v1/jobs")
        return "jobs_post";
    if (path.rfind("/v1/jobs/", 0) == 0)
        return "jobs_get";
    if (path.rfind("/v1/figures/", 0) == 0)
        return "figures";
    if (path == "/v1/query")
        return "query";
    if (path == "/v1/leases/acquire")
        return "leases_acquire";
    if (path.rfind("/v1/leases/", 0) == 0)
        return suffix("/complete") ? "leases_complete" : "leases_heartbeat";
    if (path == "/v1/shards")
        return "shards";
    if (path == "/v1/healthz")
        return "healthz";
    if (path == "/v1/metricz")
        return "metricz";
    return "other";
}

int
cmdServe(const Args &args)
{
    service::SchedulerConfig config;
    config.cacheDir = args.cacheDir;
    // Coordinator-only: `etc_lab work` agents execute the leases.
    config.workers = 0;
    config.threads = args.threads;
    config.chunks = args.chunks;
    config.seed = args.seed;
    service::Scheduler scheduler(config);
    service::CampaignService campaign(scheduler);

    // Touched only by the server's single event-loop thread.
    struct Stat
    {
        uint64_t count = 0;
        double seconds = 0;
    };
    std::map<std::string, Stat> handlers;
    std::map<std::string, Clock::time_point> leaseGranted;
    Stat turnaround;
    CounterDelta counters;

    auto statsJson = [&] {
        JsonOut out;
        for (const auto &[endpoint, stat] : handlers)
            out.num(endpoint + "_n", static_cast<double>(stat.count))
                .num(endpoint + "_s", stat.seconds);
        return out.num("turnaround_n", static_cast<double>(turnaround.count))
            .num("turnaround_s", turnaround.seconds)
            .raw(counters.json())
            .str();
    };

    service::HttpServer server(
        0, [&](const service::HttpRequest &request) {
            if (request.path() == "/probe/stats")
                return service::HttpResponse::json(200, statsJson());
            auto start = Clock::now();
            auto response = campaign.handle(request);
            auto done = Clock::now();
            std::string endpoint = endpointOf(request);
            auto &stat = handlers[endpoint];
            ++stat.count;
            stat.seconds +=
                std::chrono::duration<double>(done - start).count();
            if (endpoint == "leases_acquire" && response.status == 200) {
                auto granted = store::parseJson(response.body);
                for (const auto &grant : granted.at("leases").elements)
                    leaseGranted[grant.at("id").asString()] = done;
            } else if (endpoint == "leases_complete") {
                std::string path = request.path();
                std::string id = path.substr(
                    11, path.size() - 11 - std::string("/complete").size());
                if (auto it = leaseGranted.find(id);
                    it != leaseGranted.end()) {
                    ++turnaround.count;
                    turnaround.seconds +=
                        std::chrono::duration<double>(done - it->second)
                            .count();
                    leaseGranted.erase(it);
                }
            }
            return response;
        });
    scheduler.start();
    installStopSignalHandlers();
    std::cout << "{\"port\":" << server.port() << "}" << std::endl;
    server.run(20);
    scheduler.stop();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        setQuiet(true);
        Args args = parseArgs(argc, argv);
        if (args.command == "setup")
            return cmdSetup(args);
        if (args.command == "sweep")
            return cmdSweep(args);
        if (args.command == "read")
            return cmdRead(args);
        if (args.command == "cell")
            return cmdCell(args);
        if (args.command == "serve")
            return cmdServe(args);
        fatal("unknown subcommand '", args.command, "'");
    } catch (const std::exception &error) {
        std::cerr << "etc_probe: " << error.what() << '\n';
        return 1;
    }
}
