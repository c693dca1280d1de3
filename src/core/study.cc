#include "core/study.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "fault/trial_pool.hh"
#include "sim/simulator.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "telemetry/trace.hh"

namespace etc::core {

namespace {

/** Registry lookup with the library's FatalError contract. */
const fault::InjectionPolicy &
policyOrFatal(const std::string &name)
{
    try {
        return fault::resolveInjectionPolicy(name);
    } catch (const std::invalid_argument &error) {
        fatal("study: ", error.what());
    }
}

} // namespace

double
CellSummary::meanFidelity() const
{
    if (fidelities.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &score : fidelities)
        sum += score.value;
    return sum / static_cast<double>(fidelities.size());
}

double
CellSummary::acceptableRate() const
{
    if (trials == 0)
        return 0.0;
    unsigned good = 0;
    for (const auto &score : fidelities)
        if (score.acceptable)
            ++good;
    return static_cast<double>(good) / trials;
}

analysis::ProtectionResult
computeStudyProtection(const workloads::Workload &workload,
                       const StudyConfig &config)
{
    // Static analysis with the workload's eligibility annotations.
    analysis::ProtectionConfig protectionConfig = config.protection;
    if (protectionConfig.eligibleFunctions.empty())
        protectionConfig.eligibleFunctions =
            workload.eligibleFunctions();
    return analysis::computeControlProtection(workload.program(),
                                              protectionConfig);
}

store::CellKey
makeCellKey(const workloads::Workload &workload,
            const analysis::ProtectionResult &protection,
            const StudyConfig &config, unsigned errors,
            const fault::InjectionPolicy &policy, unsigned trials)
{
    auto injectable = policy.injectableBitmap(workload.program(),
                                              protection.tagged);
    store::CellKey key;
    key.workload = workload.name();
    key.policy = policy.name;
    key.errors = errors;
    key.trials = trials;
    key.seed = config.seed;
    key.budgetFactor = config.budgetFactor;
    key.memoryModel = store::memoryModelName(config.memoryModel);
    key.programHash =
        store::fingerprintProgram(workload.program(), injectable);
    // Legacy policies keep the pre-policy canonical form (no policy
    // hash), so stores written before the policy layer keep serving;
    // every other policy folds its behavior hash into the key.
    key.policyHash = policy.legacy ? "" : policy.descriptorHashHex();
    return key;
}

store::CellKey
makeCellKey(const workloads::Workload &workload,
            const analysis::ProtectionResult &protection,
            const StudyConfig &config, unsigned errors,
            const std::string &policyName, unsigned trials)
{
    return makeCellKey(workload, protection, config, errors,
                       policyOrFatal(policyName), trials);
}

ErrorToleranceStudy::ErrorToleranceStudy(
    const workloads::Workload &workload, StudyConfig config)
    : workload_(workload), config_(std::move(config)),
      protection_(computeStudyProtection(workload_, config_))
{
    if (!config_.cacheDir.empty())
        store_ = std::make_unique<store::ResultStore>(config_.cacheDir);
}

ErrorToleranceStudy::~ErrorToleranceStudy() = default;

const sim::DynamicProfile &
ErrorToleranceStudy::profile() const
{
    if (!profile_) {
        // Fault-free profile with tag accounting (Table 3).
        sim::Simulator simulator(workload_.program());
        sim::Profiler profiler(protection_.tagged);
        auto result = simulator.run(0, &profiler);
        if (!result.completed())
            panic("study: fault-free run of '", workload_.name(),
                  "' did not complete: ", result.toString());
        profile_ = profiler.profile();
    }
    return *profile_;
}

fault::CampaignRunner &
ErrorToleranceStudy::runner(const fault::InjectionPolicy &policy)
{
    auto &slot = runners_[policy.name];
    if (!slot)
        slot = buildRunner(policy);
    return *slot;
}

std::unique_ptr<fault::CampaignRunner>
ErrorToleranceStudy::buildRunner(const fault::InjectionPolicy &policy) const
{
    auto injectable = policy.injectableBitmap(workload_.program(),
                                              protection_.tagged);
    return std::make_unique<fault::CampaignRunner>(
        workload_.program(), std::move(injectable), config_.memoryModel,
        config_.checkpointInterval, policy.resultKinds, policy.bitModel,
        config_.staticPrune);
}

const std::vector<uint8_t> &
ErrorToleranceStudy::goldenOutput() const
{
    // All runners share the same golden run; build one if needed.
    auto *self = const_cast<ErrorToleranceStudy *>(this);
    return self->runner(policyOrFatal(fault::PROTECTED_POLICY))
        .goldenOutput();
}

uint64_t
ErrorToleranceStudy::goldenInstructions() const
{
    auto *self = const_cast<ErrorToleranceStudy *>(this);
    return self->runner(policyOrFatal(fault::PROTECTED_POLICY))
        .goldenInstructions();
}

store::CellKey
ErrorToleranceStudy::cellKey(unsigned errors,
                             const std::string &policyName,
                             unsigned trials) const
{
    return makeCellKey(workload_, protection_, config_, errors,
                       policyName, trials);
}

std::pair<unsigned, unsigned>
ErrorToleranceStudy::shardRange(unsigned trials, unsigned index,
                                unsigned count)
{
    if (count == 0 || index >= count)
        fatal("shard index ", index, " out of range for ", count,
              " shards");
    auto lo = static_cast<unsigned>(uint64_t{trials} * index / count);
    auto hi =
        static_cast<unsigned>(uint64_t{trials} * (index + 1) / count);
    return {lo, hi};
}

void
ErrorToleranceStudy::tileCells(std::vector<TileJob> jobs, bool stoppable)
{
    // Per job: each range's pieces (its stored shards first), the gaps
    // between them, the range each gap belongs to, and the fidelity
    // slots of each gap's trials (each written by the worker that
    // finished its trial, read in trial order once the gap is done).
    struct Tiling
    {
        std::vector<std::vector<store::ShardRecord>> pieces;
        std::vector<size_t> reused, unrun;
        std::vector<fault::TrialRange> gaps;
        std::vector<size_t> owner;
        std::vector<std::vector<workloads::FidelityScore>> scores;
    };
    std::vector<Tiling> tilings(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        TileJob &job = jobs[j];
        Tiling &tiling = tilings[j];
        const std::vector<fault::TrialRange> &ranges = job.ranges;
        tiling.pieces.resize(ranges.size());
        tiling.reused.resize(ranges.size());
        tiling.unrun.resize(ranges.size());
        unsigned stripes = std::max(job.stripes, 1u);
        // Keep every stored shard inside a range that extends the
        // range's covered prefix, and compute (and persist) the gaps
        // between them. Shards from an incompatible split (overlapping
        // the prefix or crossing the range bounds) are ignored; their
        // trials recompute to the same bits anyway.
        for (size_t r = 0; r < ranges.size(); ++r) {
            auto addGap = [&](uint64_t a, uint64_t b) {
                // Cut at the stripe boundaries inside the gap.
                for (unsigned s = 0; s < stripes && a < b; ++s) {
                    uint64_t end =
                        shardRange(job.key->trials, s, stripes).second;
                    if (end > a) {
                        tiling.gaps.push_back({a, std::min(end, b)});
                        tiling.owner.push_back(r);
                        ++tiling.unrun[r];
                        a = std::min(end, b);
                    }
                }
            };
            uint64_t covered = ranges[r].lo;
            for (auto &shard : job.stored) {
                if (shard.lo < covered || shard.hi > ranges[r].hi)
                    continue;
                if (shard.lo > covered)
                    addGap(covered, shard.lo);
                covered = shard.hi;
                tiling.pieces[r].push_back(std::move(shard));
            }
            if (covered < ranges[r].hi)
                addGap(covered, ranges[r].hi);
            tiling.reused[r] = tiling.pieces[r].size();
            if (tiling.unrun[r] == 0)
                job.done(r, std::move(tiling.pieces[r]), tiling.reused[r]);
        }
    }

    // Runners are built here, so jobs the store tiles need no golden
    // run. The missing ones are built at once, on up to
    // config_.threads workers, before the pass needs them.
    std::vector<const fault::InjectionPolicy *> missing;
    for (size_t j = 0; j < jobs.size(); ++j) {
        const fault::InjectionPolicy *policy = jobs[j].policy;
        if (!tilings[j].gaps.empty() && !runners_[policy->name] &&
            std::find(missing.begin(), missing.end(), policy) ==
                missing.end())
            missing.push_back(policy);
    }
    fault::TrialPool::run(
        fault::TrialPool::resolveWorkers(config_.threads, missing.size()),
        missing.size(), [&](uint64_t i, unsigned) {
            // The slots exist, so no worker changes the map itself.
            runners_.at(missing[i]->name) = buildRunner(*missing[i]);
        });

    // One engine pass over every job's gaps.
    std::vector<fault::PassCell> cells;
    cells.reserve(jobs.size());
    std::chrono::steady_clock::time_point last; // the previous landing
    for (size_t j = 0; j < jobs.size(); ++j) {
        const TileJob &job = jobs[j];
        Tiling &tiling = tilings[j];
        if (tiling.gaps.empty())
            continue;
        const store::CellKey &key = *job.key;
        fault::PassCell &cell = cells.emplace_back();
        cell.runner = &runner(*job.policy);
        cell.ranges = tiling.gaps;
        fault::CampaignConfig &campaignConfig = cell.config;
        campaignConfig.trials = key.trials;
        campaignConfig.errors = key.errors;
        campaignConfig.budgetFactor = config_.budgetFactor;
        campaignConfig.threads = config_.threads;
        campaignConfig.gangWidth = config_.gangWidth;
        // Derive a per-cell seed so cells are independent but
        // reproducible; the policy salt keeps the legacy streams (0x1
        // / 0x2) bit-identical and gives every other policy its own
        // stream.
        campaignConfig.seed = config_.seed ^
                              (uint64_t{key.errors} << 32) ^
                              job.policy->seedSalt();
        for (const auto &gap : tiling.gaps)
            tiling.scores.emplace_back(gap.hi - gap.lo);

        if (stoppable)
            cell.hooks.stopStarting = [] { return stopRequested(); };
        const std::vector<uint8_t> &golden = cell.runner->goldenOutput();
        cell.hooks.trialDone = [this, &tiling, &golden](
                                   size_t gap, uint64_t index,
                                   fault::TrialOutcome &outcome) {
            if (outcome.run.completed())
                tiling.scores[gap][index] =
                    workload_.scoreFidelity(golden, outcome.output);
            std::vector<uint8_t>().swap(outcome.output);
        };
        cell.hooks.rangeDone = [this, &job, &tiling, &key, &last](
                                   size_t gap,
                                   fault::CampaignResult &result) {
            auto now = std::chrono::steady_clock::now();
            std::chrono::duration<double> wall = now - last;
            last = now;
            trialsExecuted_ += result.trials;

            store::ShardRecord piece{
                key, static_cast<unsigned>(tiling.gaps[gap].lo),
                static_cast<unsigned>(tiling.gaps[gap].hi), {}};
            CellSummary &summary = piece.summary;
            summary.errors = key.errors;
            summary.policy = job.policy->name;
            summary.trials = result.trials;
            summary.completed = result.completed;
            summary.crashed = result.crashed;
            summary.timedOut = result.timedOut;
            summary.trialsPruned = result.trialsPruned;
            summary.wallSeconds = wall.count();
            for (size_t i = 0; i < result.outcomes.size(); ++i) {
                summary.totalInstructions +=
                    result.outcomes[i].run.instructions;
                if (result.outcomes[i].run.completed())
                    summary.fidelities.push_back(
                        std::move(tiling.scores[gap][i]));
            }
            tiling.scores[gap] = {};

            // The stripe's span covers the wall time it is credited
            // with.
            telemetry::Tracer &tracer = telemetry::Tracer::instance();
            if (tracer.enabled()) {
                uint64_t end = tracer.nowMicros();
                uint64_t micros = std::min(
                    end, static_cast<uint64_t>(wall.count() * 1e6));
                tracer.emitComplete(
                    "core", "stripe", end - micros, micros,
                    "{\"cell\":\"" + key.fingerprint() +
                        "\",\"lo\":" + std::to_string(piece.lo) +
                        ",\"hi\":" + std::to_string(piece.hi) + "}");
            }
            if (store_ && job.persist)
                store_->storeShard(key, piece.lo, piece.hi, piece.summary);
            size_t r = tiling.owner[gap];
            tiling.pieces[r].push_back(std::move(piece));
            if (--tiling.unrun[r] == 0)
                job.done(r, std::move(tiling.pieces[r]), tiling.reused[r]);
        };
    }
    if (cells.empty())
        return;
    last = std::chrono::steady_clock::now();
    fault::CampaignRunner::runPass(cells);
}

CellSummary
ErrorToleranceStudy::runCell(unsigned errors,
                             const std::string &policyName,
                             unsigned trialsOverride, unsigned stripes)
{
    unsigned trials = trialsOverride ? trialsOverride : config_.trials;
    std::optional<CellSummary> cell;
    bool cached = false;
    auto keep = [&](size_t, CellSummary summary, bool stored) {
        cell = std::move(summary);
        cached = stored;
    };
    if (store_) {
        runCells({{errors, policyName, trials}}, stripes, keep);
        // A stop request leaves the cell's unstarted stripes unrun.
        if (!cell)
            throw CellInterrupted("interrupted with stripes unrun: " +
                                  cellKey(errors, policyName, trials)
                                      .canonical());
        // Reclaim shards a kill between storeCell and dropShards (or a
        // concurrent stripe worker) may have left behind.
        if (cached)
            store_->dropShards(cellKey(errors, policyName, trials));
        return std::move(*cell);
    }
    // The same stripes as with a store (tileCells persists nothing
    // without one), so the pass deals the same gangs and a divergent
    // cell falls back to scalar the same way.
    const fault::InjectionPolicy &policy = policyOrFatal(policyName);
    auto key = makeCellKey(workload_, protection_, config_, errors,
                           policy, trials);
    std::vector<TileJob> jobs(1);
    jobs[0] = {&key, &policy, {}, {{0, trials}}, stripes, false,
               [&](size_t, std::vector<store::ShardRecord> pieces,
                   size_t) {
                   cell = store::mergeShardSummaries(key, std::move(pieces));
               }};
    tileCells(std::move(jobs), false);
    return std::move(*cell);
}

void
ErrorToleranceStudy::runCells(const std::vector<CellRequest> &cells,
                              unsigned stripes, const CellSink &done)
{
    std::vector<store::CellKey> keys;
    std::vector<TileJob> jobs;
    keys.reserve(cells.size()); // the jobs point into it
    jobs.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellRequest &cell = cells[i];
        const fault::InjectionPolicy &policy = policyOrFatal(cell.policy);
        const store::CellKey &key = keys.emplace_back(
            makeCellKey(workload_, protection_, config_, cell.errors,
                        policy, cell.trials));
        std::vector<store::ShardRecord> shards;
        if (store_) {
            // Classify by an actual load, not existence: a corrupt
            // record must take the computed path.
            if (auto cached = store_->loadCell(key)) {
                done(i, std::move(*cached), true);
                continue;
            }
            // Every stored shard is read once, here.
            shards = store_->loadShards(key);
        }
        // A one-stripe cell with no shard runs as one in-memory piece:
        // it is promoted at once, so writing it as a shard first would
        // only add a write.
        bool persist = !shards.empty() || stripes > 1;
        jobs.push_back(
            {&key, &policy, std::move(shards), {{0, cell.trials}}, stripes,
             persist,
             [this, &key, &done, i](size_t,
                                    std::vector<store::ShardRecord> pieces,
                                    size_t) {
                 done(i,
                      store_ ? store_->promoteShards(key, std::move(pieces))
                             : store::mergeShardSummaries(
                                   key, std::move(pieces)),
                      false);
             }});
    }
    tileCells(std::move(jobs), true);
}

void
ErrorToleranceStudy::runStripes(unsigned errors,
                                const std::string &policyName,
                                unsigned trials, unsigned count,
                                const std::vector<unsigned> &stripes,
                                const StripeSink &done)
{
    const fault::InjectionPolicy &policy = policyOrFatal(policyName);
    auto key = makeCellKey(workload_, protection_, config_, errors,
                           policy, trials);
    std::vector<fault::TrialRange> ranges;
    for (unsigned stripe : stripes) {
        auto [lo, hi] = shardRange(trials, stripe, count);
        ranges.push_back({lo, hi});
    }

    std::vector<store::ShardRecord> stored;
    if (store_) {
        if (auto cached = store_->loadCell(key)) {
            for (unsigned stripe : stripes)
                done({stripe, 0, trials, *cached, 0, 0.0});
            return;
        }
        stored = store_->loadShards(key);
    }
    std::vector<TileJob> jobs(1);
    jobs[0] = {
        &key, &policy, std::move(stored), ranges, 1, true,
        [&](size_t r, std::vector<store::ShardRecord> pieces,
            size_t reused) {
            StripeResult stripe;
            stripe.index = stripes[r];
            stripe.lo = static_cast<unsigned>(ranges[r].lo);
            stripe.hi = static_cast<unsigned>(ranges[r].hi);
            for (size_t i = reused; i < pieces.size(); ++i) {
                stripe.trialsSimulated += pieces[i].hi - pieces[i].lo;
                stripe.wallSeconds += pieces[i].summary.wallSeconds;
            }
            stripe.summary = store::mergeShardSummaries(
                key, std::move(pieces), stripe.lo, stripe.hi);
            done(std::move(stripe));
        }};
    tileCells(std::move(jobs), store_ != nullptr);
}

} // namespace etc::core
