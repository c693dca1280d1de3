#include "core/study.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

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
    if (!slot) {
        auto injectable = policy.injectableBitmap(workload_.program(),
                                                  protection_.tagged);
        slot = std::make_unique<fault::CampaignRunner>(
            workload_.program(), std::move(injectable),
            config_.memoryModel, config_.checkpointInterval,
            policy.resultKinds, policy.bitModel, config_.staticPrune);
    }
    return *slot;
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

void
ErrorToleranceStudy::simulate(const store::CellKey &key,
                              const fault::InjectionPolicy &policy,
                              const std::vector<fault::TrialRange> &ranges,
                              bool stoppable, const PieceSink &sink)
{
    if (ranges.empty())
        return; // stored shards cover the cell: no golden run needed
    auto &campaignRunner = runner(policy);
    const std::vector<uint8_t> &golden = campaignRunner.goldenOutput();

    fault::CampaignConfig campaignConfig;
    campaignConfig.trials = key.trials;
    campaignConfig.errors = key.errors;
    campaignConfig.budgetFactor = config_.budgetFactor;
    campaignConfig.threads = config_.threads;
    campaignConfig.gangWidth = config_.gangWidth;
    // Derive a per-cell seed so cells are independent but
    // reproducible; the policy salt keeps the legacy streams (0x1 /
    // 0x2) bit-identical and gives every other policy its own stream.
    campaignConfig.seed = config_.seed ^ (uint64_t{key.errors} << 32) ^
                          policy.seedSalt();

    // Fidelity slots, one per trial of each range: each is written by
    // the worker that finished its trial, and read in trial order once
    // the range is done.
    std::vector<std::vector<workloads::FidelityScore>> scores;
    scores.reserve(ranges.size());
    for (const auto &range : ranges)
        scores.emplace_back(range.hi - range.lo);
    auto last = std::chrono::steady_clock::now();

    fault::PassHooks hooks;
    if (stoppable)
        hooks.stopStarting = [] { return stopRequested(); };
    hooks.trialDone = [&](size_t range, uint64_t index,
                          fault::TrialOutcome &outcome) {
        if (outcome.run.completed())
            scores[range][index] =
                workload_.scoreFidelity(golden, outcome.output);
        std::vector<uint8_t>().swap(outcome.output);
    };
    hooks.rangeDone = [&](size_t range, fault::CampaignResult &result) {
        auto now = std::chrono::steady_clock::now();
        std::chrono::duration<double> wall = now - last;
        last = now;
        trialsExecuted_ += result.trials;

        store::ShardRecord piece{
            key, static_cast<unsigned>(ranges[range].lo),
            static_cast<unsigned>(ranges[range].hi), {}};
        CellSummary &summary = piece.summary;
        summary.errors = key.errors;
        summary.policy = policy.name;
        summary.trials = result.trials;
        summary.completed = result.completed;
        summary.crashed = result.crashed;
        summary.timedOut = result.timedOut;
        summary.trialsPruned = result.trialsPruned;
        summary.wallSeconds = wall.count();
        for (size_t i = 0; i < result.outcomes.size(); ++i) {
            summary.totalInstructions += result.outcomes[i].run.instructions;
            if (result.outcomes[i].run.completed())
                summary.fidelities.push_back(std::move(scores[range][i]));
        }
        scores[range] = {};

        // The stripe's span covers the wall time it is credited with.
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
        sink(range, std::move(piece));
    };
    campaignRunner.runPass(campaignConfig, ranges, hooks);
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
ErrorToleranceStudy::tileRanges(const store::CellKey &key,
                                const fault::InjectionPolicy &policy,
                                std::vector<store::ShardRecord> stored,
                                const std::vector<fault::TrialRange> &ranges,
                                unsigned stripes, bool stoppable,
                                const TileSink &done)
{
    // Keep every stored shard inside a range that extends the range's
    // covered prefix, and compute (and persist) the gaps between
    // them. Shards from an incompatible split (overlapping the
    // prefix or crossing the range bounds) are ignored; their trials
    // recompute to the same bits anyway.
    std::vector<std::vector<store::ShardRecord>> pieces(ranges.size());
    std::vector<size_t> reused(ranges.size()), unrun(ranges.size());
    std::vector<fault::TrialRange> gaps;
    std::vector<size_t> owner; //!< the range of each gap
    stripes = std::max(stripes, 1u);
    for (size_t r = 0; r < ranges.size(); ++r) {
        auto addGap = [&](uint64_t a, uint64_t b) {
            // Cut at the stripe boundaries inside the gap.
            for (unsigned s = 0; s < stripes && a < b; ++s) {
                uint64_t end = shardRange(key.trials, s, stripes).second;
                if (end > a) {
                    gaps.push_back({a, std::min(end, b)});
                    owner.push_back(r);
                    ++unrun[r];
                    a = std::min(end, b);
                }
            }
        };
        uint64_t covered = ranges[r].lo;
        for (auto &shard : stored) {
            if (shard.lo < covered || shard.hi > ranges[r].hi)
                continue;
            if (shard.lo > covered)
                addGap(covered, shard.lo);
            covered = shard.hi;
            pieces[r].push_back(std::move(shard));
        }
        if (covered < ranges[r].hi)
            addGap(covered, ranges[r].hi);
        reused[r] = pieces[r].size();
        if (unrun[r] == 0)
            done(r, std::move(pieces[r]), reused[r]);
    }

    simulate(key, policy, gaps, stoppable,
             [&](size_t gap, store::ShardRecord piece) {
                 if (store_)
                     store_->storeShard(key, piece.lo, piece.hi,
                                        piece.summary);
                 size_t r = owner[gap];
                 pieces[r].push_back(std::move(piece));
                 if (--unrun[r] == 0)
                     done(r, std::move(pieces[r]), reused[r]);
             });
}

CellSummary
ErrorToleranceStudy::runCell(unsigned errors,
                             const std::string &policyName,
                             unsigned trialsOverride, unsigned stripes)
{
    const fault::InjectionPolicy &policy = policyOrFatal(policyName);
    unsigned trials = trialsOverride ? trialsOverride : config_.trials;
    auto key = makeCellKey(workload_, protection_, config_, errors,
                           policy, trials);
    std::vector<store::ShardRecord> pieces;
    bool tiled = false;
    auto collect = [&](size_t, store::ShardRecord piece) {
        pieces.push_back(std::move(piece));
        tiled = true;
    };
    auto tiledAll = [&](size_t, std::vector<store::ShardRecord> all,
                        size_t) {
        pieces = std::move(all);
        tiled = true;
    };
    if (!store_) {
        // The same stripes as with a store (tileRanges persists
        // nothing without one), so the pass deals the same gangs and
        // a divergent cell falls back to scalar the same way.
        tileRanges(key, policy, {}, {{0, trials}}, stripes, false,
                   tiledAll);
        return store::mergeShardSummaries(key, std::move(pieces));
    }

    if (auto cached = store_->loadCell(key)) {
        // Reclaim shards a kill between storeCell and dropShards (or
        // a concurrent stripe worker) may have left behind.
        store_->dropShards(key);
        return *cached;
    }

    // Every stored shard is read once, here. A one-stripe cell with
    // none runs as one in-memory piece: it is promoted at once, so
    // writing it as a shard first would only add a write.
    auto shards = store_->loadShards(key);
    if (shards.empty() && stripes <= 1)
        simulate(key, policy, {{0, trials}}, true, collect);
    else
        tileRanges(key, policy, std::move(shards), {{0, trials}},
                   stripes, true, tiledAll);
    // A stop request leaves the cell's unstarted stripes unrun.
    if (!tiled)
        throw CellInterrupted("interrupted with stripes unrun: " +
                              key.canonical());
    return store_->promoteShards(key, std::move(pieces));
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
    tileRanges(
        key, policy, std::move(stored), ranges, 1, store_ != nullptr,
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
        });
}

} // namespace etc::core
