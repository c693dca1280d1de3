#include "core/study.hh"

#include <chrono>
#include <stdexcept>

#include "sim/simulator.hh"
#include "store/result_store.hh"
#include "support/logging.hh"

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

CellSummary
ErrorToleranceStudy::computeRange(unsigned errors,
                                  const fault::InjectionPolicy &policy,
                                  unsigned trials, unsigned lo,
                                  unsigned hi)
{
    auto &campaignRunner = runner(policy);

    fault::CampaignConfig campaignConfig;
    campaignConfig.trials = trials;
    campaignConfig.errors = errors;
    campaignConfig.budgetFactor = config_.budgetFactor;
    campaignConfig.threads = config_.threads;
    campaignConfig.gangWidth = config_.gangWidth;
    // Derive a per-cell seed so cells are independent but
    // reproducible; the policy salt keeps the legacy streams (0x1 /
    // 0x2) bit-identical and gives every other policy its own stream.
    campaignConfig.seed = config_.seed ^
                          (uint64_t{errors} << 32) ^ policy.seedSalt();

    auto started = std::chrono::steady_clock::now();
    auto result = campaignRunner.runRange(campaignConfig, lo, hi);
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - started;
    trialsExecuted_ += result.trials;

    CellSummary summary;
    summary.errors = errors;
    summary.policy = policy.name;
    summary.trials = result.trials;
    summary.completed = result.completed;
    summary.crashed = result.crashed;
    summary.timedOut = result.timedOut;
    summary.trialsPruned = result.trialsPruned;
    summary.wallSeconds = elapsed.count();
    for (const auto &outcome : result.outcomes) {
        summary.totalInstructions += outcome.run.instructions;
        if (outcome.run.completed())
            summary.fidelities.push_back(workload_.scoreFidelity(
                campaignRunner.goldenOutput(), outcome.output));
    }
    return summary;
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

std::vector<store::ShardRecord>
ErrorToleranceStudy::tileRange(const store::CellKey &key, unsigned errors,
                               const fault::InjectionPolicy &policy,
                               unsigned trials,
                               std::vector<store::ShardRecord> stored,
                               unsigned lo, unsigned hi)
{
    // Keep every stored shard inside [lo, hi) that extends the
    // covered prefix, and compute (and persist) the gaps between
    // them. Shards from an incompatible split (overlapping the
    // prefix or crossing the range bounds) are ignored; their trials
    // recompute to the same bits anyway.
    std::vector<store::ShardRecord> pieces;
    unsigned covered = lo;
    auto computePiece = [&](unsigned a, unsigned b) {
        auto partial = computeRange(errors, policy, trials, a, b);
        store_->storeShard(key, a, b, partial);
        pieces.push_back(
            store::ShardRecord{key, a, b, std::move(partial)});
    };
    for (auto &shard : stored) {
        if (shard.lo < covered || shard.hi > hi)
            continue;
        if (shard.lo > covered)
            computePiece(covered, shard.lo);
        covered = shard.hi;
        pieces.push_back(std::move(shard));
    }
    if (covered < hi)
        computePiece(covered, hi);
    return pieces;
}

CellSummary
ErrorToleranceStudy::runCell(unsigned errors,
                             const std::string &policyName,
                             unsigned trialsOverride)
{
    const fault::InjectionPolicy &policy = policyOrFatal(policyName);
    unsigned trials = trialsOverride ? trialsOverride : config_.trials;
    if (!store_)
        return computeRange(errors, policy, trials, 0, trials);

    auto key = makeCellKey(workload_, protection_, config_, errors,
                           policy, trials);
    if (auto cached = store_->loadCell(key)) {
        // Reclaim shards a kill between storeCell and dropShards (or
        // a concurrent stripe worker) may have left behind.
        store_->dropShards(key);
        return *cached;
    }

    // Every stored shard is read once, here. A cell with none runs as
    // one in-memory piece: it is promoted at once, so writing it as a
    // shard first would only add a write.
    auto shards = store_->loadShards(key);
    std::vector<store::ShardRecord> pieces;
    if (shards.empty())
        pieces.push_back({key, 0, trials,
                          computeRange(errors, policy, trials, 0, trials)});
    else
        pieces = tileRange(key, errors, policy, trials, std::move(shards),
                           0, trials);
    return store_->promoteShards(key, std::move(pieces));
}

CellSummary
ErrorToleranceStudy::runCellShard(unsigned errors,
                                  const std::string &policyName,
                                  unsigned trials, unsigned shardIndex,
                                  unsigned shardCount)
{
    const fault::InjectionPolicy &policy = policyOrFatal(policyName);
    auto [lo, hi] = shardRange(trials, shardIndex, shardCount);
    if (!store_)
        return computeRange(errors, policy, trials, lo, hi);

    auto key = makeCellKey(workload_, protection_, config_, errors,
                           policy, trials);
    if (auto cached = store_->loadCell(key))
        return *cached; // cell already complete; nothing to run
    if (auto shard = store_->loadShard(key, lo, hi))
        return std::move(shard->summary);

    // Reuse any stored sub-shards inside the stripe (e.g. chunks of
    // a killed run under a different split); only gaps simulate, and
    // only gaps are persisted, so no overlapping records are created.
    return store::mergeShardSummaries(
        key,
        tileRange(key, errors, policy, trials, store_->loadShards(key),
                  lo, hi),
        lo, hi);
}

} // namespace etc::core
