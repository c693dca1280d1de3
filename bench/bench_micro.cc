/**
 * @file
 * Microbenchmarks (google-benchmark): interpreter rate per paper
 * workload, static-analysis throughput, assembler throughput, and the
 * injector hook's overhead. These size the experimental harness, not
 * the paper's results.
 *
 * `bench_micro --json-out FILE` skips the google-benchmark suites and
 * instead writes a machine-readable campaign-throughput snapshot: one
 * record per registry workload x checkpointing on/off x static-prune
 * on/off x gang width (Test scale, unprotected policy), the source of
 * the repo's BENCH_campaign.json perf trajectory. An existing FILE is
 * never overwritten unless --force is given (perf snapshots must not
 * be lost to a stray rerun). `--workloads a,b` restricts the snapshot
 * to those registry workloads -- CI's schema smoke runs one workload
 * instead of the full sweep.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/control_protection.hh"
#include "asm/assembler.hh"
#include "fault/campaign.hh"
#include "fault/injection.hh"
#include "fault/policy.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace {

using namespace etc;

/**
 * Interpreter rate on the six paper workloads' golden programs at
 * Bench scale, one benchmark per workload and mode: `hookless` is
 * run() without a hook; `counting` is runUntilInjectable() under the
 * unprotected mask with a quota the run never reaches, which is how a
 * trial runs after its last site (and so most of a many-error trial).
 */
void
interpret(benchmark::State &state, const char *name, bool counting)
{
    auto workload = workloads::createWorkload(name, workloads::Scale::Bench);
    const auto &program = workload->program();
    sim::StraightRuns runs(program,
                           fault::injectableWithoutProtection(program));
    sim::Simulator sim(program);
    const uint64_t quota = sim.run().instructions + 1;
    uint64_t instructions = 0;
    for (auto _ : state) {
        sim.fastReset();
        auto result =
            counting ? sim.runUntilInjectable(quota, runs) : sim.run();
        benchmark::DoNotOptimize(result);
        if (!result.completed())
            state.SkipWithError("golden run failed");
        instructions += result.instructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

[[maybe_unused]] const bool interpretRegistered = [] {
    for (const char *name : {"susan", "mpeg", "mcf", "blowfish", "gsm", "art"})
        for (bool counting : {false, true})
            benchmark::RegisterBenchmark(
                (std::string("BM_Interpret/") + name +
                 (counting ? "/counting" : "/hookless"))
                    .c_str(),
                interpret, name, counting);
    return true;
}();

void
BM_SimulatorWithInjectorHook(benchmark::State &state)
{
    auto workload = workloads::createWorkload("susan",
                                              workloads::Scale::Test);
    auto injectable =
        fault::injectableWithoutProtection(workload->program());
    sim::Simulator sim(workload->program());
    uint64_t instructions = 0;
    for (auto _ : state) {
        fault::Injector injector(injectable, fault::InjectionPlan{});
        sim.reset();
        auto result = sim.run(0, &injector);
        instructions += result.instructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorWithInjectorHook);

/**
 * A full Monte-Carlo campaign cell, swept over worker threads,
 * checkpoint interval, and gang width (args: threads, checkpoint
 * interval, gang width). The trials are bit-identical across the
 * whole sweep (counter-based RNG streams, checkpoint determinism,
 * scalar-drained gang divergence), so the arg axes show pure
 * wall-clock scaling of the paper-figure hot path: interval 0 is the
 * classic hooked full-replay interpreter, a nonzero interval the
 * checkpointed hookless fast path, and gang width N batches N trials
 * per lockstep gang on that fast path (0 = scalar).
 */
void
BM_CampaignCell(benchmark::State &state)
{
    auto workload = workloads::createWorkload("susan",
                                              workloads::Scale::Test);
    auto injectable =
        fault::injectableWithoutProtection(workload->program());
    fault::CampaignRunner runner(
        workload->program(), std::move(injectable),
        sim::MemoryModel::Lenient,
        static_cast<uint64_t>(state.range(1)));
    fault::CampaignConfig config;
    config.trials = 64;
    config.errors = 4;
    config.threads = static_cast<unsigned>(state.range(0));
    config.gangWidth = static_cast<unsigned>(state.range(2));
    uint64_t trials = 0;
    for (auto _ : state) {
        auto result = runner.run(config);
        benchmark::DoNotOptimize(result.completed);
        trials += result.trials;
    }
    state.counters["trials/s"] = benchmark::Counter(
        static_cast<double>(trials), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignCell)
    ->ArgNames({"threads", "ckpt", "gang"})
    ->Args({1, 0, 0})
    ->Args({2, 0, 0})
    ->Args({4, 0, 0})
    ->Args({8, 0, 0})
    ->Args({1, 1024, 0})
    ->Args({2, 1024, 0})
    ->Args({4, 1024, 0})
    ->Args({8, 1024, 0})
    ->Args({1, 1024, 4})
    ->Args({1, 1024, 8})
    ->Args({1, 1024, 16})
    ->Args({4, 1024, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Worst-case gang divergence: mpeg under the control-only policy, so
 * every injected trial flips a control transfer's next PC and leaves
 * the pack at its first fault -- the gang splits maximally and nearly
 * all post-fault work drains through the scalar Simulator. This
 * bounds the gang's overhead when lockstep buys nothing; gang 0 is
 * the scalar reference.
 */
void
BM_GangDivergence(benchmark::State &state)
{
    auto workload = workloads::createWorkload("mpeg",
                                              workloads::Scale::Test);
    auto injectable =
        fault::injectableWithoutProtection(workload->program());
    const fault::InjectionPolicy &policy =
        fault::resolveInjectionPolicy("control-only");
    fault::CampaignRunner runner(
        workload->program(), std::move(injectable),
        sim::MemoryModel::Lenient,
        fault::CampaignRunner::DEFAULT_CHECKPOINT_INTERVAL,
        policy.resultKinds, policy.bitModel);
    fault::CampaignConfig config;
    config.trials = 48;
    config.errors = 1;
    config.threads = 1;
    config.gangWidth = static_cast<unsigned>(state.range(0));
    uint64_t trials = 0;
    for (auto _ : state) {
        auto result = runner.run(config);
        benchmark::DoNotOptimize(result.completed);
        trials += result.trials;
    }
    state.counters["trials/s"] = benchmark::Counter(
        static_cast<double>(trials), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GangDivergence)
    ->ArgNames({"gang"})
    ->Arg(0)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Checkpoint restore cost: rewinding a simulator to a mid-run snapshot
 * (registers + page image + output prefix). This is what replaces the
 * fault-free prefix re-execution of every trial.
 */
void
BM_CheckpointRestore(benchmark::State &state)
{
    auto workload = workloads::createWorkload("susan",
                                              workloads::Scale::Test);
    auto injectable =
        fault::injectableWithoutProtection(workload->program());

    // Profile the golden run at a fine interval, keeping the recording
    // simulator's output as the golden stream.
    sim::Simulator golden(workload->program());
    sim::CheckpointStore store;
    golden.memory().resetDirtyTracking();
    sim::CheckpointRecorder recorder(injectable, 1024, golden, store);
    auto result = golden.run(0, &recorder);
    if (!result.completed() || store.empty()) {
        state.SkipWithError("golden run failed or too short");
        return;
    }
    const sim::Checkpoint &mid = store[store.size() / 2];

    sim::Simulator sim(workload->program());
    for (auto _ : state) {
        sim.restoreFrom(mid, golden.output());
        benchmark::DoNotOptimize(sim.machine().pc);
    }
    state.counters["skipped instr"] =
        static_cast<double>(mid.instructions);
}
BENCHMARK(BM_CheckpointRestore);

void
BM_ControlProtectionAnalysis(benchmark::State &state)
{
    auto workload = workloads::createWorkload("blowfish",
                                              workloads::Scale::Test);
    analysis::ProtectionConfig config;
    config.eligibleFunctions = workload->eligibleFunctions();
    for (auto _ : state) {
        auto result = analysis::computeControlProtection(
            workload->program(), config);
        benchmark::DoNotOptimize(result.numTagged);
    }
    state.counters["instrs"] = static_cast<double>(
        workload->program().size());
}
BENCHMARK(BM_ControlProtectionAnalysis);

void
BM_Assembler(benchmark::State &state)
{
    std::ostringstream source;
    source << ".data\nbuf: .space 64\n.text\n.func main\nmain:\n";
    for (int i = 0; i < 200; ++i)
        source << "  addi $t0, $t0, " << i << "\n"
               << "  sw $t0, 0($sp)\n";
    source << "  halt\n.endfunc\n";
    std::string text = source.str();
    for (auto _ : state) {
        auto prog = assembly::assemble(text);
        benchmark::DoNotOptimize(prog.size());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_Assembler);

void
BM_WorkloadConstruction(benchmark::State &state)
{
    for (auto _ : state) {
        auto workload = workloads::createWorkload(
            "mpeg", workloads::Scale::Test);
        benchmark::DoNotOptimize(workload->program().size());
    }
}
BENCHMARK(BM_WorkloadConstruction);

/** Readable double for the JSON snapshot (locale-independent). */
std::string
jsonDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
}

/**
 * The --json-out snapshot: campaign throughput per registry workload
 * under the unprotected legacy policy, with checkpointed trial
 * fast-forwarding, static pruning, and gang width toggled -- the
 * three result-invariant accelerations the campaign layer stacks.
 * Gang widths beyond scalar are swept only on the checkpointed rows
 * (the gang engages only with checkpointing); width 8 is the CI
 * perf-sanity reference, DEFAULT_GANG_WIDTH the auto pick.
 */
int
campaignSnapshot(const std::string &path, bool force,
                 const std::vector<std::string> &only)
{
    if (!force && std::ifstream(path).good()) {
        std::cerr << "bench_micro: " << path
                  << " already exists; pass --force to overwrite the "
                     "perf snapshot\n";
        return 1;
    }

    std::vector<std::string> names;
    for (const auto &name : workloads::workloadNames()) {
        if (only.empty() ||
            std::find(only.begin(), only.end(), name) != only.end())
            names.push_back(name);
    }
    if (names.size() != (only.empty() ? names.size() : only.size())) {
        std::cerr << "bench_micro: --workloads names an unknown "
                     "workload (known:";
        for (const auto &name : workloads::workloadNames())
            std::cerr << ' ' << name;
        std::cerr << ")\n";
        return 1;
    }

    const fault::InjectionPolicy &policy =
        fault::resolveInjectionPolicy(fault::UNPROTECTED_POLICY);
    const uint64_t checkpointIntervals[] = {
        0, fault::CampaignRunner::DEFAULT_CHECKPOINT_INTERVAL};

    std::ostringstream out;
    out << "{\"benchmark\":\"campaign\",\"scale\":\"test\","
           "\"records\":[";
    bool first = true;
    for (const auto &name : names) {
        auto workload =
            workloads::createWorkload(name, workloads::Scale::Test);
        auto injectable =
            fault::injectableWithoutProtection(workload->program());
        for (uint64_t interval : checkpointIntervals) {
            std::vector<unsigned> gangWidths = {0};
            if (interval > 0) {
                gangWidths.push_back(8);
                gangWidths.push_back(fault::DEFAULT_GANG_WIDTH);
            }
            for (bool prune : {false, true}) {
                fault::CampaignRunner runner(
                    workload->program(), injectable,
                    sim::MemoryModel::Lenient, interval,
                    policy.resultKinds, policy.bitModel, prune);
                for (unsigned gang : gangWidths) {
                    fault::CampaignConfig config;
                    // Enough trials that a cell runs several
                    // full-width gangs and wall times clear
                    // millisecond noise (48-trial cells finish in a
                    // few ms on the fast path).
                    config.trials = 256;
                    config.errors = 1;
                    config.threads = 1;
                    config.gangWidth = gang;
                    auto started = std::chrono::steady_clock::now();
                    auto result = runner.run(config);
                    std::chrono::duration<double> elapsed =
                        std::chrono::steady_clock::now() - started;
                    double wall = elapsed.count();
                    if (!first)
                        out << ',';
                    first = false;
                    out << "{\"workload\":\"" << name << "\","
                        << "\"policy\":\"" << policy.name << "\","
                        << "\"trials\":" << result.trials << ","
                        << "\"errors\":" << config.errors << ","
                        << "\"completed\":" << result.completed << ","
                        << "\"checkpoint_interval\":" << interval
                        << ","
                        << "\"static_prune\":"
                        << (prune ? "true" : "false") << ","
                        << "\"gang_width\":" << gang << ","
                        << "\"trials_pruned\":" << result.trialsPruned
                        << ","
                        << "\"golden_instructions\":"
                        << runner.goldenInstructions() << ","
                        << "\"wall_s\":" << jsonDouble(wall) << ","
                        << "\"trials_per_sec\":"
                        << jsonDouble(wall > 0.0
                                          ? result.trials / wall
                                          : 0.0)
                        << "}";
                    std::cerr << "bench_micro: " << name << " ckpt="
                              << interval << " prune=" << prune
                              << " gang=" << gang << " "
                              << jsonDouble(wall > 0.0
                                                ? result.trials / wall
                                                : 0.0)
                              << " trials/s (" << result.trialsPruned
                              << " pruned)\n";
                }
            }
        }
    }
    out << "]}\n";

    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) {
        std::cerr << "bench_micro: cannot write " << path << "\n";
        return 1;
    }
    file << out.str();
    return file.good() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut;
    std::string workloadList;
    bool force = false;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json-out" && i + 1 < argc) {
            jsonOut = argv[++i];
        } else if (arg.rfind("--json-out=", 0) == 0) {
            jsonOut = arg.substr(11);
        } else if (arg == "--workloads" && i + 1 < argc) {
            workloadList = argv[++i];
        } else if (arg.rfind("--workloads=", 0) == 0) {
            workloadList = arg.substr(12);
        } else if (arg == "--force") {
            force = true;
        } else {
            rest.push_back(argv[i]);
        }
    }
    if (!jsonOut.empty()) {
        std::vector<std::string> only;
        std::istringstream names(workloadList);
        std::string name;
        while (std::getline(names, name, ','))
            if (!name.empty())
                only.push_back(name);
        return campaignSnapshot(jsonOut, force, only);
    }

    int restc = static_cast<int>(rest.size());
    benchmark::Initialize(&restc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(restc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
