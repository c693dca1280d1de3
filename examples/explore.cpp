/**
 * @file
 * explore: a command-line driver over the whole library.
 *
 *   explore <workload> [options]         analyze a built-in workload
 *   explore --asm <file.s> [options]     analyze an assembly file
 *
 * Options:
 *   --disasm          print the tagged disassembly listing
 *   --loops           print the natural-loop report (tagged vs
 *                     protected instructions per loop)
 *   --errors <n>      run a fault-injection cell with n errors
 *   --trials <n>      trials for the campaign cell (default 20)
 *   --unprotected     inject without control protection
 *   --strict-memory   bounds-checked memory instead of lenient
 *   --trace [n]       print the last n retired instructions of a
 *                     fault-free run (default 32)
 *
 * Examples:
 *   ./build/examples/explore susan --loops
 *   ./build/examples/explore mcf --errors 20 --trials 30
 *   ./build/examples/explore --asm my_kernel.s --disasm
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/control_protection.hh"
#include "analysis/dominators.hh"
#include "asm/assembler.hh"
#include "core/study.hh"
#include "sim/tracer.hh"
#include "support/table.hh"
#include "workloads/workload.hh"

using namespace etc;

namespace {

struct Options
{
    std::string workload;
    std::string asmFile;
    bool disasm = false;
    bool loops = false;
    bool unprotected = false;
    bool strictMemory = false;
    unsigned errors = 0;
    unsigned trials = 20;
    bool runCampaign = false;
    unsigned trace = 0;
};

int
usage()
{
    std::cerr << "usage: explore <workload>|--asm <file.s> "
                 "[--disasm] [--loops] [--errors N] [--trials N] "
                 "[--unprotected] [--strict-memory]\n  workloads: ";
    for (const auto &name : workloads::workloadNames())
        std::cerr << name << ' ';
    std::cerr << '\n';
    return 2;
}

void
printLoopReport(const assembly::Program &program,
                const analysis::ProtectionResult &protection)
{
    analysis::FlowGraph graph(program, true);
    analysis::DominatorTree doms(graph, program.entry);
    auto loops = analysis::findNaturalLoops(graph, doms);

    Table table({"loop header", "function", "size", "tagged",
                 "protected ALU"});
    for (const auto &loop : loops) {
        unsigned tagged = 0, protectedAlu = 0;
        for (uint32_t i : loop.body) {
            if (protection.tagged[i])
                ++tagged;
            else if (program.code[i].isAlu())
                ++protectedAlu;
        }
        std::string function = "?";
        if (auto fn = program.functionContaining(loop.header))
            function = program.functions[*fn].name;
        table.addRow({
            std::to_string(loop.header),
            function,
            std::to_string(loop.body.size()),
            std::to_string(tagged),
            std::to_string(protectedAlu),
        });
    }
    std::cout << "\nnatural loops (" << loops.size() << "):\n";
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--asm")
            options.asmFile = next();
        else if (arg == "--disasm")
            options.disasm = true;
        else if (arg == "--loops")
            options.loops = true;
        else if (arg == "--unprotected")
            options.unprotected = true;
        else if (arg == "--strict-memory")
            options.strictMemory = true;
        else if (arg == "--trace")
            options.trace = (i + 1 < argc && argv[i + 1][0] != '-')
                                ? static_cast<unsigned>(
                                      std::stoul(next()))
                                : 32;
        else if (arg == "--errors") {
            options.errors = static_cast<unsigned>(std::stoul(next()));
            options.runCampaign = true;
        } else if (arg == "--trials")
            options.trials = static_cast<unsigned>(std::stoul(next()));
        else if (!arg.empty() && arg[0] != '-' &&
                 options.workload.empty())
            options.workload = arg;
        else
            return usage();
    }
    if (options.workload.empty() == options.asmFile.empty())
        return usage();

    try {
        // Resolve the program + eligibility.
        std::unique_ptr<workloads::Workload> workload;
        assembly::Program assembled;
        const assembly::Program *program = nullptr;
        std::set<std::string> eligible;
        if (!options.workload.empty()) {
            workload = workloads::createWorkload(options.workload);
            program = &workload->program();
            eligible = workload->eligibleFunctions();
        } else {
            std::ifstream in(options.asmFile);
            if (!in) {
                std::cerr << "cannot open " << options.asmFile << '\n';
                return 1;
            }
            std::ostringstream text;
            text << in.rdbuf();
            assembled = assembly::assemble(text.str());
            program = &assembled;
        }

        // Static analysis.
        analysis::ProtectionConfig protectionConfig;
        protectionConfig.eligibleFunctions = eligible;
        auto protection =
            analysis::computeControlProtection(*program,
                                               protectionConfig);
        std::cout << "program: " << program->size()
                  << " instructions, " << program->functions.size()
                  << " functions\n"
                  << "static: " << protection.numTagged << "/"
                  << protection.numAlu
                  << " ALU instructions tagged low-reliability\n";

        if (options.disasm) {
            std::cout << "\ntagged listing (* = low-reliability):\n";
            for (uint32_t i = 0; i < program->size(); ++i)
                std::cout << (protection.tagged[i] ? " * " : "   ")
                          << "[" << i << "] "
                          << program->code[i].toString() << '\n';
        }
        if (options.loops)
            printLoopReport(*program, protection);
        if (options.trace) {
            sim::Simulator simulator(*program);
            sim::Tracer tracer(options.trace);
            auto run = simulator.run(0, &tracer);
            std::cout << "\ntrace (" << run.toString() << "):\n";
            tracer.print(std::cout);
        }

        // Dynamic profile + optional campaign (workloads only -- an
        // .s file has no fidelity scorer).
        if (workload) {
            core::StudyConfig config;
            config.trials = options.trials;
            if (options.strictMemory)
                config.memoryModel = sim::MemoryModel::Strict;
            core::ErrorToleranceStudy study(*workload, config);
            std::cout << "\ndynamic: "
                      << study.goldenInstructions() << " instructions, "
                      << formatPercent(study.profile().taggedFraction())
                      << " tagged (low-reliability)\n";
            if (options.runCampaign) {
                auto policy = options.unprotected
                                  ? fault::UNPROTECTED_POLICY
                                  : fault::PROTECTED_POLICY;
                auto cell = study.runCell(options.errors, policy);
                std::cout << "\ncampaign: " << options.errors
                          << " errors x " << cell.trials << " trials ("
                          << (options.unprotected ? "unprotected"
                                                  : "protected")
                          << ")\n  completed " << cell.completed
                          << ", crashed " << cell.crashed
                          << ", timed out " << cell.timedOut << " ("
                          << formatPercent(cell.failureRate())
                          << " catastrophic)\n";
                if (!cell.fidelities.empty()) {
                    std::cout << "  mean fidelity "
                              << formatDouble(cell.meanFidelity()) << ' '
                              << cell.fidelities.front().unit << ", "
                              << formatPercent(cell.acceptableRate())
                              << " of trials acceptable\n";
                }
            }
        }
    } catch (const std::exception &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
