#include "analysis/control_protection.hh"

#include "support/logging.hh"

namespace etc::analysis {

using namespace isa;

namespace {

/**
 * The CVar transfer function: compute the set before instruction
 * @p ins given the set @p out after it.
 */
LocSet
transfer(const Instruction &ins, const LocSet &out,
         const ProtectionConfig &config)
{
    LocSet in = out;

    // An instruction defining a location in CVar removes it and adds
    // the locations used to compute it.
    bool defWasControl = false;
    if (auto def = ins.def(); def && out.test(*def)) {
        defWasControl = true;
        in.reset(*def);
    }
    auto addUses = [&] {
        for (RegId use : ins.uses())
            if (use != REG_ZERO)
                in.set(use);
    };
    if (defWasControl)
        addUses();

    // Instructions that directly influence control flow add their
    // operands: conditional branches, returns/indirect jumps (jr), and
    // indirect calls (jalr) -- a corrupted target is a control error.
    if (ins.isConditionalBranch() || ins.op == Opcode::JR ||
        ins.op == Opcode::JALR) {
        addUses();
    }

    // Optionally treat address operands as control-like: a corrupted
    // address turns a data access into a wild access.
    if (config.protectAddresses) {
        if (auto base = ins.addressUse(); base && *base != REG_ZERO)
            in.set(*base);
    }

    // Optional conservative memory tracking through one pseudo-
    // location. The paper performs no memory disambiguation, so this
    // defaults off (see ProtectionConfig).
    if (config.trackMemory) {
        if (ins.isLoad() && defWasControl) {
            // The loaded value influences control; any store could
            // have produced it.
            in.set(MEM_LOC);
        }
        if (ins.isStore() && out.test(MEM_LOC)) {
            // This store may feed a control-relevant load.
            if (ins.rd != REG_ZERO)
                in.set(ins.rd); // stored value
            if (ins.rs != REG_ZERO)
                in.set(ins.rs); // address selects the location
        }
    }
    return in;
}

} // namespace

ProtectionResult
computeControlProtection(const assembly::Program &program,
                         const FlowGraph &graph,
                         const ProtectionConfig &config)
{
    if (graph.interprocedural() != config.interprocedural)
        panic("computeControlProtection: FlowGraph built with "
              "interprocedural=", graph.interprocedural(),
              " but config wants ", config.interprocedural);

    const uint32_t n = program.size();
    ProtectionResult result;
    result.cvarIn.resize(n);
    result.cvarOut.resize(n);
    result.tagged.assign(n, false);

    result.iterations = solveBackward(graph, [&](uint32_t i) {
        LocSet out;
        for (uint32_t s : graph.successors(i))
            out |= result.cvarIn[s];
        result.cvarOut[i] = out;

        LocSet in = transfer(program.code[i], out, config);
        bool changed = in != result.cvarIn[i];
        result.cvarIn[i] = in;
        return changed;
    });

    // Tag pass: an ALU instruction whose destination is not in CVar at
    // its program point is low-reliability -- if its function is
    // eligible for tagging at all.
    std::vector<bool> eligible(n, config.eligibleFunctions.empty());
    if (!config.eligibleFunctions.empty()) {
        for (const auto &fn : program.functions) {
            if (config.eligibleFunctions.count(fn.name))
                for (uint32_t i = fn.begin; i < fn.end; ++i)
                    eligible[i] = true;
        }
    }

    for (uint32_t i = 0; i < n; ++i) {
        const auto &ins = program.code[i];
        if (!ins.isAlu())
            continue;
        ++result.numAlu;
        auto def = ins.def();
        if (!def)
            continue;
        if (!result.cvarOut[i].test(*def) && eligible[i]) {
            result.tagged[i] = true;
            ++result.numTagged;
        }
    }
    return result;
}

ProtectionResult
computeControlProtection(const assembly::Program &program,
                         const ProtectionConfig &config)
{
    FlowGraph graph(program, config.interprocedural);
    return computeControlProtection(program, graph, config);
}

} // namespace etc::analysis
