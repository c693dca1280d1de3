#include "analysis/liveness.hh"

namespace etc::analysis {

using namespace isa;

LivenessResult
computeLiveness(const assembly::Program &program, const FlowGraph &graph)
{
    const uint32_t n = program.size();
    LivenessResult result;
    result.liveIn.resize(n);
    result.liveOut.resize(n);

    solveBackward(graph, [&](uint32_t i) {
        LocSet out;
        for (uint32_t s : graph.successors(i))
            out |= result.liveIn[s];
        result.liveOut[i] = out;

        LocSet in = out;
        const auto &ins = program.code[i];
        if (auto def = ins.def())
            in.reset(*def);
        for (RegId use : ins.uses())
            if (use != REG_ZERO)
                in.set(use);

        bool changed = in != result.liveIn[i];
        result.liveIn[i] = in;
        return changed;
    });
    return result;
}

} // namespace etc::analysis
