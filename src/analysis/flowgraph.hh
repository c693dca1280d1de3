/**
 * @file
 * Instruction-level control-flow graph over a whole Program, with
 * optional interprocedural edges.
 *
 * Interprocedural mode wires `jal f` to f's entry and `jr $ra` to every
 * return site of the enclosing function (the instruction following each
 * call of it). That realizes the paper's requirement that the CVar
 * analysis "cross basic block boundaries and even procedure
 * boundaries" with a context-insensitive summary-free formulation.
 *
 * In intraprocedural mode a call is treated as falling through to its
 * return site and `jr` as a program exit.
 *
 * `jr` through anything is treated as a return of the enclosing
 * function; the workload kernels use `jr` only for returns (documented
 * ISA discipline).
 */

#ifndef ETC_ANALYSIS_FLOWGRAPH_HH
#define ETC_ANALYSIS_FLOWGRAPH_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "asm/program.hh"

namespace etc::analysis {

/**
 * Successor/predecessor relation over instruction indices, plus the
 * basic-block partition derived from it.
 */
class FlowGraph
{
  public:
    /**
     * Build the graph.
     *
     * @param program         the assembled program
     * @param interprocedural wire call/return edges across functions
     */
    FlowGraph(const assembly::Program &program, bool interprocedural);

    /** @return successor instruction indices of instruction @p idx. */
    const std::vector<uint32_t> &
    successors(uint32_t idx) const
    {
        return succs_[idx];
    }

    /** @return predecessor instruction indices of instruction @p idx. */
    const std::vector<uint32_t> &
    predecessors(uint32_t idx) const
    {
        return preds_[idx];
    }

    /** Half-open ranges of the basic-block partition, sorted. */
    struct Block
    {
        uint32_t begin;
        uint32_t end;
    };

    /** @return the basic blocks (leaders computed from the edges). */
    const std::vector<Block> &blocks() const { return blocks_; }

    /** @return index into blocks() of the block holding @p idx. */
    uint32_t blockOf(uint32_t idx) const { return blockOf_[idx]; }

    /** @return the number of instructions (graph nodes). */
    uint32_t size() const { return static_cast<uint32_t>(succs_.size()); }

    /** @return whether interprocedural edges were built. */
    bool interprocedural() const { return interprocedural_; }

  private:
    bool interprocedural_;
    std::vector<std::vector<uint32_t>> succs_;
    std::vector<std::vector<uint32_t>> preds_;
    std::vector<Block> blocks_;
    std::vector<uint32_t> blockOf_;
};

/**
 * Run a backward dataflow problem over @p graph to its fixpoint. A
 * FIFO worklist, seeded with every instruction in reverse order
 * (backward problems converge fastest that way), visits instruction i
 * with @p step(i): it recomputes i's out set from its successors' in
 * sets and its in set from that, and returns whether the in set
 * changed, which re-queues i's predecessors.
 *
 * @return the number of visits
 */
template <typename Step>
unsigned
solveBackward(const FlowGraph &graph, Step &&step)
{
    std::deque<uint32_t> worklist;
    std::vector<bool> queued(graph.size(), true);
    for (uint32_t i = graph.size(); i-- > 0;)
        worklist.push_back(i);
    unsigned visits = 0;
    while (!worklist.empty()) {
        uint32_t i = worklist.front();
        worklist.pop_front();
        queued[i] = false;
        ++visits;
        if (!step(i))
            continue;
        for (uint32_t p : graph.predecessors(i)) {
            if (!queued[p]) {
                queued[p] = true;
                worklist.push_back(p);
            }
        }
    }
    return visits;
}

} // namespace etc::analysis

#endif // ETC_ANALYSIS_FLOWGRAPH_HH
