/**
 * @file
 * The functional simulator: executes a Program on a Machine + Memory,
 * classifying every abnormal event as a RunStatus.
 *
 * There is deliberately no timing model -- the paper's methodology is
 * functional simulation (SimpleScalar) with visibility of each dynamic
 * result. A single retire hook gives the fault injector and the
 * profiler access to every instruction's destination value right after
 * writeback, which is exactly the paper's injection point ("we flip a
 * bit in the result of an instruction").
 */

#ifndef ETC_SIM_SIMULATOR_HH
#define ETC_SIM_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "asm/program.hh"
#include "sim/machine.hh"
#include "sim/memory.hh"
#include "sim/outcome.hh"

namespace etc::sim {

struct Checkpoint;

/**
 * The straight runs of one program under one injectable mask. A
 * straight run is the stretch from a PC up to and including the next
 * control transfer (branch, jump or call) or HALT. The interpreters
 * check the PC bounds, the instruction budget and the injectable quota
 * once per run against this table instead of once per instruction
 * (QEMU's icount mode counts per translation block the same way).
 * Every PC has an entry, because a fault can land in the middle of a
 * run. Build one per program and mask: a CampaignRunner holds one.
 */
class StraightRuns
{
  public:
    struct Run
    {
        /** Instructions from this PC through the run's control
         *  transfer or HALT; 0 where the run falls off the end of
         *  code. */
        uint32_t length = 0;
        /** How many of those instructions are injectable. */
        uint32_t injectable = 0;
    };

    /** @param injectable per-instruction mask, one entry per
     *                    instruction of @p program */
    StraightRuns(const assembly::Program &program,
                 const std::vector<bool> &injectable);

    const Run &operator[](uint32_t pc) const { return runs_[pc]; }

    /** @return 1 if the instruction at @p pc is injectable, else 0. */
    uint32_t injectable(uint32_t pc) const { return injectable_[pc]; }

    size_t size() const { return runs_.size(); }

  private:
    std::vector<Run> runs_;
    std::vector<uint8_t> injectable_;
};

/**
 * Observer invoked after each retired instruction. Implementations may
 * mutate the machine and memory (that is how faults are injected).
 *
 * The hook runs after writeback AND after the PC update, so
 * machine.pc already holds the *result* of a control transfer --
 * flipping it models a corrupted branch outcome, the paper's
 * unprotected-control failure mode.
 */
class ExecHook
{
  public:
    virtual ~ExecHook() = default;

    /**
     * Called once per retired instruction.
     *
     * @param staticIdx the instruction's index in the program
     * @param ins       the retired instruction
     * @param machine   mutable architectural state (pc = next pc)
     * @param memory    mutable memory (stored results live here)
     */
    virtual void onRetire(uint32_t staticIdx, const isa::Instruction &ins,
                          Machine &machine, Memory &memory) = 0;
};

/**
 * Functional executor for one Program. reset() + run() may be called
 * repeatedly; each reset reloads the initial data image.
 */
class Simulator
{
  public:
    /** Output-stream cap; exceeding it ends the run (runaway loop). */
    static constexpr size_t OUTPUT_CAP = 1u << 24;

    /** Default instruction budget if run() is called with 0. */
    static constexpr uint64_t DEFAULT_BUDGET = 1ull << 32;

    /**
     * @param program the program to execute (not owned)
     * @param model   out-of-region memory policy (see memory.hh)
     */
    explicit Simulator(const assembly::Program &program,
                       MemoryModel model = MemoryModel::Lenient);

    /** Reload data, zero registers, point PC at the entry. */
    void reset();

    /**
     * Behaviourally identical to reset(), but memory rewinds via its
     * baseline snapshot (established on first use): O(pages the
     * previous run touched) instead of a full zero + data reload. The
     * per-trial reset of the campaign fast path.
     */
    void fastReset();

    /**
     * Execute until HALT, a fault, or the budget runs out.
     *
     * Without a hook the interpreter executes whole straight runs
     * (over a table of the program with nothing injectable); with one
     * it steps one instruction at a time and calls the hook after
     * each. The architectural behaviour is identical either way.
     *
     * @param maxInstructions dynamic-instruction budget (0 = default)
     * @param hook            optional retire observer (may be null)
     */
    RunResult run(uint64_t maxInstructions = 0, ExecHook *hook = nullptr);

    /**
     * Hookless fast path for checkpointed fault-injection trials:
     * resume from the current machine state and execute until @p count
     * more *injectable* instructions (per @p runs) have retired, or
     * the program ends.
     *
     * Once the budget covers a straight run, the run executes with no
     * per-instruction checks up to its control transfer, or up to the
     * injectable the pause lands on; a run the budget does not cover
     * steps one instruction at a time. So a pause or a timeout lands
     * on exactly the instruction it would without the table, and a
     * fault inside a run reports its exact instruction count.
     *
     * When the quota is reached the result's status is
     * RunStatus::Paused and its faultPc holds the static index of the
     * just-retired injectable instruction (writeback and PC update
     * already applied), which is exactly the state an ExecHook would
     * observe -- the caller applies the bit flip and calls again.
     * @p count == 0 means "no quota": run to completion.
     *
     * The returned instruction count *includes* @p instructionsSoFar,
     * and the @p maxInstructions timeout applies to that total, so a
     * trial resumed from a checkpoint times out at exactly the same
     * dynamic instruction as an uncheckpointed one.
     *
     * @param count            injectable retires before pausing (0 = none)
     * @param runs             the program's straight runs under the
     *                         campaign's injectable mask
     * @param maxInstructions  total dynamic budget (0 = default)
     * @param instructionsSoFar instructions already accounted to this
     *                          run (from a restored checkpoint or a
     *                          previous pause)
     */
    RunResult runUntilInjectable(uint64_t count, const StraightRuns &runs,
                                 uint64_t maxInstructions = 0,
                                 uint64_t instructionsSoFar = 0);

    /**
     * Restore the machine, memory, and output stream captured in
     * @p checkpoint, as if the program had just executed its first
     * checkpoint.instructions instructions fault-free.
     *
     * @param checkpoint   a checkpoint recorded from *this program*
     * @param goldenOutput the fault-free output stream (the restored
     *                     output is its first outputLength bytes)
     */
    void restoreFrom(const Checkpoint &checkpoint,
                     const std::vector<uint8_t> &goldenOutput);

    Machine &machine() { return machine_; }
    const Machine &machine() const { return machine_; }
    Memory &memory() { return memory_; }
    const assembly::Program &program() const { return program_; }

    /** Bytes emitted through outb/outw during the last run(s). */
    const std::vector<uint8_t> &output() const { return output_; }

    /**
     * Append raw bytes to the output stream. Used when rehydrating a
     * gang lane for its scalar drain: restoreFrom() rebuilds the
     * checkpoint's output prefix and this appends the tail the lane
     * emitted inside the gang.
     */
    void
    appendOutput(const std::vector<uint8_t> &bytes)
    {
        output_.insert(output_.end(), bytes.begin(), bytes.end());
    }

  private:
    /**
     * The interpreter loop, templated on a retire policy so the
     * per-retire callback inlines away: the hooked instantiation
     * steps every instruction and dispatches to an ExecHook, the
     * quota one executes straight runs up to the next pause and steps
     * only where the budget ends inside a run (see
     * runUntilInjectable).
     */
    template <typename Policy>
    RunResult runCore(const StraightRuns &runs, uint64_t maxInstructions,
                      uint64_t instructions, Policy policy);

    /** Rewind memory to the post-reset image (cheaply if possible). */
    void revertMemoryToStart();

    /** Zero registers, point PC at the entry, init $sp/$ra. */
    void initMachine();

    const assembly::Program &program_;
    /** The program's runs with nothing injectable, for run(). */
    StraightRuns hookless_;
    Machine machine_;
    Memory memory_;
    std::vector<uint8_t> output_;
};

} // namespace etc::sim

#endif // ETC_SIM_SIMULATOR_HH
