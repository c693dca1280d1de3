#include "sim/simulator.hh"

#include "sim/checkpoint.hh"
#include "sim/semantics.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"

namespace etc::sim {

using namespace isa;

namespace {

/*
 * A retire policy decides, on entering a straight run, how much of it
 * executes counted (count()), and sees every other retire (retire(),
 * which returns true to pause the run). One that never COUNTS steps
 * every instruction without reading the run table.
 */

/**
 * Retire policy: step one instruction at a time and forward every
 * retire to an ExecHook (the Injector oracle, the profiler and the
 * checkpoint recorder see each instruction).
 */
struct HookRetire
{
    static constexpr bool COUNTS = false;

    ExecHook *hook;

    uint32_t count(const StraightRuns::Run &, uint32_t) { return 0; }

    bool
    retire(uint32_t staticIdx, const Instruction &ins, Machine &m,
           Memory &mem)
    {
        hook->onRetire(staticIdx, ins, m, mem);
        return false;
    }
};

/**
 * Retire policy: pause once `left` more injectable instructions have
 * retired (UINT64_MAX: never).
 */
struct Quota
{
    static constexpr bool COUNTS = true;

    const StraightRuns &runs;
    uint64_t left;

    /**
     * Take the injectables of the run at @p pc up front. @return the
     * run's length when the quota outlasts them; otherwise the pause
     * lands on the run's left-th injectable, and the instructions
     * before it are counted (its own retire comes to retire()).
     */
    uint32_t
    count(const StraightRuns::Run &run, uint32_t pc)
    {
        if (left > run.injectable) {
            left -= run.injectable;
            return run.length;
        }
        uint32_t at = pc;
        for (uint64_t seen = 0;; ++at)
            if (runs.injectable(at) && ++seen == left)
                break;
        left = 1;
        return at - pc;
    }

    bool
    retire(uint32_t staticIdx, const Instruction &, Machine &, Memory &)
    {
        return runs.injectable(staticIdx) && --left == 0;
    }
};

} // namespace

StraightRuns::StraightRuns(const assembly::Program &program,
                           const std::vector<bool> &injectable)
    : runs_(program.size()), injectable_(program.size())
{
    if (injectable.size() != program.size())
        panic("StraightRuns: injectable bitmap size mismatch");
    // Backwards, so each PC extends the run of the PC after it; the
    // entry past the end is a run that never reaches a transfer.
    Run next;
    for (size_t pc = program.size(); pc-- > 0;) {
        const Instruction &ins = program.code[pc];
        injectable_[pc] = injectable[pc] ? 1 : 0;
        Run run{1, injectable_[pc]};
        if (!ins.isControl() && ins.op != Opcode::HALT) {
            run.length = next.length == 0 ? 0 : next.length + 1;
            run.injectable += next.injectable;
        }
        runs_[pc] = next = run;
    }
}

Simulator::Simulator(const assembly::Program &program, MemoryModel model)
    : program_(program),
      hookless_(program, std::vector<bool>(program.size())),
      memory_(assembly::DATA_BASE,
              std::max(program.dataEnd, assembly::DATA_BASE), model)
{
    reset();
}

void
Simulator::reset()
{
    memory_.clear();
    memory_.loadData(program_.data);
    output_.clear();
    initMachine();
}

void
Simulator::fastReset()
{
    revertMemoryToStart();
    output_.clear();
    initMachine();
}

void
Simulator::initMachine()
{
    machine_.reset();
    machine_.pc = program_.entry;
    machine_.regs[REG_SP] = assembly::STACK_TOP;
    // A return from the entry function jumps one past the end of code,
    // which run() treats as normal completion.
    machine_.regs[REG_RA] = program_.size();
}

void
Simulator::revertMemoryToStart()
{
    if (memory_.hasBaseline()) {
        memory_.revertToBaseline();
        return;
    }
    memory_.clear();
    memory_.loadData(program_.data);
    memory_.setBaseline();
}

RunResult
Simulator::run(uint64_t maxInstructions, ExecHook *hook)
{
    if (maxInstructions == 0)
        maxInstructions = DEFAULT_BUDGET;
    if (hook) {
        HookRetire policy{hook};
        return runCore(hookless_, maxInstructions, 0, policy);
    }
    Quota policy{hookless_, UINT64_MAX};
    return runCore(hookless_, maxInstructions, 0, policy);
}

RunResult
Simulator::runUntilInjectable(uint64_t count, const StraightRuns &runs,
                              uint64_t maxInstructions,
                              uint64_t instructionsSoFar)
{
    if (maxInstructions == 0)
        maxInstructions = DEFAULT_BUDGET;
    Quota policy{runs, count == 0 ? UINT64_MAX : count};
    return runCore(runs, maxInstructions, instructionsSoFar, policy);
}

void
Simulator::restoreFrom(const Checkpoint &checkpoint,
                       const std::vector<uint8_t> &goldenOutput)
{
    if (checkpoint.outputLength > goldenOutput.size())
        panic("restoreFrom: checkpoint output longer than golden");
    static auto &restores = telemetry::counter(
        "etc_checkpoint_restores_total",
        "Simulator state restores from a golden-run checkpoint");
    static auto &pagesReverted = telemetry::counter(
        "etc_checkpoint_pages_reverted_total",
        "Dirty pages rewound to baseline during checkpoint restores");
    static auto &pagesApplied = telemetry::counter(
        "etc_checkpoint_pages_applied_total",
        "Checkpoint snapshot pages copied in during restores");
    restores.add();
    if (memory_.hasBaseline()) {
        // Pages the checkpoint is about to overwrite need no revert
        // first; checkpoint.pages is sorted by page number.
        std::vector<uint32_t> overwritten;
        overwritten.reserve(checkpoint.pages.size());
        for (const auto &[pageNumber, bytes] : checkpoint.pages)
            overwritten.push_back(pageNumber);
        pagesReverted.add(memory_.revertToBaseline(overwritten));
    } else {
        revertMemoryToStart();
    }
    pagesApplied.add(checkpoint.pages.size());
    for (const auto &[pageNumber, bytes] : checkpoint.pages)
        memory_.setPage(pageNumber, bytes);
    machine_ = checkpoint.machine;
    output_.assign(goldenOutput.begin(),
                   goldenOutput.begin() +
                       static_cast<ptrdiff_t>(checkpoint.outputLength));
}

/*
 * The interpreter: threaded dispatch (GNU C labels-as-values). Every
 * handler ends by jumping straight to the next handler through a label
 * table indexed by opcode, so each opcode gets its own indirect branch
 * and the branch predictor learns per-opcode successor patterns. The
 * value-computing handlers are expanded from the shared semantics
 * lists (sim/semantics.hh); only the ops that touch the PC, the link
 * register, or the output stream are written here.
 *
 * Execution goes by straight runs (see StraightRuns): a run is checked
 * once against the code bounds and the budget, and the retire policy
 * counts as much of it as its quota allows -- all of it, or up to the
 * injectable the next pause lands on. Counted instructions fall
 * through to one another unchecked; only an entry's last instruction
 * reaches the boundary. The hooked policy counts nothing, so it steps,
 * as does a run the budget does not cover or that falls off the end of
 * code. Faults return from the handler, so faultPc is the faulting
 * instruction's own PC; a BadJump reports the control transfer that
 * left the code.
 */

#if !defined(__GNUC__) && !defined(__clang__)
#error "the interpreter needs GNU C labels-as-values (GCC or Clang)"
#endif

// The static index of the instruction in flight. Handlers walk `ins`
// itself; the index is needed only at run boundaries, links and exits.
#define ETC_PC static_cast<uint32_t>(ins - code)

// Every exit. An entry counts all of its instructions up front, so a
// fault inside it gives back the ones past `ins` (none anywhere else:
// there runEnd == ins). A macro, not a lambda: a capture would keep
// the loop's variables in memory.
#define ETC_FINISH(runStatus, pc)                                          \
    do {                                                                   \
        RunResult result;                                                  \
        result.status = (runStatus);                                       \
        result.instructions =                                              \
            instructions - static_cast<uint64_t>(runEnd - ins);            \
        result.faultPc = (pc);                                             \
        return result;                                                     \
    } while (0)

// A handler's fault: the run ends at the faulting instruction.
#define ETC_FAULT(runStatus)                                               \
    do {                                                                   \
        m.pc = ETC_PC;                                                     \
        ETC_FINISH(runStatus, m.pc);                                       \
    } while (0)

// Enter the run at nextPc: completion and bad-jump checks, then one
// budget check for the whole run, after which the policy counts as
// much of it as its quota allows. The entry executes from nextPc to
// runEnd; if the policy did not count runEnd, its retire goes through
// the policy (retireLast). A run the budget does not cover, one that
// falls off the end of code, and every run under a policy that does
// not count, steps: its entry is one instruction, checked against the
// budget. Returns out of runCore on any terminal condition; a bad
// jump reports `ins`, the instruction that retired last.
#define ETC_ENTER_RUN()                                                    \
    do {                                                                   \
        if (nextPc >= codeSize) {                                          \
            m.pc = nextPc;                                                 \
            /* Returning from the entry function lands exactly at */       \
            /* codeSize (see reset()); that is a clean completion. */      \
            if (nextPc == codeSize)                                        \
                ETC_FINISH(RunStatus::Completed, 0);                       \
            ETC_FINISH(RunStatus::BadJump, ETC_PC);                        \
        }                                                                  \
        const StraightRuns::Run run =                                      \
            Policy::COUNTS ? runs[nextPc] : StraightRuns::Run{};           \
        uint32_t entry = 1;                                                \
        retireLast = true;                                                 \
        if (run.length != 0 &&                                             \
            instructions + run.length <= maxInstructions) {                \
            const uint32_t counted = policy.count(run, nextPc);            \
            retireLast = counted != run.length;                            \
            entry = retireLast ? counted + 1 : counted;                    \
        } else if (instructions >= maxInstructions) {                      \
            m.pc = nextPc;                                                 \
            ETC_FINISH(RunStatus::Timeout, nextPc);                        \
        }                                                                  \
        instructions += entry;                                             \
        ins = &code[nextPc];                                               \
        runEnd = ins + (entry - 1);                                        \
        goto *dispatch[static_cast<unsigned>(ins->op)];                    \
    } while (0)

// The boundary after an entry's last instruction. One the policy did
// not count publishes the next PC before the policy sees it, so a
// control transfer's "result" (the PC) is visible and corruptible; a
// counted run keeps the PC to itself until it exits.
#define ETC_RETIRE()                                                       \
    if (retireLast) {                                                      \
        const uint32_t retired = ETC_PC;                                   \
        m.pc = nextPc;                                                     \
        m.retiredPc = retired;                                             \
        if (policy.retire(retired, *ins, m, memory_))                      \
            ETC_FINISH(RunStatus::Paused, retired);                        \
        nextPc = m.pc;                                                     \
    }                                                                      \
    ETC_ENTER_RUN();

// Epilogue of an instruction that falls through: straight on to the
// next one, unless it ends the entry (a counted run ends in a control
// transfer or HALT, so only a partly counted or stepped entry ends
// here).
#define ETC_NEXT                                                           \
    if (ins == runEnd)                                                     \
        goto retire;                                                       \
    ++ins;                                                                 \
    goto *dispatch[static_cast<unsigned>(ins->op)];

// The operands the semantics lists are written over.
#define ETC_OPERANDS                                                       \
    [[maybe_unused]] const uint32_t a = R[ins->rs];                        \
    [[maybe_unused]] const uint32_t b = R[ins->rt];                        \
    [[maybe_unused]] const uint32_t imm =                                  \
        static_cast<uint32_t>(ins->imm);                                   \
    [[maybe_unused]] const uint32_t fcc = R[FP_FLAG_REG];

#define ETC_REGISTER_RESULT(name, expr)                                    \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        if (ins->rd != REG_ZERO)                                           \
            R[ins->rd] = (expr);                                           \
    }                                                                      \
    ETC_NEXT

#define ETC_FLAG_RESULT(name, expr)                                        \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        R[FP_FLAG_REG] = (expr) ? 1 : 0;                                   \
    }                                                                      \
    ETC_NEXT

#define ETC_BRANCH(name, expr)                                             \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        nextPc = (expr) ? ins->target : ETC_PC + 1;                        \
    }                                                                      \
    ETC_RETIRE()

#define ETC_DIVIDE(name, expr)                                             \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        if (b == 0)                                                        \
            ETC_FAULT(RunStatus::DivByZero);                               \
        if (ins->rd != REG_ZERO)                                           \
            R[ins->rd] = (expr);                                           \
    }                                                                      \
    ETC_NEXT

#define ETC_LOAD(name, T, expr)                                            \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        T v{};                                                             \
        if (memory_.read(a + imm, v) != MemStatus::Ok)                     \
            ETC_FAULT(RunStatus::MemoryFault);                             \
        if (ins->rd != REG_ZERO)                                           \
            R[ins->rd] = (expr);                                           \
    }                                                                      \
    ETC_NEXT

#define ETC_STORE(name, T)                                                 \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        if (memory_.write(a + imm, static_cast<T>(R[ins->rd])) !=          \
            MemStatus::Ok)                                                 \
            ETC_FAULT(RunStatus::MemoryFault);                             \
    }                                                                      \
    ETC_NEXT

template <typename Policy>
RunResult
Simulator::runCore(const StraightRuns &runs, uint64_t maxInstructions,
                   uint64_t instructions, Policy policy)
{
    if (runs.size() != program_.size())
        panic("Simulator: straight-run table size mismatch");
    const auto codeSize = program_.size();
    const auto *code = program_.code.data();
    Machine &m = machine_;
    auto &R = m.regs;

    // Until the first retire, `ins` is the instruction that retired
    // before this call (a bad jump right away reports it).
    const Instruction *ins = code + m.retiredPc;
    const Instruction *runEnd = ins; //!< the current entry's last
    uint32_t nextPc = m.pc;
    bool retireLast = true; //!< runEnd's retire goes through the policy

    // One label per opcode, in table order, so Opcode values index
    // the dispatch table directly.
    static const void *const dispatch[] = {
#define ETC_X(mnem, enumName, fmt, cls) &&handle_##enumName,
        ETC_ISA_OPCODE_TABLE(ETC_X)
#undef ETC_X
    };

    ETC_ENTER_RUN();

retire:
    nextPc = ETC_PC + 1;
    ETC_RETIRE()

    ETC_SEM_REGISTER_RESULTS(ETC_REGISTER_RESULT)
    ETC_SEM_FLAG_RESULTS(ETC_FLAG_RESULT)
    ETC_SEM_BRANCHES(ETC_BRANCH)
    ETC_SEM_DIVIDES(ETC_DIVIDE)
    ETC_SEM_LOADS(ETC_LOAD)
    ETC_SEM_STORES(ETC_STORE)

handle_J:
    nextPc = ins->target;
    ETC_RETIRE()
handle_JAL:
    R[REG_RA] = ETC_PC + 1;
    nextPc = ins->target;
    ETC_RETIRE()
handle_JR:
    nextPc = R[ins->rs];
    ETC_RETIRE()
handle_JALR:
    // Link before reading the target: jalr with rd == rs jumps to the
    // link.
    if (ins->rd != REG_ZERO)
        R[ins->rd] = ETC_PC + 1;
    nextPc = R[ins->rs];
    ETC_RETIRE()
handle_NOP:
    ETC_NEXT
handle_HALT:
    // Completion dominates any pause request: a counting policy that
    // reaches its quota here still completes.
    m.pc = m.retiredPc = ETC_PC;
    policy.retire(m.pc, *ins, m, memory_);
    ETC_FINISH(RunStatus::Completed, 0);
handle_OUTB:
    output_.push_back(static_cast<uint8_t>(R[ins->rs]));
    if (output_.size() > OUTPUT_CAP)
        ETC_FAULT(RunStatus::OutputOverflow);
    ETC_NEXT
handle_OUTW: {
    const uint32_t value = R[ins->rs];
    for (int byte = 0; byte < 4; ++byte)
        output_.push_back(static_cast<uint8_t>(value >> (8 * byte)));
    if (output_.size() > OUTPUT_CAP)
        ETC_FAULT(RunStatus::OutputOverflow);
}
    ETC_NEXT
}

#undef ETC_PC
#undef ETC_FINISH
#undef ETC_FAULT
#undef ETC_ENTER_RUN
#undef ETC_RETIRE
#undef ETC_NEXT
#undef ETC_OPERANDS
#undef ETC_REGISTER_RESULT
#undef ETC_FLAG_RESULT
#undef ETC_BRANCH
#undef ETC_DIVIDE
#undef ETC_LOAD
#undef ETC_STORE

} // namespace etc::sim
