#include "sim/simulator.hh"

#include "sim/checkpoint.hh"
#include "sim/semantics.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"

namespace etc::sim {

using namespace isa;

namespace {

/** Retire policy: forward every retire to an ExecHook (classic path). */
struct HookRetire
{
    ExecHook *hook;

    bool
    operator()(uint32_t staticIdx, const Instruction &ins, Machine &m,
               Memory &mem)
    {
        hook->onRetire(staticIdx, ins, m, mem);
        return false;
    }
};

/** Retire policy: do nothing (plain hookless execution). */
struct NoRetire
{
    bool
    operator()(uint32_t, const Instruction &, Machine &, Memory &)
    {
        return false;
    }
};

/** Retire policy: pause after N injectable instructions retire. */
struct CountInjectable
{
    const uint8_t *injectable;
    uint64_t remaining;

    bool
    operator()(uint32_t staticIdx, const Instruction &, Machine &,
               Memory &)
    {
        return injectable[staticIdx] && --remaining == 0;
    }
};

} // namespace

ByteMask
toByteMask(const std::vector<bool> &bits)
{
    ByteMask mask(bits.size());
    for (size_t i = 0; i < bits.size(); ++i)
        mask[i] = bits[i] ? 1 : 0;
    return mask;
}

Simulator::Simulator(const assembly::Program &program, MemoryModel model)
    : program_(program),
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
        return runCore(maxInstructions, 0, policy);
    }
    NoRetire policy;
    return runCore(maxInstructions, 0, policy);
}

RunResult
Simulator::runUntilInjectable(uint64_t count,
                              const ByteMask &injectable,
                              uint64_t maxInstructions,
                              uint64_t instructionsSoFar)
{
    if (maxInstructions == 0)
        maxInstructions = DEFAULT_BUDGET;
    if (injectable.size() != program_.size())
        panic("runUntilInjectable: injectable bitmap size mismatch");
    if (count == 0) {
        NoRetire policy;
        return runCore(maxInstructions, instructionsSoFar, policy);
    }
    CountInjectable policy{injectable.data(), count};
    return runCore(maxInstructions, instructionsSoFar, policy);
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
 * handler ends by retiring its instruction and jumping straight to the
 * next handler through a label table indexed by opcode, so each opcode
 * gets its own indirect branch and the branch predictor learns
 * per-opcode successor patterns. The value-computing handlers are
 * expanded from the shared semantics lists (sim/semantics.hh); only
 * the ops that touch the PC, the link register, or the output stream
 * are written here.
 *
 * Every handler retires identically: prologue (PC bounds, budget,
 * fetch) -> execute -> epilogue (publish next PC, run the retire
 * policy). Faults return before the epilogue, so faultPc is the
 * faulting instruction's own PC.
 */

#if !defined(__GNUC__) && !defined(__clang__)
#error "the interpreter needs GNU C labels-as-values (GCC or Clang)"
#endif

// Prologue: completion/bad-jump/budget checks, then fetch and jump to
// the handler. Returns out of runCore on any terminal condition.
#define ETC_DISPATCH()                                                     \
    do {                                                                   \
        if (m.pc >= codeSize) {                                            \
            /* Returning from the entry function lands exactly at */       \
            /* codeSize (see reset()); that is a clean completion. */      \
            if (m.pc == codeSize) {                                        \
                result.status = RunStatus::Completed;                      \
                return result;                                             \
            }                                                              \
            return fault(RunStatus::BadJump);                              \
        }                                                                  \
        if (result.instructions >= maxInstructions)                        \
            return fault(RunStatus::Timeout);                              \
        ins = &code[m.pc];                                                 \
        thisPc = m.pc;                                                     \
        nextPc = m.pc + 1;                                                 \
        ++result.instructions;                                             \
        goto *dispatch[static_cast<unsigned>(ins->op)];                    \
    } while (0)

// Epilogue: publish the next PC before the retire policy so a control
// transfer's "result" (the PC) is visible and corruptible.
#define ETC_NEXT                                                           \
    m.pc = nextPc;                                                         \
    if (policy(thisPc, *ins, m, memory_)) {                                \
        result.status = RunStatus::Paused;                                 \
        result.faultPc = thisPc;                                           \
        return result;                                                     \
    }                                                                      \
    ETC_DISPATCH();

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
        if (expr)                                                          \
            nextPc = ins->target;                                          \
    }                                                                      \
    ETC_NEXT

#define ETC_DIVIDE(name, expr)                                             \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        if (b == 0)                                                        \
            return fault(RunStatus::DivByZero);                            \
        if (ins->rd != REG_ZERO)                                           \
            R[ins->rd] = (expr);                                           \
    }                                                                      \
    ETC_NEXT

#define ETC_LOAD(name, T, expr)                                            \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        T v{};                                                             \
        if (memory_.read(a + imm, v) != MemStatus::Ok)                     \
            return fault(RunStatus::MemoryFault);                          \
        if (ins->rd != REG_ZERO)                                           \
            R[ins->rd] = (expr);                                           \
    }                                                                      \
    ETC_NEXT

#define ETC_STORE(name, T)                                                 \
    handle_##name : {                                                      \
        ETC_OPERANDS                                                       \
        if (memory_.write(a + imm, static_cast<T>(R[ins->rd])) !=          \
            MemStatus::Ok)                                                 \
            return fault(RunStatus::MemoryFault);                          \
    }                                                                      \
    ETC_NEXT

template <typename Policy>
RunResult
Simulator::runCore(uint64_t maxInstructions, uint64_t baseInstructions,
                   Policy &policy)
{
    RunResult result;
    result.instructions = baseInstructions;
    const auto codeSize = program_.size();
    const auto *code = program_.code.data();
    Machine &m = machine_;
    auto &R = m.regs;

    const Instruction *ins = nullptr;
    uint32_t thisPc = 0;
    uint32_t nextPc = 0;

    auto fault = [&](RunStatus status) {
        result.status = status;
        result.faultPc = m.pc;
        return result;
    };

    // One label per opcode, in table order, so Opcode values index
    // the dispatch table directly.
    static const void *const dispatch[] = {
#define ETC_X(mnem, enumName, fmt, cls) &&handle_##enumName,
        ETC_ISA_OPCODE_TABLE(ETC_X)
#undef ETC_X
    };

    ETC_DISPATCH();

    ETC_SEM_REGISTER_RESULTS(ETC_REGISTER_RESULT)
    ETC_SEM_FLAG_RESULTS(ETC_FLAG_RESULT)
    ETC_SEM_BRANCHES(ETC_BRANCH)
    ETC_SEM_DIVIDES(ETC_DIVIDE)
    ETC_SEM_LOADS(ETC_LOAD)
    ETC_SEM_STORES(ETC_STORE)

handle_J:
    nextPc = ins->target;
    ETC_NEXT
handle_JAL:
    R[REG_RA] = thisPc + 1;
    nextPc = ins->target;
    ETC_NEXT
handle_JR:
    nextPc = R[ins->rs];
    ETC_NEXT
handle_JALR:
    // Link before reading the target: jalr with rd == rs jumps to the
    // link.
    if (ins->rd != REG_ZERO)
        R[ins->rd] = thisPc + 1;
    nextPc = R[ins->rs];
    ETC_NEXT
handle_NOP:
    ETC_NEXT
handle_HALT:
    // Completion dominates any pause request (HALT is never
    // injectable, so a counting policy cannot pause here).
    policy(thisPc, *ins, m, memory_);
    result.status = RunStatus::Completed;
    return result;
handle_OUTB:
    output_.push_back(static_cast<uint8_t>(R[ins->rs]));
    if (output_.size() > OUTPUT_CAP)
        return fault(RunStatus::OutputOverflow);
    ETC_NEXT
handle_OUTW: {
    const uint32_t value = R[ins->rs];
    for (int byte = 0; byte < 4; ++byte)
        output_.push_back(static_cast<uint8_t>(value >> (8 * byte)));
    if (output_.size() > OUTPUT_CAP)
        return fault(RunStatus::OutputOverflow);
}
    ETC_NEXT
}

#undef ETC_DISPATCH
#undef ETC_NEXT
#undef ETC_OPERANDS
#undef ETC_REGISTER_RESULT
#undef ETC_FLAG_RESULT
#undef ETC_BRANCH
#undef ETC_DIVIDE
#undef ETC_LOAD
#undef ETC_STORE

} // namespace etc::sim
