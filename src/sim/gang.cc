#include "sim/gang.hh"

#include <algorithm>
#include <cstring>

#include "sim/semantics.hh"
#include "support/logging.hh"

namespace etc::sim {

using namespace isa;

GangSimulator::GangSimulator(const assembly::Program &program,
                             MemoryModel model, unsigned maxWidth)
    : program_(program), model_(model), width_(maxWidth),
      stride_(maxWidth + 1)
{
    if (maxWidth == 0 || maxWidth > MAX_LANES)
        panic("GangSimulator: bad width ", maxWidth);
    regs_.assign(size_t{NUM_REGS} * stride_, 0);
    lanePc_.assign(stride_, 0);
    outputs_.resize(stride_);
    laneState_.assign(width_, LaneState::Exited);
    execList_.reserve(stride_);
    touched_.reserve(width_);
}

void
GangSimulator::reset(const Machine &machine, const Memory &base,
                     unsigned lanes, uint64_t instructions,
                     uint64_t injectableRetired,
                     size_t outputPrefixLength)
{
    if (lanes == 0 || lanes > width_)
        panic("GangSimulator: bad lane count ", lanes, " (width ",
              width_, ")");
    lanes_ = lanes;

    dataBase_ = base.dataBase();
    dataLimit_ = base.dataLimit();
    stackBase_ = base.stackBase();
    stackLimit_ = base.stackLimit();
    dataFirstPage_ = dataBase_ >> Memory::PAGE_BITS;
    stackFirstPage_ = stackBase_ >> Memory::PAGE_BITS;
    dataPageCount_ = ((dataLimit_ - 1) >> Memory::PAGE_BITS) -
                     dataFirstPage_ + 1;
    unsigned stackPageCount = ((stackLimit_ - 1) >> Memory::PAGE_BITS) -
                              stackFirstPage_ + 1;
    pageCount_ = dataPageCount_ + stackPageCount;

    baseTable_.resize(pageCount_);
    for (unsigned i = 0; i < pageCount_; ++i)
        baseTable_[i] = base.pageData(flatPageNumber(i));

    // Only the golden slot's table is built here; trial lanes get
    // theirs lazily when they materialize.
    tables_.assign(size_t{stride_} * pageCount_, nullptr);
    own_.assign(size_t{stride_} * pageCount_, 0);
    freePages_.clear();
    freePages_.reserve(pageStorage_.size());
    for (auto &page : pageStorage_)
        freePages_.push_back(page.get());

    const unsigned g = width_;
    for (unsigned r = 0; r < NUM_REGS; ++r)
        reg(g, r) = machine.regs[r];
    lanePc_[g] = machine.pc;
    // Base pages are never written through the table (writes go
    // through pageForWrite, which clones un-owned pages first).
    for (unsigned i = 0; i < pageCount_; ++i)
        tables_[size_t{g} * pageCount_ + i] =
            const_cast<uint8_t *>(baseTable_[i]);
    for (auto &out : outputs_)
        out.clear();

    laneState_.assign(width_, LaneState::Exited);
    for (unsigned l = 0; l < lanes_; ++l)
        laneState_[l] = LaneState::Alias;
    aliasCount_ = lanes_;
    goldenLive_ = true;
    execList_.clear();
    execList_.push_back(static_cast<uint8_t>(g));

    pc_ = machine.pc;
    retiredPc_ = machine.retiredPc;
    instructions_ = instructions;
    injectableRetired_ = injectableRetired;
    outputPrefix_ = outputPrefixLength;
    pausePending_ = false;
    lastStepControl_ = false;
    touched_.clear();
    exits_.clear();
}

uint8_t *
GangSimulator::allocPage()
{
    if (freePages_.empty()) {
        pageStorage_.push_back(
            std::make_unique<uint8_t[]>(Memory::PAGE_SIZE));
        freePages_.push_back(pageStorage_.back().get());
    }
    uint8_t *page = freePages_.back();
    freePages_.pop_back();
    return page;
}

uint8_t *
GangSimulator::clonePage(size_t at)
{
    uint8_t *fresh = allocPage();
    if (tables_[at])
        std::memcpy(fresh, tables_[at], Memory::PAGE_SIZE);
    else
        std::memset(fresh, 0, Memory::PAGE_SIZE);
    tables_[at] = fresh;
    own_[at] = 1;
    return fresh;
}

void
GangSimulator::materialize(unsigned lane)
{
    const unsigned g = width_;
    for (unsigned r = 0; r < NUM_REGS; ++r)
        reg(lane, r) = reg(g, r);
    // The lane's next PC is the pack's: after a control step that is
    // golden's computed target, otherwise the shared advanced PC.
    lanePc_[lane] = lastStepControl_ ? lanePc_[g] : pc_;
    // Fork the page table: every page becomes shared, so ownership
    // clears on BOTH sides (the next writer clones again).
    std::memcpy(&tables_[size_t{lane} * pageCount_],
                &tables_[size_t{g} * pageCount_],
                size_t{pageCount_} * sizeof(uint8_t *));
    std::memset(&own_[size_t{lane} * pageCount_], 0, pageCount_);
    std::memset(&own_[size_t{g} * pageCount_], 0, pageCount_);
    outputs_[lane] = outputs_[g];
    laneState_[lane] = LaneState::Active;
    execList_.insert(std::lower_bound(execList_.begin(), execList_.end(),
                                      static_cast<uint8_t>(lane)),
                     static_cast<uint8_t>(lane));
    --aliasCount_;
}

GangSimulator::LaneMachine
GangSimulator::laneMachine(unsigned lane)
{
    if (lane >= lanes_ || laneState_[lane] == LaneState::Exited)
        panic("GangSimulator::laneMachine: lane ", lane,
              " not in gang");
    if (laneState_[lane] == LaneState::Alias)
        materialize(lane);
    else if (!lastStepControl_)
        lanePc_[lane] = pc_; // refresh the (stale) per-lane slot
    touched_.push_back(static_cast<uint8_t>(lane));
    return LaneMachine(*this, lane, lanePc_[lane]);
}

GangSimulator::LaneMemory
GangSimulator::laneMemory(unsigned lane)
{
    if (lane >= lanes_ || laneState_[lane] == LaneState::Exited)
        panic("GangSimulator::laneMemory: lane ", lane, " not in gang");
    if (laneState_[lane] == LaneState::Alias)
        materialize(lane);
    return LaneMemory(*this, lane);
}

void
GangSimulator::removeFromExec(unsigned slot)
{
    execList_.erase(std::find(execList_.begin(), execList_.end(),
                              static_cast<uint8_t>(slot)));
}

void
GangSimulator::evictDiverged(unsigned lane)
{
    LaneExit exit;
    exit.lane = lane;
    exit.kind = ExitKind::Diverged;
    for (unsigned r = 0; r < NUM_REGS; ++r)
        exit.machine.regs[r] = reg(lane, r);
    exit.machine.pc = lanePc_[lane];
    exit.machine.retiredPc = retiredPc_;
    for (unsigned i = 0; i < pageCount_; ++i) {
        const uint8_t *page = tables_[size_t{lane} * pageCount_ + i];
        if (page != baseTable_[i])
            exit.pages.emplace_back(flatPageNumber(i), page);
    }
    exit.outputTail = std::move(outputs_[lane]);
    exit.instructions = instructions_;
    exit.injectableRetired = injectableRetired_;
    exits_.push_back(std::move(exit));
    laneState_[lane] = LaneState::Exited;
    removeFromExec(lane);
}

void
GangSimulator::exitFinished(unsigned lane, RunStatus status,
                            uint32_t faultPc, uint64_t instructions,
                            uint64_t injectableRetired)
{
    bool wasAlias = laneState_[lane] == LaneState::Alias;
    LaneExit exit;
    exit.lane = lane;
    exit.kind = ExitKind::Finished;
    exit.run.status = status;
    exit.run.instructions = instructions;
    exit.run.faultPc = faultPc;
    if (status == RunStatus::Completed)
        exit.outputTail = wasAlias ? outputs_[width_]
                                   : std::move(outputs_[lane]);
    exit.instructions = instructions;
    exit.injectableRetired = injectableRetired;
    exits_.push_back(std::move(exit));
    laneState_[lane] = LaneState::Exited;
    if (wasAlias)
        --aliasCount_;
    else
        removeFromExec(lane);
}

void
GangSimulator::finishAll(RunStatus status, uint32_t faultPc)
{
    for (unsigned l = 0; l < lanes_; ++l)
        if (laneState_[l] != LaneState::Exited)
            exitFinished(l, status, faultPc, instructions_,
                         injectableRetired_);
    goldenLive_ = false;
    execList_.clear();
}

void
GangSimulator::maybeDropGolden()
{
    if (goldenLive_ && aliasCount_ == 0) {
        goldenLive_ = false;
        removeFromExec(width_);
    }
}

void
GangSimulator::reconcile()
{
    uint32_t pack;
    if (goldenLive_) {
        // While golden rides along (aliases exist), the pack follows
        // the golden path by definition.
        pack = lanePc_[width_];
    } else {
        // Fast path: everyone agrees (the overwhelmingly common case).
        bool any = false, uniform = true;
        uint32_t first = 0;
        for (unsigned l = 0; l < lanes_; ++l) {
            if (laneState_[l] != LaneState::Active)
                continue;
            if (!any) {
                first = lanePc_[l];
                any = true;
            } else if (lanePc_[l] != first) {
                uniform = false;
                break;
            }
        }
        if (!any)
            return;
        if (uniform) {
            pc_ = first;
            return;
        }
        // Majority next PC; ties break to the PC first seen scanning
        // lanes in ascending index order (deterministic regardless of
        // materialization order).
        pack = first;
        unsigned best = 0;
        for (unsigned l = 0; l < lanes_; ++l) {
            if (laneState_[l] != LaneState::Active)
                continue;
            unsigned votes = 0;
            for (unsigned m = 0; m < lanes_; ++m)
                if (laneState_[m] == LaneState::Active &&
                    lanePc_[m] == lanePc_[l])
                    ++votes;
            if (votes > best) {
                best = votes;
                pack = lanePc_[l];
            }
        }
    }
    for (unsigned l = 0; l < lanes_; ++l)
        if (laneState_[l] == LaneState::Active && lanePc_[l] != pack)
            evictDiverged(l);
    pc_ = pack;
}

void
GangSimulator::exitFaulted(unsigned faults, uint32_t pc,
                           uint64_t instructions, uint64_t injectableRetired)
{
    for (unsigned i = 0; i < faults; ++i) {
        if (faultSlot_[i] == width_)
            panic("GangSimulator: golden lane faulted at pc ", pc);
        exitFinished(faultSlot_[i], faultKind_[i], pc, instructions,
                     injectableRetired);
    }
}

unsigned
GangSimulator::executeStep(const Instruction &ins, uint32_t thisPc)
{
    // Two execution regimes:
    //
    //  * DENSE ops (register and flag results, branches, jumps) cannot
    //    fault and touch only register columns / next-PC slots, so
    //    they compute over ALL stride_ columns unconditionally --
    //    branch-free, contiguous, vectorizable. Dead columns (aliases,
    //    exited lanes, a retired golden) get garbage, which is
    //    harmless: materialize() rewrites an alias's whole column from
    //    golden, and exited lanes were snapshotted at exit. This is
    //    what makes a gang step cheaper than N scalar steps rather
    //    than merely batched.
    //
    //  * GATED ops (divides, loads/stores, output) can fault or have
    //    per-lane memory/stream side effects, so they run only over
    //    the execute set.
    //
    // Both expand the shared semantics lists (sim/semantics.hh).
    const unsigned n = static_cast<unsigned>(execList_.size());
    const uint8_t *slots = execList_.data();
    const unsigned all = stride_;
    const uint32_t fall = thisPc + 1;
    uint32_t *pcs = lanePc_.data();
    [[maybe_unused]] const uint32_t imm = static_cast<uint32_t>(ins.imm);

    // Register rows are always valid to form (unused operand fields
    // are zero, i.e. $zero's row).
    uint32_t *rdCol = &regs_[size_t{ins.rd} * stride_];
    const uint32_t *rsCol = &regs_[size_t{ins.rs} * stride_];
    const uint32_t *rtCol = &regs_[size_t{ins.rt} * stride_];

    // Faults are recorded during the slot loops and exited by the
    // caller (evicting mid-loop would edit execList_ under iteration).
    unsigned faults = 0;
    auto faultLane = [&](unsigned slot, RunStatus status) {
        faultSlot_[faults] = static_cast<uint8_t>(slot);
        faultKind_[faults] = status;
        ++faults;
    };

    // Memory ops: lanes almost always agree on the address (a flip
    // rarely lands in an address register), so hoist the alignment /
    // bounds / page-index work out of the lane loop when they do, and
    // hand @p access each lane's page (by table slot) plus the shared
    // in-page offset. Any lane disagreeing -- or a uniform address
    // that faults -- returns false: the caller then takes the
    // per-lane laneRead/laneWrite path, which reproduces scalar fault
    // semantics exactly.
    auto uniformAccess = [&](uint32_t width, auto &&access) {
        const uint32_t addr = rsCol[slots[0]] + imm;
        for (unsigned i = 1; i < n; ++i)
            if (rsCol[slots[i]] + imm != addr)
                return false;
        if ((addr & (width - 1)) || !inBounds(addr, width))
            return false;
        const size_t index = pageIndex(addr);
        const uint32_t offset = addr & (Memory::PAGE_SIZE - 1);
        for (unsigned i = 0; i < n; ++i)
            access(slots[i], index, offset);
        return true;
    };
    auto gatedLoad = [&](auto zero, auto &&writeback) {
        using T = decltype(zero);
        if (uniformAccess(sizeof(T), [&](unsigned s, size_t index,
                                         uint32_t offset) {
                const uint8_t *page = tables_[size_t{s} * pageCount_ + index];
                T value{};
                if (page)
                    std::memcpy(&value, page + offset, sizeof(T));
                writeback(s, value);
            }))
            return;
        for (unsigned i = 0; i < n; ++i) {
            unsigned s = slots[i];
            T value{};
            if (laneRead(s, rsCol[s] + imm, value) != MemStatus::Ok)
                faultLane(s, RunStatus::MemoryFault);
            else
                writeback(s, value);
        }
    };
    auto gatedStore = [&](auto zero) {
        using T = decltype(zero);
        if (uniformAccess(sizeof(T), [&](unsigned s, size_t index,
                                         uint32_t offset) {
                T value = static_cast<T>(rdCol[s]);
                std::memcpy(pageForWrite(s, static_cast<unsigned>(index)) +
                                offset,
                            &value, sizeof(T));
            }))
            return;
        for (unsigned i = 0; i < n; ++i) {
            unsigned s = slots[i];
            if (laneWrite(s, rsCol[s] + imm, static_cast<T>(rdCol[s])) !=
                MemStatus::Ok)
                faultLane(s, RunStatus::MemoryFault);
        }
    };

// The operands the semantics lists are written over, for column s.
// Only branches read fcc, so only they form the flag column: the
// fewer pointers live across the switch, the cheaper every step.
#define ETC_LANE_OPERANDS(s)                                               \
    [[maybe_unused]] const uint32_t a = rsCol[s];                          \
    [[maybe_unused]] const uint32_t b = rtCol[s];

// Dense register write: every column, with the $zero discard hoisted
// out of the loop ($zero as rd skips the whole op -- these ops have no
// other architectural effect).
#define ETC_REGISTER_RESULT(name, expr)                                    \
      case Opcode::name:                                                   \
        if (ins.rd != REG_ZERO)                                            \
            for (unsigned s = 0; s < all; ++s) {                           \
                ETC_LANE_OPERANDS(s)                                       \
                rdCol[s] = (expr);                                         \
            }                                                              \
        break;
#define ETC_FLAG_RESULT(name, expr)                                        \
      case Opcode::name: {                                                 \
        uint32_t *fccCol = &regs_[size_t{FP_FLAG_REG} * stride_];          \
        for (unsigned s = 0; s < all; ++s) {                               \
            ETC_LANE_OPERANDS(s)                                           \
            fccCol[s] = (expr) ? 1 : 0;                                    \
        }                                                                  \
        break;                                                             \
      }
#define ETC_BRANCH(name, expr)                                             \
      case Opcode::name: {                                                 \
        const uint32_t *fccCol = &regs_[size_t{FP_FLAG_REG} * stride_];    \
        for (unsigned s = 0; s < all; ++s) {                               \
            ETC_LANE_OPERANDS(s)                                           \
            [[maybe_unused]] const uint32_t fcc = fccCol[s];               \
            pcs[s] = (expr) ? ins.target : fall;                           \
        }                                                                  \
        break;                                                             \
      }
#define ETC_DIVIDE(name, expr)                                             \
      case Opcode::name:                                                   \
        for (unsigned i = 0; i < n; ++i) {                                 \
            const unsigned s = slots[i];                                   \
            ETC_LANE_OPERANDS(s)                                           \
            if (b == 0)                                                    \
                faultLane(s, RunStatus::DivByZero);                        \
            else if (ins.rd != REG_ZERO)                                   \
                rdCol[s] = (expr);                                         \
        }                                                                  \
        break;
#define ETC_LOAD(name, T, expr)                                            \
      case Opcode::name:                                                   \
        gatedLoad(T(0), [&](unsigned s, T v) {                             \
            if (ins.rd != REG_ZERO)                                        \
                rdCol[s] = (expr);                                         \
        });                                                                \
        break;
#define ETC_STORE(name, T)                                                 \
      case Opcode::name:                                                   \
        gatedStore(T(0));                                                  \
        break;

    switch (ins.op) {
      ETC_SEM_REGISTER_RESULTS(ETC_REGISTER_RESULT)
      ETC_SEM_FLAG_RESULTS(ETC_FLAG_RESULT)
      ETC_SEM_BRANCHES(ETC_BRANCH)
      ETC_SEM_DIVIDES(ETC_DIVIDE)
      ETC_SEM_LOADS(ETC_LOAD)
      ETC_SEM_STORES(ETC_STORE)

      case Opcode::J:
        for (unsigned s = 0; s < all; ++s)
            pcs[s] = ins.target;
        break;
      case Opcode::JAL: {
        uint32_t *ra = &regs_[size_t{REG_RA} * stride_];
        for (unsigned s = 0; s < all; ++s) {
            ra[s] = fall;
            pcs[s] = ins.target;
        }
        break;
      }
      case Opcode::JR:
        for (unsigned s = 0; s < all; ++s)
            pcs[s] = rsCol[s];
        break;
      case Opcode::JALR:
        // Link write BEFORE the target read, like the scalar
        // interpreter: jalr with rd == rs jumps to the link.
        if (ins.rd != REG_ZERO)
            for (unsigned s = 0; s < all; ++s)
                rdCol[s] = fall;
        for (unsigned s = 0; s < all; ++s)
            pcs[s] = rsCol[s];
        break;
      case Opcode::NOP:
      case Opcode::HALT: // runUntilInjectable ends the gang before it
        break;
      case Opcode::OUTB:
        for (unsigned i = 0; i < n; ++i) {
            unsigned s = slots[i];
            outputs_[s].push_back(static_cast<uint8_t>(rsCol[s]));
            if (outputPrefix_ + outputs_[s].size() > Simulator::OUTPUT_CAP)
                faultLane(s, RunStatus::OutputOverflow);
        }
        break;
      case Opcode::OUTW:
        for (unsigned i = 0; i < n; ++i) {
            unsigned s = slots[i];
            for (int byte = 0; byte < 4; ++byte)
                outputs_[s].push_back(
                    static_cast<uint8_t>(rsCol[s] >> (8 * byte)));
            if (outputPrefix_ + outputs_[s].size() > Simulator::OUTPUT_CAP)
                faultLane(s, RunStatus::OutputOverflow);
        }
        break;
    }

#undef ETC_LANE_OPERANDS
#undef ETC_REGISTER_RESULT
#undef ETC_FLAG_RESULT
#undef ETC_BRANCH
#undef ETC_DIVIDE
#undef ETC_LOAD
#undef ETC_STORE

    return faults;
}

RunResult
GangSimulator::runUntilInjectable(uint64_t count, const StraightRuns &runs,
                                  uint64_t maxInstructions)
{
    if (runs.size() != program_.size())
        panic("GangSimulator: straight-run table size mismatch");
    if (maxInstructions == 0)
        maxInstructions = Simulator::DEFAULT_BUDGET;

    // Settle the PCs a pause's flips may have perturbed: after a
    // control step every active lane's slot is authoritative; after a
    // data step only proxied lanes can have moved off the shared PC.
    if (pausePending_) {
        pausePending_ = false;
        if (lastStepControl_) {
            reconcile();
        } else {
            for (uint8_t lane : touched_)
                if (laneState_[lane] == LaneState::Active &&
                    lanePc_[lane] != pc_)
                    evictDiverged(lane);
        }
        touched_.clear();
    }

    // The alias count only changes between runs (proxy access
    // materializes a lane) or inside finishAll, which returns -- so
    // the golden lane's retirement check needs to run only once here,
    // not per instruction.
    maybeDropGolden();

    RunResult result;
    uint64_t quota = count == 0 ? UINT64_MAX : count;
    const auto codeSize = program_.size();
    const auto *code = program_.code.data();

    for (;;) {
        if (execList_.empty()) {
            // Every lane has an exit record; the gang is drained.
            result.status = RunStatus::Completed;
            result.instructions = instructions_;
            return result;
        }
        if (pc_ >= codeSize) {
            // Mirrors the scalar run entry: falling off the end is
            // completion, anything past it a bad jump, reported at the
            // control transfer that left the code.
            if (pc_ == codeSize)
                finishAll(RunStatus::Completed, 0);
            else
                finishAll(RunStatus::BadJump, retiredPc_);
            result.status = RunStatus::Completed;
            result.instructions = instructions_;
            return result;
        }
        if (instructions_ >= maxInstructions) {
            finishAll(RunStatus::Timeout, pc_);
            result.status = RunStatus::Completed;
            result.instructions = instructions_;
            return result;
        }

        // The body of the straight run at pc_ -- all of it before its
        // control transfer or HALT, or before the injectable the next
        // pause lands on -- steps back to back when the budget covers
        // it: its counts are credited once, and a lane that faults
        // inside it exits with the counts through its own instruction.
        // The instruction that ends the body takes the checked step
        // below.
        const StraightRuns::Run &run = runs[pc_];
        if (run.length > 1) {
            uint32_t last = pc_ + run.length - 1;
            uint32_t bodyInjectable = run.injectable - runs[last].injectable;
            if (quota <= bodyInjectable) {
                last = pc_;
                for (uint64_t seen = 0;; ++last)
                    if (runs.injectable(last) && ++seen == quota)
                        break;
                bodyInjectable = static_cast<uint32_t>(quota - 1);
            }
            if (last != pc_ &&
                instructions_ + (last - pc_) <= maxInstructions) {
                instructions_ += last - pc_;
                injectableRetired_ += bodyInjectable;
                quota -= bodyInjectable;
                for (uint32_t pc = pc_; pc != last; ++pc) {
                    if (unsigned faults = executeStep(code[pc], pc)) {
                        exitFaulted(faults, pc,
                                    instructions_ - (last - 1 - pc),
                                    injectableRetired_ -
                                        (runs[pc].injectable -
                                         runs[last].injectable));
                        if (execList_.empty())
                            break;
                    }
                }
                pc_ = last;
                continue;
            }
        }

        const Instruction &ins = code[pc_];
        const uint32_t thisPc = pc_;
        retiredPc_ = thisPc;
        ++instructions_;
        if (ins.op == Opcode::HALT) {
            // Completion dominates any pause request, exactly like the
            // scalar interpreter; every in-gang lane (aliases included)
            // completes with its own output tail.
            finishAll(RunStatus::Completed, 0);
            result.status = RunStatus::Completed;
            result.instructions = instructions_;
            return result;
        }
        if (unsigned faults = executeStep(ins, thisPc))
            exitFaulted(faults, thisPc, instructions_, injectableRetired_);
        const bool isInjectable = runs.injectable(thisPc) != 0;
        if (isInjectable)
            ++injectableRetired_;
        const bool control = ins.isControl();
        if (!control)
            pc_ = thisPc + 1;
        if (isInjectable && --quota == 0) {
            // Pause BEFORE reconciling: the caller's flips must see
            // (and may change) each lane's own next PC, exactly as the
            // scalar path applies flips after the PC update.
            pausePending_ = true;
            lastStepControl_ = control;
            result.status = RunStatus::Paused;
            result.instructions = instructions_;
            result.faultPc = thisPc;
            return result;
        }
        if (control)
            reconcile();
    }
}

} // namespace etc::sim
