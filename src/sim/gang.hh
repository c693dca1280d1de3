/**
 * @file
 * Gang interpreter: N fault-injection trials executed in lockstep from
 * one shared checkpoint restore.
 *
 * Every Monte-Carlo trial of a cell replays the same golden
 * instruction stream except for a handful of flipped bits, so the
 * per-trial work of the checkpointed fast path (sim/simulator.hh +
 * fault/campaign.cc) is dominated by re-fetching and re-decoding the
 * very same instructions once per trial. The GangSimulator instead
 * keeps a structure-of-arrays machine state for N trial "lanes" --
 * per-lane register files laid out register-major
 * (regs[reg * stride + lane], so one instruction's reads/writes walk
 * contiguous, vectorizable columns) and per-lane copy-on-write page
 * overlays over the shared restored checkpoint image -- and runs one
 * fetch/decode feeding N executes.
 *
 * Golden-lane aliasing: the gang owns one extra internal lane, the
 * *golden lane* (slot index width()), which replays the unperturbed
 * golden stream. Every trial lane starts as a zero-cost alias of it:
 * until a lane's first bit flip its architectural state is golden by
 * definition, so aliases are not executed at all. A lane materializes
 * (forks registers + the COW page table; O(registers + page-table
 * pointers), no page copies) the first time the campaign asks for its
 * machine proxy -- i.e. right before its first flip. The golden lane
 * retires from the execute set once no aliases remain.
 *
 * Divergence and the active-lane mask: all in-gang lanes share one
 * program counter. After every control-transfer step (and after every
 * pause, since a flip may corrupt a lane's next PC) the gang
 * reconciles: the pack PC is the golden lane's next PC while it is
 * live, afterwards the majority next PC over the active lanes (ties
 * break to the PC of the lowest-index lane holding it). Lanes whose
 * next PC differs are *evicted* with a full state snapshot (registers,
 * divergent PC, overlay pages, output tail, shared instruction /
 * injectable-retire counters). Lanes whose fault manifests without
 * changing control flow (a flipped data register, a corrupted store)
 * simply keep executing in the gang -- that is the common case and the
 * entire speedup.
 *
 * One semantics, one site loop: a lane executes each instruction
 * through the same semantics lists the scalar interpreter expands
 * (sim/semantics.hh), under the same checked memory accesses, so an
 * evicted lane's snapshot is exactly the architectural state the
 * scalar interpreter would hold at the same retire boundary. The
 * campaign (fault/campaign.cc) rehydrates a scalar Simulator from the
 * gang's checkpoint plus the lane's overlay pages, registers, and
 * output tail, and finishes the trial in the one site loop every
 * scalar trial runs, from the lane's injection cursor. Gang results
 * are therefore bit-identical to the scalar fast path -- same
 * statuses, instruction counts, injected counts, and output bytes --
 * for every gang width: tests/interp_differential_test.cc compares
 * every opcode lane by lane, and tests/gang_determinism_test.cc pins
 * whole campaigns across widths x threads x checkpointing x pruning.
 *
 * Non-divergent exits are terminal inside the gang: per-lane faults
 * (memory fault, div-by-zero, output overflow) and gang-wide ends
 * (HALT, fall-off-the-end completion, bad pack jump, budget timeout)
 * produce final RunResults directly, mirroring the scalar
 * interpreter's ordering exactly (bounds check before budget check,
 * the faulting instruction counted, completion dominating a pause).
 *
 * Lifetime: LaneExit::pages points into the gang's page pool and the
 * restored base Memory; both stay valid until the next reset(), so
 * callers must drain exits before starting the next gang.
 */

#ifndef ETC_SIM_GANG_HH
#define ETC_SIM_GANG_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "asm/program.hh"
#include "isa/registers.hh"
#include "sim/machine.hh"
#include "sim/memory.hh"
#include "sim/outcome.hh"
#include "sim/simulator.hh"

namespace etc::sim {

/**
 * Lockstep interpreter over N trial lanes + 1 internal golden lane.
 * reset() + runUntilInjectable() may be called repeatedly; page
 * storage is pooled across gangs.
 */
class GangSimulator
{
  public:
    /** Hard cap on trial lanes per gang. */
    static constexpr unsigned MAX_LANES = 64;

    /** How one lane left the gang. */
    enum class ExitKind : uint8_t
    {
        Finished, //!< run is final (completed / faulted / timed out)
        Diverged, //!< control diverged: drain through the scalar path
    };

    /** Snapshot of a lane at the moment it left the gang. */
    struct LaneExit
    {
        unsigned lane = 0;
        ExitKind kind = ExitKind::Finished;

        /** Final result (Finished exits only). */
        RunResult run;

        /** Architectural state at the divergence boundary (PC = the
         *  lane's own, divergent next PC). Diverged exits only. */
        Machine machine;

        /**
         * Pages where the lane's view differs from the restored base
         * image: (flat page number, PAGE_SIZE bytes), ascending.
         * Pointers are owned by the gang / base memory and valid until
         * the next reset(). Diverged exits only.
         */
        std::vector<std::pair<uint32_t, const uint8_t *>> pages;

        /** Output bytes the lane emitted since the gang started (the
         *  full stream is the checkpoint prefix + this tail). */
        std::vector<uint8_t> outputTail;

        /** Total dynamic instructions at exit (incl. restored prefix). */
        uint64_t instructions = 0;

        /** Total injectable retires at exit (incl. restored prefix). */
        uint64_t injectableRetired = 0;
    };

    /**
     * Machine-shaped proxy for one lane, compatible with
     * fault::flipResult. `pc` aliases the lane's own next-PC slot, so
     * a control flip marks the lane for divergence reconciliation.
     */
    class LaneMachine
    {
      public:
        uint32_t &pc;

        uint32_t
        readFlat(isa::RegId reg) const
        {
            return gang_.reg(lane_, reg);
        }

        /** Mirrors Machine::writeFlat (see storedBits()). */
        void
        writeFlat(isa::RegId reg, uint32_t value)
        {
            gang_.reg(lane_, reg) = storedBits(reg, value);
        }

      private:
        friend class GangSimulator;
        LaneMachine(GangSimulator &gang, unsigned lane, uint32_t &pcRef)
            : pc(pcRef), gang_(gang), lane_(lane)
        {
        }
        GangSimulator &gang_;
        unsigned lane_;
    };

    /** Memory-shaped proxy for one lane (checked guest accesses over
     *  the lane's COW overlay), compatible with fault::flipResult. */
    class LaneMemory
    {
      public:
        template <typename T>
        MemStatus
        read(uint32_t addr, T &value)
        {
            return gang_.laneRead(lane_, addr, value);
        }

        template <typename T>
        MemStatus
        write(uint32_t addr, T value)
        {
            return gang_.laneWrite(lane_, addr, value);
        }

      private:
        friend class GangSimulator;
        LaneMemory(GangSimulator &gang, unsigned lane)
            : gang_(gang), lane_(lane)
        {
        }
        GangSimulator &gang_;
        unsigned lane_;
    };

    /**
     * @param program  the workload program (not owned)
     * @param model    out-of-region memory policy (must match the
     *                 campaign's scalar simulators)
     * @param maxWidth largest lane count reset() will be called with
     *                 (1..MAX_LANES)
     */
    GangSimulator(const assembly::Program &program, MemoryModel model,
                  unsigned maxWidth);

    /**
     * Start a new gang of @p lanes trial lanes from the shared state
     * in @p machine / @p base (a Simulator right after restoreFrom()
     * or fastReset()). All lanes begin as aliases of the golden lane.
     *
     * @param machine           restored architectural state
     * @param base              restored memory image (referenced, not
     *                          copied; must outlive the gang run)
     * @param lanes             trial lanes (1..maxWidth)
     * @param instructions      dynamic instructions already retired
     *                          (the checkpoint's count)
     * @param injectableRetired injectable retires already counted
     * @param outputPrefixLength bytes of golden output already emitted
     */
    void reset(const Machine &machine, const Memory &base,
               unsigned lanes, uint64_t instructions,
               uint64_t injectableRetired, size_t outputPrefixLength);

    /**
     * Run the gang until @p count more injectable instructions retire
     * (0 = no quota), every lane has left the gang, or the shared
     * budget expires. Mirrors Simulator::runUntilInjectable(): on
     * quota the result is Paused with faultPc = the static index of
     * the just-retired injectable instruction and the caller applies
     * flips through the lane proxies; any other status means the gang
     * is drained (all lanes are in takeExits()).
     *
     * Like the scalar path it goes by straight runs: the body of a run
     * -- everything before its control transfer or HALT, or before the
     * injectable the pause lands on -- steps without per-instruction
     * bounds, budget, pause and control checks when the budget covers
     * it, and the instruction that ends the body takes the checked
     * step. A lane that faults inside a body still exits with its
     * exact instruction and injectable counts.
     *
     * @param count           injectable retires before pausing
     * @param runs            the program's straight runs under the
     *                        campaign's injectable mask
     * @param maxInstructions total dynamic budget (absolute, like the
     *                        scalar path's; must be nonzero)
     */
    RunResult runUntilInjectable(uint64_t count, const StraightRuns &runs,
                                 uint64_t maxInstructions);

    /** @return true while @p lane (alias or active) is still executing
     *         in the gang; false once it has an exit record. */
    bool
    laneInGang(unsigned lane) const
    {
        return laneState_[lane] != LaneState::Exited;
    }

    /** @return total injectable retires of the pack stream so far. */
    uint64_t injectableRetired() const { return injectableRetired_; }

    /**
     * Lane proxy for fault::flipResult. Materializes an aliased lane
     * (its first flip is what makes it diverge from golden). Only
     * valid while the gang is paused and the lane is in the gang.
     */
    LaneMachine laneMachine(unsigned lane);

    /** Memory proxy for fault::flipResult (materializes too). */
    LaneMemory laneMemory(unsigned lane);

    /** Drain the accumulated exit records (any order of eviction). */
    std::vector<LaneExit>
    takeExits()
    {
        return std::move(exits_);
    }

  private:
    enum class LaneState : uint8_t
    {
        Alias,  //!< identical to golden; not executed
        Active, //!< materialized, executing in the gang
        Exited, //!< has a LaneExit record
    };

    /// @name Per-lane register access (slot = lane or golden slot)
    /// @{
    uint32_t
    reg(unsigned slot, unsigned flatReg) const
    {
        return regs_[flatReg * stride_ + slot];
    }
    uint32_t &
    reg(unsigned slot, unsigned flatReg)
    {
        return regs_[flatReg * stride_ + slot];
    }
    /// @}

    /// @name Per-lane COW memory (mirrors Memory's checked accesses)
    /// @{
    bool
    inBounds(uint32_t addr, uint32_t len) const
    {
        uint64_t end = uint64_t{addr} + len;
        return (addr >= dataBase_ && end <= dataLimit_) ||
               (addr >= stackBase_ && end <= stackLimit_);
    }
    unsigned
    pageIndex(uint32_t addr) const
    {
        uint32_t page = addr >> Memory::PAGE_BITS;
        return addr >= stackBase_
                   ? dataPageCount_ + (page - stackFirstPage_)
                   : page - dataFirstPage_;
    }
    uint32_t
    flatPageNumber(unsigned index) const
    {
        return index < dataPageCount_
                   ? dataFirstPage_ + index
                   : stackFirstPage_ + (index - dataPageCount_);
    }
    /** @return @p slot's page @p index, writable in place: an owned
     *  page as is, a shared one cloned first (once). */
    uint8_t *
    pageForWrite(unsigned slot, unsigned index)
    {
        const size_t at = size_t{slot} * pageCount_ + index;
        return own_[at] ? tables_[at] : clonePage(at);
    }

    /** Give table entry @p at its own copy of the page it shares
     *  (out of line, so pageForWrite's owned case stays small). */
    [[gnu::noinline]] uint8_t *clonePage(size_t at);

    template <typename T>
    MemStatus
    laneRead(unsigned slot, uint32_t addr, T &value)
    {
        const bool in = inBounds(addr, sizeof(T));
        MemStatus status = checkAccess(addr, sizeof(T), in, model_);
        value = 0; // untouched pages read as zeroes too
        if (status != MemStatus::Ok || !in)
            return status;
        if (const uint8_t *page =
                tables_[size_t{slot} * pageCount_ + pageIndex(addr)])
            std::memcpy(&value, page + (addr & (Memory::PAGE_SIZE - 1)),
                        sizeof(T));
        return status;
    }

    template <typename T>
    MemStatus
    laneWrite(unsigned slot, uint32_t addr, T value)
    {
        const bool in = inBounds(addr, sizeof(T));
        MemStatus status = checkAccess(addr, sizeof(T), in, model_);
        if (status == MemStatus::Ok && in)
            std::memcpy(pageForWrite(slot, pageIndex(addr)) +
                            (addr & (Memory::PAGE_SIZE - 1)),
                        &value, sizeof(T));
        return status;
    }

    uint8_t *allocPage();
    /// @}

    /** Fork @p lane off the golden lane (registers + page table). */
    void materialize(unsigned lane);

    /** Remove @p slot from the execute set. */
    void removeFromExec(unsigned slot);

    /** Evict @p lane with a divergence snapshot. */
    void evictDiverged(unsigned lane);

    /** Record a terminal result for @p lane, which retired
     *  @p instructions and @p injectableRetired, and drop it. */
    void exitFinished(unsigned lane, RunStatus status, uint32_t faultPc,
                      uint64_t instructions, uint64_t injectableRetired);

    /** Exit the @p faults lanes the last executeStep() of the
     *  instruction at @p pc recorded, with the given counts. */
    void exitFaulted(unsigned faults, uint32_t pc, uint64_t instructions,
                     uint64_t injectableRetired);

    /** Terminal result for every lane still in the gang (incl. aliases). */
    void finishAll(RunStatus status, uint32_t faultPc);

    /** Settle per-lane next PCs: pick the pack PC, evict the rest. */
    void reconcile();

    /** Retire the golden lane once no aliases remain. */
    void maybeDropGolden();

    /** Execute one instruction (never HALT) on every execute-set slot.
     *  @return how many lanes faulted (see faultSlot_), for the
     *          caller to exit through exitFaulted(). */
    unsigned executeStep(const isa::Instruction &ins, uint32_t thisPc);

    const assembly::Program &program_;
    MemoryModel model_;
    unsigned width_;  //!< max trial lanes; golden slot index
    unsigned stride_; //!< width_ + 1 (register-major column stride)
    unsigned lanes_ = 0;

    /// @name Segment geometry (copied from the base Memory at reset)
    /// @{
    uint32_t dataBase_ = 0, dataLimit_ = 0;
    uint32_t stackBase_ = 0, stackLimit_ = 0;
    uint32_t dataFirstPage_ = 0, stackFirstPage_ = 0;
    unsigned dataPageCount_ = 0, pageCount_ = 0;
    /// @}

    /** Register columns: regs_[reg * stride_ + slot], flat reg ids. */
    std::vector<uint32_t> regs_;

    /** Per-slot next PC; authoritative after control steps/flips. */
    std::vector<uint32_t> lanePc_;

    /** Shared pack PC (all in-gang lanes, between control steps). */
    uint32_t pc_ = 0;

    /** PC of the last checked step: the control transfer behind a
     *  pack PC or an evicted lane's PC (see Machine::retiredPc). */
    uint32_t retiredPc_ = 0;

    /** Base image page pointers (nullptr = zero page), flat index. */
    std::vector<const uint8_t *> baseTable_;

    /** Per-slot page tables: tables_[slot * pageCount_ + index]. */
    std::vector<uint8_t *> tables_;

    /** 1 = slot exclusively owns the page (in-place writes allowed). */
    std::vector<uint8_t> own_;

    /** COW page pool (reused across gangs). */
    std::vector<std::unique_ptr<uint8_t[]>> pageStorage_;
    std::vector<uint8_t *> freePages_;

    /** Per-slot output tails (bytes since the gang started). */
    std::vector<std::vector<uint8_t>> outputs_;
    size_t outputPrefix_ = 0;

    std::vector<LaneState> laneState_;
    std::vector<uint8_t> execList_; //!< ascending slots; golden last
    bool goldenLive_ = false;
    unsigned aliasCount_ = 0;

    uint64_t instructions_ = 0;
    uint64_t injectableRetired_ = 0;

    /// @name Pause bookkeeping (see reconcile())
    /// @{
    bool pausePending_ = false;    //!< flips may have perturbed PCs
    bool lastStepControl_ = false; //!< paused step was a control xfer
    std::vector<uint8_t> touched_; //!< lanes given a machine proxy
    /// @}

    std::vector<LaneExit> exits_;

    /** The lanes the last executeStep() faulted, and how. */
    uint8_t faultSlot_[MAX_LANES + 1];
    RunStatus faultKind_[MAX_LANES + 1];
};

} // namespace etc::sim

#endif // ETC_SIM_GANG_HH
