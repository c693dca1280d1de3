/**
 * @file
 * Architectural register state of the simulated machine.
 *
 * One flat register file indexed by RegId -- integer registers, FP
 * registers, then the FP condition flag (isa::FP_FLAG_REG), the same
 * layout the analysis and the gang's lane columns use. FP registers
 * hold raw 32-bit patterns so the fault injector can flip any bit of
 * any result uniformly; FP arithmetic bit-casts on use.
 */

#ifndef ETC_SIM_MACHINE_HH
#define ETC_SIM_MACHINE_HH

#include <array>
#include <cstdint>

#include "isa/registers.hh"

namespace etc::sim {

/**
 * @return what a write of @p value leaves in @p reg: $zero discards
 *         every write and the FP flag keeps only bit 0.
 */
constexpr uint32_t
storedBits(isa::RegId reg, uint32_t value)
{
    if (reg == isa::REG_ZERO)
        return 0;
    return reg == isa::FP_FLAG_REG ? value & 1 : value;
}

/**
 * Register file + PC. Plain aggregate; the Simulator owns one. The
 * interpreters write regs directly and keep regs[REG_ZERO] == 0 and
 * regs[FP_FLAG_REG] in {0, 1}; everyone else goes through writeFlat().
 */
struct Machine
{
    /** Reset all registers to zero (PC is managed by the Simulator). */
    void
    reset()
    {
        regs.fill(0);
        retiredPc = 0;
    }

    /** Read any register by flat id. */
    uint32_t readFlat(isa::RegId reg) const { return regs[reg]; }

    /** Write any register by flat id (see storedBits()). */
    void
    writeFlat(isa::RegId reg, uint32_t value)
    {
        regs[reg] = storedBits(reg, value);
    }

    /** Full architectural-state equality (checkpoint round-trips);
     *  retiredPc is bookkeeping, not architectural state. */
    bool
    operator==(const Machine &other) const
    {
        return pc == other.pc && regs == other.regs;
    }

    std::array<uint32_t, isa::NUM_REGS> regs{};

    /** Current program counter (an instruction index). */
    uint32_t pc = 0;

    /**
     * Static index of the instruction that retired last: the control
     * transfer a BadJump reports when pc has left the code. The
     * interpreters keep it in a local while they run and store it
     * before each hook call and at each pause, so it survives a pause
     * (whose flip may corrupt pc) and travels with an evicted gang
     * lane to its scalar drain.
     */
    uint32_t retiredPc = 0;
};

} // namespace etc::sim

#endif // ETC_SIM_MACHINE_HH
