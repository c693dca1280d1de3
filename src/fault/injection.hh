/**
 * @file
 * Bit-flip fault injection, generalized over injection policies while
 * reproducing the paper's error model bit-for-bit under the legacy
 * policies:
 *
 *   "we flip a bit in the result of an instruction ... Single bit-flip
 *    errors were randomly inserted with a uniform distribution."
 *
 * Methodology (profile-then-inject):
 *  1. a fault-free profiling run counts how many *injectable* dynamic
 *     instructions the program retires (N);
 *  2. for a trial with k errors, k distinct dynamic indices in [0, N)
 *     are drawn uniformly, plus one flip mask per index from the
 *     policy's bit-error model (a single uniform bit under the paper
 *     model; a bit range or k-adjacent burst under the ablations);
 *  3. the trial reruns, XOR-ing each mask into the chosen result right
 *     after writeback at the chosen dynamic index.
 *
 * Which instructions are injectable -- and which of an instruction's
 * results gets corrupted -- encodes the policy (see fault/policy.hh):
 * the legacy "protected" policy targets only CVar-tagged register
 * results; the legacy "unprotected" policy targets every result kind
 * (register write, stored memory value, or a control transfer's next
 * PC -- corrupting control itself is what makes the paper's "without
 * protection" rows catastrophic); the ablation policies slice that
 * space differently.
 */

#ifndef ETC_FAULT_INJECTION_HH
#define ETC_FAULT_INJECTION_HH

#include <cstdint>
#include <vector>

#include "asm/program.hh"
#include "fault/policy.hh"
#include "sim/semantics.hh"
#include "sim/simulator.hh"
#include "support/rng.hh"

namespace etc::fault {

/** The per-trial injection schedule. */
struct InjectionPlan
{
    /** Dynamic indices (within the injectable stream), ascending. */
    std::vector<uint64_t> sites;

    /** Nonzero 32-bit flip mask applied at the matching site (a
     *  single-flip model always yields one-hot masks). */
    std::vector<uint32_t> masks;

    size_t size() const { return sites.size(); }
};

/**
 * @return injectable bitmap for the legacy protected policy: exactly
 *         the instructions the analysis tagged (all of which bear
 *         defs). Thin wrapper over InjectionPolicy::injectableBitmap.
 */
std::vector<bool> injectableWithProtection(
    const assembly::Program &program, const std::vector<bool> &tagged);

/**
 * @return injectable bitmap for the legacy unprotected policy: every
 *         instruction with a result of any kind. Thin wrapper over
 *         InjectionPolicy::injectableBitmap.
 */
std::vector<bool> injectableWithoutProtection(
    const assembly::Program &program);

/**
 * Draw an injection plan: k distinct uniform sites, then one mask per
 * site from @p model. The legacy single-flip model consumes exactly
 * one rng.below(32) per site -- the same stream the pre-policy
 * implementation drew, so legacy trials are bit-identical.
 *
 * @param injectableDynamicCount N from the profiling run
 * @param numErrors              k errors to insert
 * @param model                  the policy's bit-error model
 * @param rng                    deterministic generator
 */
InjectionPlan samplePlan(uint64_t injectableDynamicCount,
                         unsigned numErrors, const BitErrorModel &model,
                         Rng &rng);

namespace detail {

/** Fold a 32-bit mask onto @p width bits: each set bit lands at
 *  (bit % width), matching the legacy per-bit `bit % width` flip.
 *  XOR fold, because two flips landing on one folded bit cancel. */
inline uint32_t
foldMask(uint32_t mask, unsigned width)
{
    uint32_t folded = 0;
    for (unsigned lo = 0; lo < 32; lo += width)
        folded ^= mask >> lo;
    return folded & static_cast<uint32_t>((uint64_t{1} << width) - 1);
}

/** XOR @p mask, folded to T's width, into the T stored at @p addr.
 *  @return false if it cannot be read back. */
template <typename T, typename MemoryT>
bool
flipStored(MemoryT &memory, uint32_t addr, uint32_t mask)
{
    T value = 0;
    if (memory.read(addr, value) != sim::MemStatus::Ok)
        return false;
    memory.write(addr, static_cast<T>(value ^ foldMask(mask, 8 * sizeof(T))));
    return true;
}

} // namespace detail

/**
 * XOR @p mask into the policy-allowed result of the just-retired
 * instruction @p ins: its destination register, its next PC (control
 * transfers), or the memory value it stored -- the first allowed kind
 * the instruction has, in that fixed priority order. Sub-word stores
 * fold the mask to the stored width (each mask bit lands at
 * bit % width, exactly like the legacy single-flip did). Must be
 * called with writeback and the PC update already applied -- i.e.
 * exactly where ExecHook::onRetire runs, which is also where
 * Simulator::runUntilInjectable() pauses.
 *
 * Templated over the machine/memory shape so the scalar Simulator and
 * a GangSimulator lane proxy (sim/gang.hh) run the byte-identical flip
 * logic: MachineT provides pc / readFlat / writeFlat and
 * MemoryT the checked read/write accessors.
 *
 * @param resultKinds ResultKind bitmask of corruptible result kinds
 * @return true if a flip was performed; false when the instruction has
 *         no allowed result kind (or its stored value cannot be read
 *         back).
 */
template <typename MachineT, typename MemoryT>
bool
flipResult(const isa::Instruction &ins, uint32_t mask,
           unsigned resultKinds, MachineT &machine, MemoryT &memory)
{
    if (resultKinds & RK_REGISTER) {
        if (auto def = ins.def()) {
            // Register result (jal/jalr corrupt the saved link here).
            machine.writeFlat(*def, machine.readFlat(*def) ^ mask);
            return true;
        }
    }
    if ((resultKinds & RK_CONTROL) && ins.isControl()) {
        // A control transfer's result is the next PC.
        machine.pc ^= mask;
        return true;
    }
    if ((resultKinds & RK_MEMORY) && ins.isStore()) {
        // A store's result is the memory value it wrote. Flip it in
        // place (within the stored width); a store the strict model
        // would fault on never retired, and one the lenient model
        // dropped reads back as zero.
        uint32_t addr = machine.readFlat(ins.rs) +
                        static_cast<uint32_t>(ins.imm);
        switch (ins.op) {
#define ETC_FLIP_STORED(name, T)                                          \
          case isa::Opcode::name:                                         \
            return detail::flipStored<T>(memory, addr, mask);
          ETC_SEM_STORES(ETC_FLIP_STORED)
#undef ETC_FLIP_STORED
          default:
            break;
        }
    }
    return false;
}

/**
 * The retire hook that executes an InjectionPlan.
 */
class Injector : public sim::ExecHook
{
  public:
    /**
     * @param injectable  static bitmap of injectable instructions
     * @param plan        the trial's schedule (sites ascending)
     * @param resultKinds corruptible result kinds (default: all)
     */
    Injector(const std::vector<bool> &injectable, InjectionPlan plan,
             unsigned resultKinds = RK_ALL);

    void onRetire(uint32_t staticIdx, const isa::Instruction &ins,
                  sim::Machine &machine, sim::Memory &memory) override;

    /** @return how many flips were actually performed. */
    uint64_t injectedCount() const { return injected_; }

    /** @return how many injectable instructions retired so far. */
    uint64_t injectableRetired() const { return counter_; }

  private:
    const std::vector<bool> &injectable_;
    InjectionPlan plan_;
    unsigned resultKinds_;
    uint64_t counter_ = 0;
    uint64_t injected_ = 0;
    size_t cursor_ = 0;
};

/**
 * Profiling hook: counts injectable dynamic instructions without
 * perturbing anything.
 */
class InjectableCounter : public sim::ExecHook
{
  public:
    explicit InjectableCounter(const std::vector<bool> &injectable)
        : injectable_(injectable)
    {
    }

    void
    onRetire(uint32_t staticIdx, const isa::Instruction &,
             sim::Machine &, sim::Memory &) override
    {
        if (staticIdx < injectable_.size() && injectable_[staticIdx])
            ++count_;
    }

    uint64_t count() const { return count_; }

  private:
    const std::vector<bool> &injectable_;
    uint64_t count_ = 0;
};

} // namespace etc::fault

#endif // ETC_FAULT_INJECTION_HH
