/**
 * @file
 * Run boundaries of the interpreters. The scalar Simulator and the
 * GangSimulator count a straight run (sim::StraightRuns) whole when
 * the budget and the injectable quota outlast it, and step it one
 * instruction at a time otherwise; the hooked path always steps. These
 * tests hold both counting interpreters to the hooked path at every
 * budget and every quota over small programs, so a timeout and a pause
 * land at each offset of a run, and faults land inside runs: status,
 * instruction count, faultPc and output must agree, and a gang lane's
 * injectable count too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/program.hh"
#include "isa/instruction.hh"
#include "sim/gang.hh"
#include "sim/simulator.hh"

namespace {

using namespace etc;
using namespace etc::isa;
using namespace etc::sim;
using assembly::DATA_BASE;
using assembly::Program;

/** Register values a lane takes at the program's first retire. */
using LaneInit = std::vector<std::pair<RegId, uint32_t>>;

struct Case
{
    std::string name;
    Program program;
    LaneInit start;              //!< registers before the first retire
    std::vector<LaneInit> lanes; //!< written at the first retire
    size_t outputPrefix = 0;     //!< bytes emitted before the run
    /** The quotas and budgets swept (default: 1 to past the end). */
    uint64_t first = 1, last = 0;
};

Program
makeProgram(std::vector<Instruction> code)
{
    Program program;
    program.code = std::move(code);
    program.functions.push_back({"main", 0, program.size()});
    assembly::DataChunk chunk;
    chunk.addr = DATA_BASE;
    for (uint32_t i = 0; i < 32; ++i)
        chunk.bytes.push_back(static_cast<uint8_t>(0x35 + 11 * i));
    program.data.push_back(chunk);
    program.dataEnd = DATA_BASE + 32;
    return program;
}

template <typename MachineT>
void
apply(const LaneInit &init, MachineT &machine)
{
    for (const auto &[reg, value] : init)
        machine.writeFlat(reg, value);
}

/** Rewind @p sim to the start of @p c. fastReset() keeps the output
 *  stream's capacity, so a prefix near the output cap is cheap. */
void
prepare(Simulator &sim, const Case &c)
{
    sim.fastReset();
    apply(c.start, sim.machine());
    sim.appendOutput(std::vector<uint8_t>(c.outputPrefix, 0x5a));
}

std::vector<uint8_t>
tail(const std::vector<uint8_t> &output, size_t prefix)
{
    return {output.begin() + static_cast<ptrdiff_t>(prefix), output.end()};
}

/** The hooked path's view of one lane: steps every instruction,
 *  writes the lane's registers at the first retire, and notes where
 *  the quota-th injectable instruction retired. */
class Stepper : public ExecHook
{
  public:
    Stepper(const std::vector<bool> &mask, const LaneInit &lane,
            uint64_t quota)
        : mask_(mask), lane_(lane), quota_(quota)
    {
    }

    void
    onRetire(uint32_t pc, const Instruction &ins, Machine &machine,
             Memory &) override
    {
        if (++retired_ == 1)
            apply(lane_, machine);
        if (!mask_[pc])
            return;
        // Completion dominates a pause at HALT.
        if (++injectables == quota_ && ins.op != Opcode::HALT) {
            pause = RunResult{RunStatus::Paused, retired_, pc};
            injectablesAtPause = injectables;
        }
    }

    std::optional<RunResult> pause;
    uint64_t injectablesAtPause = 0;
    uint64_t injectables = 0;

  private:
    const std::vector<bool> &mask_;
    const LaneInit &lane_;
    uint64_t quota_;
    uint64_t retired_ = 0;
};

struct Reference
{
    std::optional<RunResult> pause;
    uint64_t injectablesAtPause = 0;
    RunResult end;
    std::vector<uint8_t> output;
    uint64_t injectables = 0; //!< injectable retires at the end
};

Reference
reference(Simulator &sim, const Case &c, const LaneInit &lane,
          const std::vector<bool> &mask, uint64_t quota, uint64_t budget)
{
    prepare(sim, c);
    Stepper stepper(mask, lane, quota);
    Reference ref;
    ref.end = sim.run(budget, &stepper);
    ref.pause = stepper.pause;
    ref.injectablesAtPause = stepper.injectablesAtPause;
    ref.output = tail(sim.output(), c.outputPrefix);
    ref.injectables = stepper.injectables;
    return ref;
}

void
expectSame(const RunResult &got, const RunResult &want,
           const std::string &who)
{
    EXPECT_STREQ(runStatusName(got.status), runStatusName(want.status))
        << who;
    EXPECT_EQ(got.instructions, want.instructions) << who;
    EXPECT_EQ(got.faultPc, want.faultPc) << who;
}

/** Simulators reused across one case's runs. */
struct Sims
{
    explicit Sims(const Program &program)
        : oracle(program), subject(program)
    {
    }
    Simulator oracle, subject;
};

/** Scalar site loop: pause at the first retire to write the lane,
 *  then at the quota-th injectable, then run to the end. */
void
checkScalar(Sims &sims, const Case &c, const StraightRuns &runs,
            const std::vector<bool> &mask, uint64_t quota, uint64_t budget,
            const std::string &at)
{
    for (size_t l = 0; l < c.lanes.size(); ++l) {
        const std::string who = at + " scalar lane " + std::to_string(l);
        const Reference want =
            reference(sims.oracle, c, c.lanes[l], mask, quota, budget);
        Simulator &sim = sims.subject;
        prepare(sim, c);
        RunResult got = sim.runUntilInjectable(1, runs, budget);
        ASSERT_STREQ(runStatusName(got.status), "paused") << who;
        apply(c.lanes[l], sim.machine());
        if (quota > 1)
            got = sim.runUntilInjectable(quota - 1, runs, budget,
                                         got.instructions);
        if (got.status == RunStatus::Paused) {
            ASSERT_TRUE(want.pause.has_value()) << who;
            expectSame(got, *want.pause, who + " at the pause");
            got = sim.runUntilInjectable(0, runs, budget, got.instructions);
        } else {
            EXPECT_FALSE(want.pause.has_value()) << who;
        }
        expectSame(got, want.end, who);
        EXPECT_EQ(tail(sim.output(), c.outputPrefix), want.output) << who;
    }
}

/** The same schedule through a gang of every lane of @p c. */
void
checkGang(Sims &sims, const Case &c, const StraightRuns &runs,
          const std::vector<bool> &mask, uint64_t quota, uint64_t budget,
          const std::string &at)
{
    const auto lanes = static_cast<unsigned>(c.lanes.size());
    std::vector<Reference> want;
    for (const auto &lane : c.lanes)
        want.push_back(
            reference(sims.oracle, c, lane, mask, quota, budget));

    Simulator base(c.program);
    apply(c.start, base.machine());
    GangSimulator gang(c.program, MemoryModel::Lenient, lanes);
    gang.reset(base.machine(), base.memory(), lanes, 0, 0, c.outputPrefix);
    RunResult got = gang.runUntilInjectable(1, runs, budget);
    ASSERT_STREQ(runStatusName(got.status), "paused") << at;
    for (unsigned l = 0; l < lanes; ++l) {
        auto machine = gang.laneMachine(l);
        apply(c.lanes[l], machine);
    }
    if (quota > 1)
        got = gang.runUntilInjectable(quota - 1, runs, budget);
    if (got.status == RunStatus::Paused) {
        for (unsigned l = 0; l < lanes; ++l) {
            if (!gang.laneInGang(l))
                continue;
            const std::string who = at + " gang lane " + std::to_string(l);
            ASSERT_TRUE(want[l].pause.has_value()) << who;
            expectSame(got, *want[l].pause, who + " at the pause");
            EXPECT_EQ(gang.injectableRetired(), want[l].injectablesAtPause)
                << who;
        }
        got = gang.runUntilInjectable(0, runs, budget);
    }
    auto exits = gang.takeExits();
    ASSERT_EQ(exits.size(), lanes) << at;
    for (const auto &exit : exits) {
        const std::string who = at + " gang lane " + std::to_string(exit.lane);
        ASSERT_EQ(exit.kind, GangSimulator::ExitKind::Finished) << who;
        const Reference &ref = want[exit.lane];
        expectSame(exit.run, ref.end, who);
        EXPECT_EQ(exit.instructions, ref.end.instructions) << who;
        EXPECT_EQ(exit.injectableRetired, ref.injectables) << who;
        if (ref.end.completed()) {
            EXPECT_EQ(exit.outputTail, ref.output) << who;
        }
    }
}

/** Every instruction but HALT (all), or PC 0 and every other one. */
std::vector<std::vector<bool>>
masks(const Program &program)
{
    std::vector<bool> all(program.size()), alternate(program.size());
    for (uint32_t pc = 0; pc < program.size(); ++pc) {
        all[pc] = program.code[pc].op != Opcode::HALT;
        alternate[pc] = all[pc] && pc % 2 == 0;
    }
    return {all, alternate};
}

/** Every quota under an ample budget, then every budget with no pause
 *  past the first retire, through both interpreters. */
void
sweep(const Case &c)
{
    SCOPED_TRACE(c.name);
    Sims sims(c.program);
    prepare(sims.oracle, c);
    const uint64_t length = sims.oracle.run().instructions;
    const uint64_t ample = length + 8;
    const uint64_t last = c.last ? c.last : length + 2;
    for (const auto &mask : masks(c.program)) {
        ASSERT_TRUE(mask[0]) << "the lanes fork at the first retire";
        const StraightRuns runs(c.program, mask);
        const std::string kind = mask[1] ? "all" : "alternate";
        for (uint64_t quota = c.first; quota <= last; ++quota) {
            const std::string at = kind + " quota " + std::to_string(quota);
            checkScalar(sims, c, runs, mask, quota, ample, at);
            checkGang(sims, c, runs, mask, quota, ample, at);
        }
        for (uint64_t budget = c.first; budget <= last; ++budget) {
            const std::string at = kind + " budget " + std::to_string(budget);
            checkScalar(sims, c, runs, mask, UINT64_MAX, budget, at);
            checkGang(sims, c, runs, mask, UINT64_MAX, budget, at);
        }
    }
}

/**
 * 0: nop; 1..7: a counted loop body whose divide and load can fault
 * (t3 = t4 - t7 is the divisor, t6 the load address), ending at
 * 8: bne; then 9: outw t0; 10: halt.
 */
Program
loopProgram()
{
    return makeProgram({
        make::nop(),
        make::r2i(Opcode::ADDI, REG_T0, REG_T0, 1),
        make::r3(Opcode::SUB, REG_T3, REG_T4, REG_T7),
        make::r3(Opcode::DIV, REG_T2, REG_T0, REG_T3),
        make::mem(Opcode::LW, REG_T5, REG_T6, 0),
        make::r3(Opcode::ADD, REG_T2, REG_T2, REG_T5),
        make::r1(Opcode::OUTB, REG_T2),
        make::r2i(Opcode::ADDI, REG_T4, REG_T4, -1),
        make::br2(Opcode::BNE, REG_T4, REG_ZERO, 1),
        make::r1(Opcode::OUTW, REG_T0),
        make::halt(),
    });
}

const LaneInit LOOP_START = {
    {REG_T4, 5}, {REG_T7, 100}, {REG_T6, DATA_BASE + 4}};

TEST(StraightRunsTest, TableCountsEachRunFromEveryPc)
{
    // 0 nop, 1 add, 2 beq -> 0, 3 nop, 4 halt, 5 nop, 6 add (falls off).
    Program program = makeProgram(
        {make::nop(), make::r3(Opcode::ADD, REG_T0, REG_T0, REG_T1),
         make::br2(Opcode::BEQ, REG_T0, REG_T1, 0), make::nop(),
         make::halt(), make::nop(),
         make::r3(Opcode::ADD, REG_T0, REG_T0, REG_T1)});
    const StraightRuns runs(program, {true, false, true, true, false,
                                      true, true});
    const std::vector<std::pair<uint32_t, uint32_t>> want = {
        {3, 2}, {2, 1}, {1, 1}, {2, 1}, {1, 0}, {0, 2}, {0, 1}};
    ASSERT_EQ(runs.size(), want.size());
    for (uint32_t pc = 0; pc < want.size(); ++pc) {
        EXPECT_EQ(runs[pc].length, want[pc].first) << "pc " << pc;
        EXPECT_EQ(runs[pc].injectable, want[pc].second) << "pc " << pc;
    }
    EXPECT_EQ(runs.injectable(1), 0u);
    EXPECT_EQ(runs.injectable(2), 1u);
}

TEST(StraightRunsTest, TimeoutsAndPausesAtEveryOffsetOfARun)
{
    Case c;
    c.name = "loop";
    c.program = loopProgram();
    c.start = LOOP_START;
    c.lanes = {{}, {{REG_T0, 7}}, {{REG_T6, DATA_BASE + 20}}};
    sweep(c);
}

TEST(StraightRunsTest, FaultsInsideARunKeepExactCounts)
{
    // Lane 1 divides by zero in the loop's third pass, lane 2 loads
    // misaligned in its first; lane 0 completes beside them.
    Case c;
    c.name = "faults";
    c.program = loopProgram();
    c.start = LOOP_START;
    c.lanes = {{}, {{REG_T7, 3}}, {{REG_T6, DATA_BASE + 2}}};
    sweep(c);
}

TEST(StraightRunsTest, OutputOverflowInsideARun)
{
    // The third outb (the 23rd instruction, in the loop's third pass)
    // crosses the output cap; the sweep stays near it, since every run
    // copies the 16 MB prefix.
    Case c;
    c.name = "output cap";
    c.program = loopProgram();
    c.start = LOOP_START;
    c.lanes = {{}, {{REG_T0, 9}}};
    c.outputPrefix = Simulator::OUTPUT_CAP - 2;
    c.first = 16;
    c.last = 25;
    sweep(c);
}

TEST(StraightRunsTest, JumpIntoTheMiddleOfARun)
{
    // 1: jr t5 lands on 4, inside the run 2..7; the loop then reruns
    // 2..7 whole.
    Case c;
    c.name = "jump into a run";
    c.program = makeProgram({
        make::nop(),
        make::jr(REG_T5),
        make::r2i(Opcode::ADDI, REG_T0, REG_T0, 1),
        make::r2i(Opcode::ADDI, REG_T1, REG_T1, 2),
        make::r2i(Opcode::ADDI, REG_T2, REG_T2, 3),
        make::r1(Opcode::OUTB, REG_T2),
        make::r2i(Opcode::ADDI, REG_T4, REG_T4, -1),
        make::br2(Opcode::BNE, REG_T4, REG_ZERO, 2),
        make::halt(),
    });
    c.start = {{REG_T5, 4}, {REG_T4, 3}};
    c.lanes = {{}, {{REG_T2, 40}}};
    sweep(c);
}

TEST(StraightRunsTest, ProgramWhoseLastInstructionFallsOffTheEnd)
{
    // No control transfer: every run falls off the end (length 0), so
    // everything steps, and falling off the end completes.
    Case c;
    c.name = "falls off the end";
    c.program = makeProgram({
        make::nop(),
        make::r2i(Opcode::ADDI, REG_T0, REG_T0, 7),
        make::r1(Opcode::OUTB, REG_T0),
        make::r2i(Opcode::ADDI, REG_T1, REG_T0, 1),
        make::r1(Opcode::OUTW, REG_T1),
    });
    c.lanes = {{}, {{REG_T0, 1}}};
    sweep(c);
}

TEST(StraightRunsTest, WildJumpAfterACountedRun)
{
    // The run 1..3 ends in jr to a target past the code: a bad jump at
    // the jr (every lane together: the gang's bad pack jump).
    Case c;
    c.name = "wild jump";
    c.program = makeProgram({
        make::nop(),
        make::r2i(Opcode::ADDI, REG_T0, REG_T0, 1),
        make::r1(Opcode::OUTB, REG_T0),
        make::jr(REG_T5),
        make::halt(),
    });
    c.start = {{REG_T5, 1000}};
    c.lanes = {{}, {{REG_T0, 3}}};
    sweep(c);
}

} // namespace
