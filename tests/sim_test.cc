/**
 * @file
 * Unit tests for the functional simulator: per-opcode semantics
 * (parameterized), memory models, fault classification, hooks.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <cstring>
#include <sstream>

#include "asm/assembler.hh"
#include "asm/builder.hh"
#include "sim/memory.hh"
#include "fault/injection.hh"
#include "sim/gang.hh"
#include "sim/profiler.hh"
#include "sim/simulator.hh"
#include "sim/tracer.hh"
#include "support/logging.hh"

namespace {

using namespace etc;
using namespace etc::isa;
using namespace etc::assembly;
using namespace etc::sim;

/** Run a tiny builder program and return the simulator for checks. */
Program
makeProgram(const std::function<void(ProgramBuilder &)> &body)
{
    ProgramBuilder b;
    b.beginFunction("main");
    body(b);
    b.halt();
    b.endFunction();
    return b.finish();
}

// ---- integer ALU semantics (table-driven, parameterized) -------------------

// CTest names each case of these suites after gtest's byte dump of its
// parameter, so the case structs spell out every byte: `tag` (and
// BranchCase's `tail`) fill what would otherwise be padding, whose
// indeterminate contents made the names change from build to build.
// The tag values keep the names the cases were first listed under.

struct AluCase
{
    Opcode op;
    uint8_t tag[3];
    int32_t a;
    int32_t b;
    int32_t expected;
};

class IntAluTest : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(IntAluTest, ComputesExpected)
{
    const AluCase &c = GetParam();
    auto prog = makeProgram([&](ProgramBuilder &b) {
        b.li(REG_T1, c.a);
        b.li(REG_T2, c.b);
        b.emit(make::r3(c.op, REG_T0, REG_T1, REG_T2));
    });
    Simulator sim(prog);
    auto result = sim.run();
    ASSERT_TRUE(result.completed());
    EXPECT_EQ(static_cast<int32_t>(sim.machine().readFlat(REG_T0)),
              c.expected)
        << mnemonic(c.op) << " " << c.a << ", " << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, IntAluTest,
    ::testing::Values(
        AluCase{Opcode::ADD, {}, 2, 3, 5},
        AluCase{Opcode::ADD, {}, 0x7fffffff, 1, INT32_MIN}, // wraps
        AluCase{Opcode::SUB, {0x2d, 0x67, 0x74}, 2, 3, -1},
        AluCase{Opcode::SUB, {0x73, 0x00, 0x6d}, INT32_MIN, 1, 0x7fffffff},
        AluCase{Opcode::MUL, {}, -4, 3, -12},
        AluCase{Opcode::MUL, {}, 0x10000, 0x10000, 0}, // low 32 bits
        AluCase{Opcode::DIV, {0x00, 0x01, 0x1b}, 7, 2, 3},
        AluCase{Opcode::DIV, {0xff, 0x48, 0x00}, -7, 2, -3}, // toward zero
        AluCase{Opcode::DIV, {}, INT32_MIN, -1, INT32_MIN},
        AluCase{Opcode::REM, {}, 7, 2, 1},
        AluCase{Opcode::REM, {0x00, 0x01, 0x1b}, -7, 2, -1},
        AluCase{Opcode::REM, {0xda, 0x48, 0x00}, INT32_MIN, -1, 0}));

INSTANTIATE_TEST_SUITE_P(
    Logic, IntAluTest,
    ::testing::Values(
        AluCase{Opcode::AND, {0xde, 0x66, 0x16}, 0x0ff0, 0x00ff, 0x00f0},
        AluCase{Opcode::OR, {0x41, 0x88, 0x1e}, 0x0ff0, 0x00ff, 0x0fff},
        AluCase{Opcode::XOR, {0xc0, 0x66, 0x16}, 0x0ff0, 0x00ff, 0x0f0f},
        AluCase{Opcode::NOR, {0xdb, 0x66, 0x16}, 0, 0, -1},
        AluCase{Opcode::NOR, {}, -1, 0, 0},
        AluCase{Opcode::SLT, {}, -1, 1, 1},
        AluCase{Opcode::SLT, {0x6d, 0x66, 0x16}, 1, -1, 0},
        AluCase{Opcode::SLT, {0xbc, 0x66, 0x16}, 3, 3, 0},
        AluCase{Opcode::SLTU, {0x6d, 0x66, 0x16}, -1, 1, 0}, // unsigned
        AluCase{Opcode::SLTU, {}, 1, -1, 1},
        AluCase{Opcode::SLLV, {}, 1, 5, 32},
        AluCase{Opcode::SLLV, {}, 1, 33, 2}, // shift amount masked
        AluCase{Opcode::SRLV, {0x6d, 0x66, 0x16}, -1, 28, 0xf},
        AluCase{Opcode::SRAV, {0x45, 0x88, 0x1e}, -16, 2, -4}));

// Immediate forms.
struct ImmCase
{
    Opcode op;
    uint8_t tag[3];
    int32_t a;
    int32_t imm;
    int32_t expected;
};

class ImmAluTest : public ::testing::TestWithParam<ImmCase>
{
};

TEST_P(ImmAluTest, ComputesExpected)
{
    const ImmCase &c = GetParam();
    auto prog = makeProgram([&](ProgramBuilder &b) {
        b.li(REG_T1, c.a);
        b.emit(make::r2i(c.op, REG_T0, REG_T1, c.imm));
    });
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(static_cast<int32_t>(sim.machine().readFlat(REG_T0)),
              c.expected)
        << mnemonic(c.op);
}

INSTANTIATE_TEST_SUITE_P(
    Immediates, ImmAluTest,
    ::testing::Values(
        ImmCase{Opcode::ADDI, {}, 10, -3, 7},
        ImmCase{Opcode::ANDI, {}, 0xff, 0x0f, 0x0f},
        ImmCase{Opcode::ORI, {0xbc, 0x66, 0x16}, 0xf0, 0x0f, 0xff},
        ImmCase{Opcode::XORI, {0x6d, 0x66, 0x16}, 0xff, 0x0f, 0xf0},
        ImmCase{Opcode::SLTI, {}, -5, 0, 1},
        ImmCase{Opcode::SLTI, {}, 5, 0, 0},
        ImmCase{Opcode::SLL, {}, 3, 4, 48},
        ImmCase{Opcode::SRL, {0x6d, 0x66, 0x16}, -1, 28, 0xf},
        ImmCase{Opcode::SRA, {0x45, 0x88, 0x1e}, -64, 3, -8}));

TEST(SimulatorTest, LuiShifts)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.emit(make::ri(Opcode::LUI, REG_T0, 0x1234));
    });
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_T0), 0x12340000u);
}

TEST(SimulatorTest, ZeroRegisterIsImmutable)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_ZERO, 55);
        b.move(REG_T0, REG_ZERO);
    });
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_T0), 0u);
}

// ---- traps ---------------------------------------------------------------

TEST(SimulatorTest, DivideByZeroTraps)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T1, 5);
        b.li(REG_T2, 0);
        b.div(REG_T0, REG_T1, REG_T2);
    });
    Simulator sim(prog);
    auto result = sim.run();
    EXPECT_EQ(result.status, RunStatus::DivByZero);
    EXPECT_TRUE(isCatastrophic(result.status));
    EXPECT_EQ(result.faultPc, 2u);
}

TEST(SimulatorTest, RemainderByZeroTraps)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T1, 5);
        b.li(REG_T2, 0);
        b.rem(REG_T0, REG_T1, REG_T2);
    });
    Simulator sim(prog);
    EXPECT_EQ(sim.run().status, RunStatus::DivByZero);
}

TEST(SimulatorTest, TimeoutOnInfiniteLoop)
{
    ProgramBuilder b;
    b.beginFunction("main");
    auto loop = b.newLabel();
    b.bind(loop);
    b.j(loop);
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    auto result = sim.run(1000);
    EXPECT_EQ(result.status, RunStatus::Timeout);
    EXPECT_EQ(result.instructions, 1000u);
}

TEST(SimulatorTest, WildJumpIsBadJump)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T0, 123456);
        b.jr(REG_T0);
    });
    Simulator sim(prog);
    EXPECT_EQ(sim.run().status, RunStatus::BadJump);
}

/** Static index of the first instruction with opcode @p op. */
uint32_t
indexOf(const Program &program, Opcode op)
{
    for (uint32_t pc = 0; pc < program.size(); ++pc)
        if (program.code[pc].op == op)
            return pc;
    ADD_FAILURE() << "no " << mnemonic(op);
    return 0;
}

TEST(SimulatorTest, BadJumpReportsTheTransferThatLeftTheCode)
{
    // faultPc is the jr whose target left the code, not the target.
    auto wild = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T0, 123456);
        b.jr(REG_T0);
    });
    const uint32_t wildJr = indexOf(wild, Opcode::JR);
    const std::vector<bool> none(wild.size());
    const StraightRuns wildRuns(wild, none);

    struct Nothing : ExecHook
    {
        void
        onRetire(uint32_t, const Instruction &, Machine &, Memory &) override
        {
        }
    } nothing;
    for (int path = 0; path < 3; ++path) {
        Simulator sim(wild);
        RunResult result = path == 0   ? sim.run()
                           : path == 1 ? sim.run(0, &nothing)
                                       : sim.runUntilInjectable(0, wildRuns);
        EXPECT_EQ(result.status, RunStatus::BadJump) << "path " << path;
        EXPECT_EQ(result.faultPc, wildJr) << "path " << path;
        EXPECT_EQ(sim.machine().pc, 123456u) << "path " << path;
    }

    // A jr that stays in the code, paused at and corrupted by a flip:
    // the next call reports the jr -- on the scalar path, in a lane
    // the flip evicts and drains, and in a gang whose every lane
    // jumped.
    auto tame = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T0, 3); // the second nop
        b.jr(REG_T0);
        b.nop();
        b.nop();
    });
    const uint32_t jr = indexOf(tame, Opcode::JR);
    ASSERT_EQ(jr, 1u);
    std::vector<bool> mask(tame.size());
    mask[0] = mask[jr] = true;
    const StraightRuns runs(tame, mask);

    Simulator scalar(tame);
    RunResult paused = scalar.runUntilInjectable(2, runs);
    ASSERT_EQ(paused.status, RunStatus::Paused);
    ASSERT_EQ(paused.faultPc, jr);
    scalar.machine().pc = 9000;
    RunResult end = scalar.runUntilInjectable(0, runs, 0, paused.instructions);
    EXPECT_EQ(end.status, RunStatus::BadJump);
    EXPECT_EQ(end.faultPc, jr);
    EXPECT_EQ(end.instructions, paused.instructions);

    Simulator base(tame);
    GangSimulator gang(tame, MemoryModel::Lenient, 2);
    // Lane 1 stays an alias, so the pack follows golden and lane 0
    // leaves alone.
    gang.reset(base.machine(), base.memory(), 2, 0, 0, 0);
    ASSERT_EQ(gang.runUntilInjectable(2, runs, 1000).status,
              RunStatus::Paused);
    gang.laneMachine(0).pc = 9000;
    ASSERT_EQ(gang.runUntilInjectable(0, runs, 1000).status,
              RunStatus::Completed);
    for (const auto &exit : gang.takeExits()) {
        if (exit.lane != 0) {
            EXPECT_TRUE(exit.run.completed());
            continue;
        }
        ASSERT_EQ(exit.kind, GangSimulator::ExitKind::Diverged);
        Simulator drain(tame);
        drain.machine() = exit.machine;
        RunResult drained =
            drain.runUntilInjectable(0, runs, 1000, exit.instructions);
        EXPECT_EQ(drained.status, RunStatus::BadJump);
        EXPECT_EQ(drained.faultPc, jr);
    }

    // Both lanes materialize at the first retire (so golden retires),
    // then both jump out together: the gang's bad pack jump.
    gang.reset(base.machine(), base.memory(), 2, 0, 0, 0);
    ASSERT_EQ(gang.runUntilInjectable(1, runs, 1000).status,
              RunStatus::Paused);
    gang.laneMachine(0);
    gang.laneMachine(1);
    ASSERT_EQ(gang.runUntilInjectable(1, runs, 1000).status,
              RunStatus::Paused);
    gang.laneMachine(0).pc = 9000;
    gang.laneMachine(1).pc = 9000;
    gang.runUntilInjectable(0, runs, 1000);
    auto exits = gang.takeExits();
    ASSERT_EQ(exits.size(), 2u);
    for (const auto &exit : exits) {
        EXPECT_EQ(exit.kind, GangSimulator::ExitKind::Finished);
        EXPECT_EQ(exit.run.status, RunStatus::BadJump);
        EXPECT_EQ(exit.run.faultPc, jr);
    }
}

TEST(SimulatorTest, ReturnFromEntryCompletes)
{
    // main returning via $ra (initialized to code size) is a clean exit.
    ProgramBuilder b;
    b.beginFunction("main");
    b.li(REG_V0, 9);
    b.ret();
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    EXPECT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_V0), 9u);
}

TEST(SimulatorTest, MisalignedWordAccessTraps)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T1, static_cast<int32_t>(DATA_BASE + 2));
        b.lw(REG_T0, 0, REG_T1);
    });
    Simulator sim(prog);
    EXPECT_EQ(sim.run().status, RunStatus::MemoryFault);
}

TEST(SimulatorTest, MisalignedHalfAccessTraps)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T1, static_cast<int32_t>(DATA_BASE + 1));
        b.sh(REG_T0, 0, REG_T1);
    });
    Simulator sim(prog);
    EXPECT_EQ(sim.run().status, RunStatus::MemoryFault);
}

TEST(SimulatorTest, LenientModelZeroFillsWildReads)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T1, 0x00001000); // far outside both regions
        b.lw(REG_T0, 0, REG_T1);
        b.li(REG_T2, 77);
        b.sw(REG_T2, 0, REG_T1);  // dropped
        b.lw(REG_T3, 0, REG_T1);  // still zero
    });
    Simulator sim(prog, MemoryModel::Lenient);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_T0), 0u);
    EXPECT_EQ(sim.machine().readFlat(REG_T3), 0u);
}

TEST(SimulatorTest, StrictModelFaultsWildReads)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T1, 0x00001000);
        b.lw(REG_T0, 0, REG_T1);
    });
    Simulator sim(prog, MemoryModel::Strict);
    EXPECT_EQ(sim.run().status, RunStatus::MemoryFault);
}

// ---- memory semantics -------------------------------------------------------

TEST(SimulatorTest, LoadStoreWidths)
{
    ProgramBuilder b;
    b.dataWords("buf", {0, 0, 0, 0});
    b.beginFunction("main");
    b.la(REG_T9, "buf");
    b.li(REG_T0, -2);                 // 0xfffffffe
    b.sw(REG_T0, 0, REG_T9);
    b.lw(REG_T1, 0, REG_T9);          // -2
    b.li(REG_T0, 0x8001);
    b.sh(REG_T0, 4, REG_T9);
    b.lh(REG_T2, 4, REG_T9);          // sign-extends to 0xffff8001
    b.lhu(REG_T3, 4, REG_T9);         // zero-extends
    b.li(REG_T0, 0x80);
    b.sb(REG_T0, 8, REG_T9);
    b.lb(REG_T4, 8, REG_T9);          // -128
    b.lbu(REG_T5, 8, REG_T9);         // 128
    b.halt();
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    const auto &m = sim.machine();
    EXPECT_EQ(static_cast<int32_t>(m.readFlat(REG_T1)), -2);
    EXPECT_EQ(m.readFlat(REG_T2), 0xffff8001u);
    EXPECT_EQ(m.readFlat(REG_T3), 0x8001u);
    EXPECT_EQ(static_cast<int32_t>(m.readFlat(REG_T4)), -128);
    EXPECT_EQ(m.readFlat(REG_T5), 128u);
}

TEST(SimulatorTest, DataSegmentLoadedAtReset)
{
    ProgramBuilder b;
    b.dataWords("vals", {111, 222});
    b.beginFunction("main");
    b.la(REG_T9, "vals");
    b.lw(REG_T0, 4, REG_T9);
    b.halt();
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_T0), 222u);
    // Mutate memory, reset, verify the image is restored.
    sim.memory().hostWrite32(prog.dataAddress("vals") + 4, 999);
    sim.reset();
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_T0), 222u);
}

TEST(SimulatorTest, StackIsUsable)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.addi(REG_SP, REG_SP, -8);
        b.li(REG_T0, 321);
        b.sw(REG_T0, 0, REG_SP);
        b.lw(REG_T1, 0, REG_SP);
        b.addi(REG_SP, REG_SP, 8);
    });
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_T1), 321u);
}

// ---- control flow ------------------------------------------------------------

struct BranchCase
{
    Opcode op;
    uint8_t tag[3];
    int32_t a;
    int32_t b;
    bool taken;
    uint8_t tail[3];
};

class BranchTest : public ::testing::TestWithParam<BranchCase>
{
};

TEST_P(BranchTest, TakenOrNot)
{
    const BranchCase &c = GetParam();
    ProgramBuilder b;
    b.beginFunction("main");
    auto target = b.newLabel();
    b.li(REG_T1, c.a);
    b.li(REG_T2, c.b);
    if (format(c.op) == Format::Br2)
        b.emit(make::br2(c.op, REG_T1, REG_T2, 0));
    else
        b.emit(make::br1(c.op, REG_T1, 0));
    // Patch the target via the label mechanism: emit a fall-through
    // marker, then the target.
    b.li(REG_V0, 1);    // fall-through path
    b.halt();
    b.bind(target);
    b.li(REG_V0, 2);    // taken path
    b.halt();
    b.endFunction();
    auto prog = b.finish();
    // Fix the branch target manually (we bypassed emitBranch).
    prog.code[2].target = 5;
    prog.validate();
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_V0), c.taken ? 2u : 1u)
        << mnemonic(c.op) << " " << c.a << " " << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    AllBranches, BranchTest,
    ::testing::Values(
        BranchCase{Opcode::BEQ, {0x41, 0x88, 0x1e}, 4, 4, true,
                   {0x7f, 0x00, 0x00}},
        BranchCase{Opcode::BEQ, {0x0c, 0x67, 0x16}, 4, 5, false,
                   {0x64, 0x59, 0x92}},
        BranchCase{Opcode::BNE, {0x14, 0x67, 0x16}, 4, 5, true,
                   {0xff, 0xff, 0xff}},
        BranchCase{Opcode::BNE, {}, 4, 4, false, {0x55, 0x00, 0x00}},
        BranchCase{Opcode::BLEZ, {}, 0, 0, true, {0x55, 0x00, 0x00}},
        BranchCase{Opcode::BLEZ, {0x6f, 0x66, 0x16}, -3, 0, true,
                   {0x7f, 0x00, 0x00}},
        BranchCase{Opcode::BLEZ, {0xbc, 0x66, 0x16}, 1, 0, false,
                   {0x64, 0x59, 0x92}},
        BranchCase{Opcode::BGTZ, {0x6f, 0x66, 0x16}, 1, 0, true,
                   {0x64, 0x59, 0x92}},
        BranchCase{Opcode::BGTZ, {}, 0, 0, false, {0xff, 0xff, 0xff}},
        BranchCase{Opcode::BLTZ, {}, -1, 0, true, {0x55, 0x00, 0x00}},
        BranchCase{Opcode::BLTZ, {}, 0, 0, false, {0x55, 0x00, 0x00}},
        BranchCase{Opcode::BGEZ, {0x6f, 0x66, 0x16}, 0, 0, true,
                   {0x7f, 0x00, 0x00}},
        BranchCase{Opcode::BGEZ, {0x45, 0x88, 0x1e}, -1, 0, false,
                   {0x55, 0x00, 0x00}}));

TEST(SimulatorTest, CallAndReturnLinkage)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.call("triple");
    b.move(REG_S0, REG_V0);
    b.halt();
    b.endFunction();
    b.beginFunction("triple");
    b.li(REG_T0, 3);
    b.li(REG_T1, 9);
    b.mul(REG_V0, REG_T0, REG_T1);
    b.ret();
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_S0), 27u);
}

TEST(SimulatorTest, JalrLinksAndJumps)
{
    ProgramBuilder b;
    b.beginFunction("main");
    b.li(REG_T0, 4);             // address of the 'leaf' first instr
    b.emit(make::jalr(REG_T7, REG_T0));
    b.move(REG_S0, REG_V0);
    b.halt();
    b.endFunction();
    b.beginFunction("leaf");
    b.li(REG_V0, 5);
    b.jr(REG_T7);
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_S0), 5u);
}

// ---- floating point -----------------------------------------------------------

TEST(SimulatorTest, FpArithmetic)
{
    ProgramBuilder b;
    b.dataFloats("v", {2.5f, 4.0f});
    b.beginFunction("main");
    b.la(REG_T9, "v");
    b.lwc1(fpReg(1), 0, REG_T9);
    b.lwc1(fpReg(2), 4, REG_T9);
    b.adds(fpReg(3), fpReg(1), fpReg(2));   // 6.5
    b.subs(fpReg(4), fpReg(1), fpReg(2));   // -1.5
    b.muls(fpReg(5), fpReg(1), fpReg(2));   // 10
    b.divs(fpReg(6), fpReg(2), fpReg(1));   // 1.6
    b.abss(fpReg(7), fpReg(4));             // 1.5
    b.negs(fpReg(8), fpReg(1));             // -2.5
    b.sqrts(fpReg(9), fpReg(2));            // 2
    b.halt();
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    const auto &m = sim.machine();
    EXPECT_FLOAT_EQ(std::bit_cast<float>(m.readFlat(fpReg(3))), 6.5f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(m.readFlat(fpReg(4))), -1.5f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(m.readFlat(fpReg(5))), 10.0f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(m.readFlat(fpReg(6))), 1.6f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(m.readFlat(fpReg(7))), 1.5f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(m.readFlat(fpReg(8))), -2.5f);
    EXPECT_FLOAT_EQ(std::bit_cast<float>(m.readFlat(fpReg(9))), 2.0f);
}

TEST(SimulatorTest, FpConversions)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T0, -7);
        b.mtc1(REG_T0, fpReg(1));
        b.cvtsw(fpReg(2), fpReg(1));     // int bits -> float -7.0
        b.cvtws(fpReg(3), fpReg(2));     // back to int -7
        b.mfc1(REG_T1, fpReg(3));
        b.lif(fpReg(4), 3.9f);
        b.cvtws(fpReg(5), fpReg(4));     // truncates to 3
        b.mfc1(REG_T2, fpReg(5));
        b.lif(fpReg(6), -3.9f);
        b.cvtws(fpReg(7), fpReg(6));     // truncates to -3
        b.mfc1(REG_T3, fpReg(7));
    });
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    const auto &m = sim.machine();
    EXPECT_EQ(static_cast<int32_t>(m.readFlat(REG_T1)), -7);
    EXPECT_EQ(static_cast<int32_t>(m.readFlat(REG_T2)), 3);
    EXPECT_EQ(static_cast<int32_t>(m.readFlat(REG_T3)), -3);
}

TEST(SimulatorTest, FpConversionEdgeCases)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.lif(fpReg(1), std::numeric_limits<float>::quiet_NaN());
        b.cvtws(fpReg(2), fpReg(1));
        b.mfc1(REG_T0, fpReg(2));        // NaN -> 0
        b.lif(fpReg(3), 3e9f);
        b.cvtws(fpReg(4), fpReg(3));
        b.mfc1(REG_T1, fpReg(4));        // saturates to INT_MAX
        b.lif(fpReg(5), -3e9f);
        b.cvtws(fpReg(6), fpReg(5));
        b.mfc1(REG_T2, fpReg(6));        // saturates to INT_MIN
    });
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    const auto &m = sim.machine();
    EXPECT_EQ(static_cast<int32_t>(m.readFlat(REG_T0)), 0);
    EXPECT_EQ(static_cast<int32_t>(m.readFlat(REG_T1)), INT32_MAX);
    EXPECT_EQ(static_cast<int32_t>(m.readFlat(REG_T2)), INT32_MIN);
}

TEST(SimulatorTest, FpComparesAndBranches)
{
    ProgramBuilder b;
    b.beginFunction("main");
    auto taken = b.newLabel();
    b.lif(fpReg(1), 1.0f);
    b.lif(fpReg(2), 2.0f);
    b.clts(fpReg(1), fpReg(2));
    b.bc1t(taken);
    b.li(REG_V0, 1);
    b.halt();
    b.bind(taken);
    b.li(REG_V0, 2);
    b.ceqs(fpReg(1), fpReg(1));
    b.bc1f(taken); // not taken: 1.0 == 1.0
    b.cles(fpReg(2), fpReg(1));
    b.bc1t(taken); // not taken: 2.0 > 1.0
    b.halt();
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    EXPECT_EQ(sim.machine().readFlat(REG_V0), 2u);
}

// ---- output stream --------------------------------------------------------------

TEST(SimulatorTest, OutputStream)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T0, 0x41);
        b.outb(REG_T0);
        b.li(REG_T1, 0x03020100);
        b.outw(REG_T1);
    });
    Simulator sim(prog);
    ASSERT_TRUE(sim.run().completed());
    ASSERT_EQ(sim.output().size(), 5u);
    EXPECT_EQ(sim.output()[0], 0x41);
    EXPECT_EQ(sim.output()[1], 0x00);
    EXPECT_EQ(sim.output()[4], 0x03);
}

// ---- hooks & profiler --------------------------------------------------------------

TEST(ProfilerTest, CountsClasses)
{
    ProgramBuilder b;
    b.dataWords("w", {5});
    b.beginFunction("main");
    auto loop = b.newLabel();
    b.li(REG_T0, 3);                  // ALU (def)
    b.bind(loop);
    b.la(REG_T9, "w");                // ALU
    b.lw(REG_T1, 0, REG_T9);          // load
    b.sw(REG_T1, 0, REG_T9);          // store
    b.addi(REG_T0, REG_T0, -1);       // ALU
    b.bgtz(REG_T0, loop);             // branch
    b.halt();
    b.endFunction();
    auto prog = b.finish();

    std::vector<bool> tags(prog.size(), false);
    tags[2] = true; // the lw
    Simulator sim(prog);
    Profiler profiler(tags);
    auto result = sim.run(0, &profiler);
    ASSERT_TRUE(result.completed());
    const auto &p = profiler.profile();
    EXPECT_EQ(p.total, result.instructions);
    EXPECT_EQ(p.branches, 3u);        // 3 loop iterations
    EXPECT_EQ(p.memoryOps, 6u);       // lw+sw per iteration
    EXPECT_EQ(p.tagged, 3u);          // the lw retired 3 times
    EXPECT_GT(p.defBearing, 0u);
    EXPECT_GT(p.taggedFraction(), 0.0);
}

TEST(HookTest, HookSeesPcAfterUpdate)
{
    // The hook must observe the *next* pc (a branch's result).
    struct PcRecorder : ExecHook
    {
        std::vector<uint32_t> pcs;
        void
        onRetire(uint32_t, const Instruction &, Machine &m,
                 Memory &) override
        {
            pcs.push_back(m.pc);
        }
    };
    ProgramBuilder b;
    b.beginFunction("main");
    auto skip = b.newLabel();
    b.j(skip);
    b.nop();
    b.bind(skip);
    b.halt();
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    PcRecorder recorder;
    ASSERT_TRUE(sim.run(0, &recorder).completed());
    ASSERT_EQ(recorder.pcs.size(), 2u); // j + halt
    EXPECT_EQ(recorder.pcs[0], 2u);     // jump's result skipped the nop
}

// ---- tracer -----------------------------------------------------------------------

TEST(TracerTest, RecordsWindowedTrace)
{
    ProgramBuilder b;
    b.beginFunction("main");
    auto loop = b.newLabel();
    b.li(REG_T0, 4);                 // 0
    b.bind(loop);
    b.addi(REG_T0, REG_T0, -1);      // 1
    b.bgtz(REG_T0, loop);            // 2
    b.halt();                        // 3
    b.endFunction();
    auto prog = b.finish();
    Simulator sim(prog);
    Tracer tracer(3);
    auto result = sim.run(0, &tracer);
    ASSERT_TRUE(result.completed());
    EXPECT_EQ(tracer.observed(), result.instructions);
    ASSERT_EQ(tracer.records().size(), 3u); // window bound
    // The last record is the halt; the one before it the final bgtz.
    EXPECT_EQ(tracer.records().back().ins.op, Opcode::HALT);
    const auto &branch = tracer.records()[1];
    EXPECT_EQ(branch.ins.op, Opcode::BGTZ);
    EXPECT_EQ(branch.nextPc, 3u); // not taken on the last iteration
    std::ostringstream oss;
    tracer.print(oss);
    EXPECT_NE(oss.str().find("elided"), std::string::npos);
    EXPECT_NE(oss.str().find("halt"), std::string::npos);
}

TEST(TracerTest, RecordsPostWritebackValues)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T0, 7);
        b.sll(REG_T0, REG_T0, 2);
    });
    Simulator sim(prog);
    Tracer tracer(8);
    ASSERT_TRUE(sim.run(0, &tracer).completed());
    ASSERT_GE(tracer.records().size(), 2u);
    EXPECT_TRUE(tracer.records()[0].hasValue);
    EXPECT_EQ(tracer.records()[0].value, 7u);
    EXPECT_EQ(tracer.records()[1].value, 28u);
}

TEST(TracerTest, ChainsToInjectorAndSeesFlippedValue)
{
    auto prog = makeProgram([](ProgramBuilder &b) {
        b.li(REG_T0, 0);
    });
    std::vector<bool> injectable(prog.size(), false);
    injectable[0] = true;
    etc::fault::InjectionPlan plan;
    plan.sites = {0};
    plan.masks = {1u << 5};
    etc::fault::Injector injector(injectable, plan);
    Simulator sim(prog);
    Tracer tracer(8, &injector);
    ASSERT_TRUE(sim.run(0, &tracer).completed());
    // The tracer runs after the chained injector, so it records the
    // corrupted value.
    EXPECT_EQ(tracer.records()[0].value, 32u);
}

// ---- memory unit ------------------------------------------------------------------

TEST(MemoryTest, HostAccessOutOfRangePanics)
{
    Memory mem(DATA_BASE, DATA_BASE + 64);
    EXPECT_THROW(mem.hostRead32(0x100), PanicError);
    EXPECT_THROW(mem.hostWrite8(0x100, 1), PanicError);
}

TEST(MemoryTest, BlockRoundTrip)
{
    Memory mem(DATA_BASE, DATA_BASE + 64);
    std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
    mem.hostWriteBlock(DATA_BASE, bytes);
    EXPECT_EQ(mem.hostReadBlock(DATA_BASE, 5), bytes);
}

TEST(MemoryTest, InBoundsRegions)
{
    Memory mem(DATA_BASE, DATA_BASE + 100);
    EXPECT_TRUE(mem.inBounds(DATA_BASE, 4));
    EXPECT_TRUE(mem.inBounds(DATA_BASE + 100, 4)); // heap slack
    EXPECT_FALSE(mem.inBounds(0, 4));
    EXPECT_TRUE(mem.inBounds(STACK_TOP - 8, 8));
    EXPECT_FALSE(mem.inBounds(0xffffffff, 4));
}

TEST(MemoryTest, ClearDropsContents)
{
    Memory mem(DATA_BASE, DATA_BASE + 64);
    mem.hostWrite32(DATA_BASE, 42);
    mem.clear();
    EXPECT_EQ(mem.hostRead32(DATA_BASE), 0u);
}

} // namespace
