/**
 * @file
 * Differential test of the two interpreters. Every opcode of
 * ETC_ISA_OPCODE_TABLE runs through a GangSimulator whose lanes hold
 * distinct operands (written through laneMachine()/laneMemory() at a
 * pause) and, once per lane, through the scalar Simulator started from
 * the same state. Every instruction is injectable, so both sides pause
 * after each retire: while a lane executes in the gang, its registers,
 * PC, memory, and instruction count must match its scalar twin at
 * every retire; when it leaves, a finished lane's status, faultPc,
 * instruction count, and output must match the twin's final result,
 * and a diverged lane's snapshot must match the twin at that retire
 * and, rehydrated into a scalar Simulator, finish exactly like it.
 *
 * The edge cases are the ones where two copies of an opcode's
 * semantics would drift apart: INT_MIN / -1 and zero divisors, NaN,
 * infinite, and out-of-range cvt.w.s inputs, $zero destinations,
 * jalr with rd == rs, misaligned, straddling, and out-of-region
 * addresses under both memory models, lanes that agree and disagree on
 * an address, golden-lane aliases, and the output cap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
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

constexpr RegId RS = REG_T0;
constexpr RegId RT = REG_T1;
constexpr RegId RD = REG_T2;
constexpr RegId ZERO = REG_ZERO;
constexpr RegId FS = fpReg(2);
constexpr RegId FT = fpReg(4);
constexpr RegId FD = fpReg(6);

/** Static data size: not a word multiple, so one aligned word
 *  straddles the end of the data segment's heap slack. */
constexpr uint32_t DATA_BYTES = 66;
constexpr uint32_t DATA_LIMIT = DATA_BASE + DATA_BYTES + Memory::HEAP_SLACK;
constexpr uint32_t STACK_END = assembly::STACK_TOP + 4;

uint32_t
u(int32_t value)
{
    return static_cast<uint32_t>(value);
}

uint32_t
bits(float value)
{
    return std::bit_cast<uint32_t>(value);
}

/** Register values and aligned memory words one lane starts from. */
struct LaneInit
{
    std::vector<std::pair<RegId, uint32_t>> regs;
    std::vector<std::pair<uint32_t, uint32_t>> words;
};

struct Case
{
    std::string name;
    Program program;
    MemoryModel model = MemoryModel::Lenient;
    LaneInit golden;             //!< the base state every lane forks from
    std::vector<LaneInit> lanes; //!< materialized lanes, in lane order
    unsigned aliases = 1;        //!< further lanes left golden aliases
    size_t outputPrefix = 0;     //!< bytes emitted before the gang
    uint64_t budget = 200;
};

Program
makeProgram(std::vector<Instruction> code)
{
    Program program;
    program.code = std::move(code);
    program.functions.push_back({"main", 0, program.size()});
    assembly::DataChunk chunk;
    chunk.addr = DATA_BASE;
    for (uint32_t i = 0; i < DATA_BYTES; ++i)
        chunk.bytes.push_back(static_cast<uint8_t>(0x81 + 37 * i));
    program.data.push_back(chunk);
    program.dataEnd = DATA_BASE + DATA_BYTES;
    return program;
}

/** nop (the pause that sets lane operands), @p body, halt. */
Program
straightLine(std::vector<Instruction> body)
{
    std::vector<Instruction> code{make::nop()};
    code.insert(code.end(), body.begin(), body.end());
    code.push_back(make::halt());
    return makeProgram(std::move(code));
}

template <typename MachineT, typename MemoryT>
void
apply(const LaneInit &init, MachineT &machine, MemoryT &memory)
{
    for (const auto &[reg, value] : init.regs)
        machine.writeFlat(reg, value);
    for (const auto &[addr, value] : init.words)
        ASSERT_EQ(memory.write(addr, value), MemStatus::Ok);
}

/** Bytes of the compared memory windows; a faulting read is -1 - status. */
template <typename MemoryT>
std::vector<int>
window(MemoryT &memory)
{
    const std::pair<uint32_t, uint32_t> ranges[] = {
        {DATA_BASE, DATA_BASE + 72},
        {DATA_LIMIT - 8, DATA_LIMIT + 4},
        {STACK_END - 16, STACK_END}};
    std::vector<int> bytes;
    for (const auto &[lo, hi] : ranges) {
        for (uint32_t addr = lo; addr < hi; ++addr) {
            uint8_t value = 0;
            MemStatus status = memory.read(addr, value);
            bytes.push_back(status == MemStatus::Ok
                                ? value
                                : -1 - static_cast<int>(status));
        }
    }
    return bytes;
}

/** One retire boundary of a scalar run. */
struct State
{
    uint64_t instructions = 0;
    Machine machine;
    std::vector<int> memory;
    std::vector<uint8_t> outputTail; //!< output past the prefix
};

/** A scalar run paused after every retire. */
struct Trace
{
    std::vector<State> steps;   //!< steps[0]: after the first retire
    std::vector<Opcode> retired; //!< the op of each retired instruction
    RunResult end;
    std::vector<uint8_t> outputTail;
};

StraightRuns
everyInstruction(const Program &program)
{
    std::vector<bool> mask(program.size(), true);
    for (uint32_t i = 0; i < program.size(); ++i)
        if (program.code[i].op == Opcode::HALT)
            mask[i] = false;
    return StraightRuns(program, mask);
}

std::vector<uint8_t>
tail(const std::vector<uint8_t> &output, size_t prefix)
{
    return {output.begin() + static_cast<ptrdiff_t>(prefix), output.end()};
}

/** The scalar twin of one lane (@p lane null: a golden alias). */
Trace
scalarTrace(const Case &c, const LaneInit *lane, const StraightRuns &mask)
{
    Simulator sim(c.program, c.model);
    apply(c.golden, sim.machine(), sim.memory());
    sim.appendOutput(std::vector<uint8_t>(c.outputPrefix, 0xa5));
    Trace trace;
    uint64_t instructions = 0;
    for (;;) {
        uint32_t pc = sim.machine().pc;
        RunResult run =
            sim.runUntilInjectable(1, mask, c.budget, instructions);
        if (run.instructions > instructions)
            trace.retired.push_back(c.program.code[pc].op);
        instructions = run.instructions;
        if (run.status != RunStatus::Paused) {
            trace.end = run;
            trace.outputTail = tail(sim.output(), c.outputPrefix);
            return trace;
        }
        if (trace.steps.empty() && lane)
            apply(*lane, sim.machine(), sim.memory());
        trace.steps.push_back(State{instructions, sim.machine(),
                                    window(sim.memory()),
                                    tail(sim.output(), c.outputPrefix)});
    }
}

void
expectSameEnd(const RunResult &got, const std::vector<uint8_t> &gotTail,
              const Trace &want, const std::string &who)
{
    EXPECT_STREQ(runStatusName(got.status), runStatusName(want.end.status))
        << who;
    EXPECT_EQ(got.faultPc, want.end.faultPc) << who;
    EXPECT_EQ(got.instructions, want.end.instructions) << who;
    if (want.end.completed()) {
        EXPECT_EQ(gotTail, want.outputTail) << who;
    }
}

/** Run @p c through the gang, comparing each lane with its twin;
 *  adds the ops lanes retired inside the gang to @p covered. */
void
runCase(const Case &c, std::set<Opcode> &covered)
{
    SCOPED_TRACE(c.name);
    const StraightRuns mask = everyInstruction(c.program);
    const unsigned live = static_cast<unsigned>(c.lanes.size());
    const unsigned lanes = live + c.aliases;
    std::vector<Trace> twins;
    for (const auto &lane : c.lanes)
        twins.push_back(scalarTrace(c, &lane, mask));
    twins.push_back(scalarTrace(c, nullptr, mask)); // every alias
    auto twinOf = [&](unsigned lane) -> const Trace & {
        return twins[std::min(lane, live)];
    };

    Simulator base(c.program, c.model);
    apply(c.golden, base.machine(), base.memory());
    GangSimulator gang(c.program, c.model, lanes);
    gang.reset(base.machine(), base.memory(), lanes, 0, 0,
               c.outputPrefix);

    RunResult run = gang.runUntilInjectable(1, mask, c.budget);
    ASSERT_STREQ(runStatusName(run.status), runStatusName(RunStatus::Paused));
    for (unsigned l = 0; l < live; ++l) {
        auto machine = gang.laneMachine(l);
        auto memory = gang.laneMemory(l);
        apply(c.lanes[l], machine, memory);
    }
    for (size_t step = 0;; ++step) {
        ASSERT_LE(step, c.budget);
        for (unsigned l = 0; l < live; ++l) {
            if (!gang.laneInGang(l))
                continue;
            std::string who =
                "lane " + std::to_string(l) + " step " + std::to_string(step);
            ASSERT_LT(step, twins[l].steps.size()) << who;
            const State &want = twins[l].steps[step];
            EXPECT_EQ(run.instructions, want.instructions) << who;
            auto machine = gang.laneMachine(l);
            EXPECT_EQ(machine.pc, want.machine.pc) << who;
            for (unsigned r = 0; r < NUM_REGS; ++r) {
                auto reg = static_cast<RegId>(r);
                EXPECT_EQ(machine.readFlat(reg), want.machine.readFlat(reg))
                    << who << " " << regName(reg);
            }
            auto memory = gang.laneMemory(l);
            EXPECT_EQ(window(memory), want.memory) << who;
        }
        run = gang.runUntilInjectable(1, mask, c.budget);
        if (run.status != RunStatus::Paused)
            break;
    }

    auto exits = gang.takeExits();
    ASSERT_EQ(exits.size(), lanes);
    std::vector<bool> seen(lanes, false);
    for (const auto &exit : exits) {
        ASSERT_LT(exit.lane, lanes);
        ASSERT_FALSE(seen[exit.lane]) << "lane " << exit.lane;
        seen[exit.lane] = true;
        const Trace &want = twinOf(exit.lane);
        std::string who = "lane " + std::to_string(exit.lane);
        for (size_t i = 0; i < exit.instructions && i < want.retired.size();
             ++i)
            covered.insert(want.retired[i]);
        if (exit.kind == GangSimulator::ExitKind::Finished) {
            expectSameEnd(exit.run, exit.outputTail, want, who);
            continue;
        }
        // A diverged lane's snapshot is its twin at that retire...
        auto at = std::find_if(want.steps.begin(), want.steps.end(),
                               [&](const State &s) {
                                   return s.instructions == exit.instructions;
                               });
        ASSERT_NE(at, want.steps.end()) << who;
        EXPECT_TRUE(exit.machine == at->machine) << who;
        EXPECT_EQ(exit.outputTail, at->outputTail) << who;
        // ...and rehydrated into a scalar simulator, it finishes alike.
        Simulator drain(c.program, c.model);
        apply(c.golden, drain.machine(), drain.memory());
        for (const auto &[pageNumber, bytes] : exit.pages)
            drain.memory().setPage(pageNumber, bytes);
        drain.machine() = exit.machine;
        drain.appendOutput(std::vector<uint8_t>(c.outputPrefix, 0xa5));
        drain.appendOutput(exit.outputTail);
        EXPECT_EQ(window(drain.memory()), at->memory) << who;
        RunResult end =
            drain.runUntilInjectable(0, mask, c.budget, exit.instructions);
        expectSameEnd(end, tail(drain.output(), c.outputPrefix), want, who);
    }
}

LaneInit
regs(std::vector<std::pair<RegId, uint32_t>> values)
{
    return LaneInit{std::move(values), {}};
}

// ---- operand sets ------------------------------------------------------

const std::vector<std::pair<uint32_t, uint32_t>> INT_PAIRS = {
    {0, 0},           {7, 2},           {u(-7), 2},
    {u(INT32_MIN), u(-1)},              {u(INT32_MIN), 1},
    {0x7fffffff, 1},  {0xdeadbeef, 33}, {u(-16), 2},
    {1, u(-1)},       {5, 0},           {u(-1), 31}};

const std::vector<uint32_t> INT_VALUES = {
    0, 1, u(-1), u(INT32_MIN), 0x7fffffff, 0xdeadbeef, 5, 0x8000};

const uint32_t QNAN = 0x7fc00001, NEG_QNAN = 0xffc00001,
               SNAN = 0x7f800001, INF = 0x7f800000, NEG_INF = 0xff800000;

/** FP operand pairs with at most one distinct NaN payload, so which
 *  payload a result carries never depends on operand order. */
const std::vector<std::pair<uint32_t, uint32_t>> FP_PAIRS = {
    {bits(1.5f), bits(2.25f)}, {QNAN, bits(1.0f)}, {bits(-3.0f), SNAN},
    {INF, NEG_INF},            {INF, INF},         {bits(-0.0f), 0},
    {bits(1e30f), bits(1e30f)}, {bits(1.0f), 0},   {0, 0},
    {1, 1},                    {bits(3.0f), bits(7.0f)},
    {NEG_QNAN, NEG_QNAN}};

const std::vector<uint32_t> FP_VALUES = {
    QNAN,         NEG_QNAN,       SNAN,           INF,
    NEG_INF,      0x4f000000,     0xcf000000,     0xcf000001,
    0x4effffff,   bits(1e10f),    bits(-1.5f),    bits(2.5f),
    bits(-2.5f),  0x80000000,     1,              0x7fffffff,
    16777217,     u(-16777217),   bits(0.5f),     u(-1)};

// ---- case groups -------------------------------------------------------

std::vector<Case>
integerCases()
{
    std::vector<Case> cases;
    for (Opcode op : {Opcode::ADD, Opcode::SUB, Opcode::MUL, Opcode::DIV,
                      Opcode::REM, Opcode::AND, Opcode::OR, Opcode::XOR,
                      Opcode::NOR, Opcode::SLT, Opcode::SLTU, Opcode::SLLV,
                      Opcode::SRLV, Opcode::SRAV}) {
        for (RegId rd : {RD, ZERO, RS}) {
            Case c;
            c.name = std::string(mnemonic(op)) + " rd=" + regName(rd);
            c.program = straightLine({make::r3(op, rd, RS, RT),
                                      make::r1(Opcode::OUTW, rd)});
            c.golden = regs({{RS, 9}, {RT, 3}});
            for (const auto &[a, b] : INT_PAIRS)
                c.lanes.push_back(regs({{RS, a}, {RT, b}, {RD, 0x5a5a5a5a}}));
            cases.push_back(std::move(c));
        }
    }
    for (Opcode op : {Opcode::ADDI, Opcode::ANDI, Opcode::ORI, Opcode::XORI,
                      Opcode::SLTI, Opcode::SLTIU, Opcode::SLL, Opcode::SRL,
                      Opcode::SRA}) {
        for (int32_t imm : {-1, 5, 0x8001, 33}) {
            for (RegId rd : {RD, ZERO}) {
                Case c;
                c.name = std::string(mnemonic(op)) + " imm=" +
                         std::to_string(imm) + " rd=" + regName(rd);
                c.program = straightLine({make::r2i(op, rd, RS, imm)});
                c.golden = regs({{RS, 12}});
                for (uint32_t a : INT_VALUES)
                    c.lanes.push_back(regs({{RS, a}, {RD, 0x5a5a5a5a}}));
                cases.push_back(std::move(c));
            }
        }
    }
    for (int32_t imm : {0x1234, -1, 0}) {
        for (RegId rd : {RD, ZERO}) {
            Case c;
            c.name = "lui imm=" + std::to_string(imm) + " rd=" + regName(rd);
            c.program = straightLine({make::ri(Opcode::LUI, rd, imm)});
            for (uint32_t a : INT_VALUES)
                c.lanes.push_back(regs({{RD, a}}));
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

/** Effective addresses every memory case's lanes access: aligned,
 *  misaligned, in the heap slack, straddling its end, on the stack,
 *  past the stack, and wrapping around 2^32. */
const std::vector<uint32_t> ADDRESSES = {
    DATA_BASE + 4,    DATA_BASE + 5,     DATA_BASE + 6,
    DATA_BASE + 60,   DATA_LIMIT - 2,    DATA_LIMIT - 4,
    0x100,            STACK_END - 4,     STACK_END - 3,
    STACK_END,        0xfffffffc,        DATA_BASE - 4};

constexpr int32_t OFFSET = 4;

std::vector<Case>
memoryCases()
{
    std::vector<Case> cases;
    for (MemoryModel model : {MemoryModel::Lenient, MemoryModel::Strict}) {
        std::string modelName =
            model == MemoryModel::Strict ? " strict" : " lenient";
        for (Opcode op : {Opcode::LW, Opcode::LH, Opcode::LHU, Opcode::LB,
                          Opcode::LBU, Opcode::LWC1, Opcode::SW, Opcode::SH,
                          Opcode::SB, Opcode::SWC1}) {
            bool fp = op == Opcode::LWC1 || op == Opcode::SWC1;
            bool store = instrClass(op) == InstrClass::Store;
            std::vector<RegId> dataRegs;
            if (fp)
                dataRegs = {store ? FT : FD};
            else if (store)
                dataRegs = {RT, RS};
            else
                dataRegs = {RD, ZERO, RS};
            for (RegId data : dataRegs) {
                // Lanes disagree on the address, then agree on one
                // (the gang's hoisted uniform-address path) while
                // holding different data.
                for (bool uniform : {false, true}) {
                    Case c;
                    c.name = std::string(mnemonic(op)) + " data=" +
                             regName(data) + modelName +
                             (uniform ? " uniform" : " scattered");
                    c.model = model;
                    c.program =
                        straightLine({make::mem(op, data, RS, OFFSET),
                                      make::r1(Opcode::OUTW, RD)});
                    // The base register is written last: it may double
                    // as the data register.
                    c.golden = regs({{data, 0x01020304}, {RS, DATA_BASE}});
                    for (unsigned l = 0; l < ADDRESSES.size(); ++l) {
                        uint32_t addr = uniform ? DATA_BASE + 8 : ADDRESSES[l];
                        uint32_t value = 0x8000ff80u ^ (l * 0x01010101u);
                        LaneInit lane =
                            regs({{data, value}, {RS, addr - OFFSET}});
                        lane.words = {{DATA_BASE + 8, value ^ 0x00ff00ffu},
                                      {STACK_END - 4, ~value}};
                        c.lanes.push_back(std::move(lane));
                    }
                    cases.push_back(std::move(c));
                }
            }
        }
        // Every lane faults on one shared address: no golden alias
        // (the golden lane never faults).
        for (Opcode op : {Opcode::LW, Opcode::SH}) {
            Case c;
            c.name = std::string(mnemonic(op)) + " all-fault" + modelName;
            c.model = model;
            c.program = straightLine({make::mem(op, RT, RS, OFFSET)});
            c.aliases = 0;
            for (uint32_t v : {1u, 2u, 3u})
                c.lanes.push_back(regs({{RS, 0x101}, {RT, v}}));
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

/** nop, @p branch (taken target 4), outw RS, halt, outb RT, halt. */
Program
branchProgram(Instruction branch)
{
    branch.target = 4;
    return makeProgram({make::nop(), branch, make::r1(Opcode::OUTW, RS),
                        make::halt(), make::r1(Opcode::OUTB, RT),
                        make::halt()});
}

std::vector<Case>
controlCases()
{
    std::vector<Case> cases;
    // Each shape runs with a golden alias (the pack follows golden)
    // and without one (the pack follows the lane majority).
    for (unsigned aliases : {1u, 0u}) {
        std::string suffix = aliases ? " golden" : " majority";
        for (Opcode op : {Opcode::BEQ, Opcode::BNE}) {
            Case c;
            c.name = std::string(mnemonic(op)) + suffix;
            c.program = branchProgram(make::br2(op, RS, RT, 0));
            c.aliases = aliases;
            c.golden = regs({{RS, 3}, {RT, 3}});
            for (const auto &[a, b] : INT_PAIRS)
                c.lanes.push_back(regs({{RS, a}, {RT, b}}));
            c.lanes.push_back(regs({{RS, 4}, {RT, 4}}));
            cases.push_back(std::move(c));
        }
        for (Opcode op :
             {Opcode::BLEZ, Opcode::BGTZ, Opcode::BLTZ, Opcode::BGEZ}) {
            Case c;
            c.name = std::string(mnemonic(op)) + suffix;
            c.program = branchProgram(make::br1(op, RS, 0));
            c.aliases = aliases;
            c.golden = regs({{RS, 2}});
            for (uint32_t a : INT_VALUES)
                c.lanes.push_back(regs({{RS, a}, {RT, a ^ 0x55}}));
            cases.push_back(std::move(c));
        }
        for (Opcode op : {Opcode::BC1T, Opcode::BC1F}) {
            Case c;
            c.name = std::string(mnemonic(op)) + suffix;
            c.program = branchProgram(make::jmp(op, 0));
            c.aliases = aliases;
            for (uint32_t flag : {0u, 1u, 2u, 3u, 1u})
                c.lanes.push_back(
                    regs({{FP_FLAG_REG, flag}, {RS, flag + 10}}));
            cases.push_back(std::move(c));
        }
        {
            Case c;
            c.name = "j" + suffix;
            c.program =
                makeProgram({make::nop(), make::jmp(Opcode::J, 3),
                             make::r1(Opcode::OUTW, RS),
                             make::r1(Opcode::OUTB, RT), make::halt()});
            c.aliases = aliases;
            for (uint32_t a : INT_VALUES)
                c.lanes.push_back(regs({{RS, a}, {RT, ~a}}));
            cases.push_back(std::move(c));
        }
        {
            // jal 3; 3: outw $ra; jr $ra -> 2: halt.
            Case c;
            c.name = "jal" + suffix;
            c.program = makeProgram(
                {make::nop(), make::jmp(Opcode::JAL, 3), make::halt(),
                 make::r1(Opcode::OUTW, REG_RA), make::jr(REG_RA)});
            c.aliases = aliases;
            for (uint32_t a : INT_VALUES)
                c.lanes.push_back(regs({{REG_RA, a}}));
            cases.push_back(std::move(c));
        }
        {
            // Targets: in range, one past the end (completion), past
            // it (bad jump), and back to the start (a timeout).
            Case c;
            c.name = "jr" + suffix;
            c.program = makeProgram(
                {make::nop(), make::jr(RS), make::r1(Opcode::OUTW, RS),
                 make::halt(), make::r1(Opcode::OUTB, RS), make::halt()});
            c.aliases = aliases;
            c.golden = regs({{RS, 4}});
            for (uint32_t target : {2u, 4u, 4u, 6u, 7u, 0xffffffffu, 0u})
                c.lanes.push_back(regs({{RS, target}}));
            cases.push_back(std::move(c));
        }
        // jalr links before it reads the target, so rd == rs jumps to
        // the link; a $zero link is discarded.
        for (auto [rd, rs] : {std::pair<RegId, RegId>{RD, RS},
                              std::pair<RegId, RegId>{RS, RS},
                              std::pair<RegId, RegId>{ZERO, RS}}) {
            Case c;
            c.name = "jalr rd=" + regName(rd) + " rs=" + regName(rs) + suffix;
            c.program = makeProgram(
                {make::nop(), make::jalr(rd, rs), make::r1(Opcode::OUTW, RD),
                 make::halt(), make::r1(Opcode::OUTB, RS),
                 make::r1(Opcode::OUTW, RD), make::halt()});
            c.aliases = aliases;
            c.golden = regs({{rs, 4}});
            for (uint32_t target : {2u, 4u, 4u, 7u, 9u, 3u})
                c.lanes.push_back(regs({{rs, target}, {RD, 0x77}}));
            cases.push_back(std::move(c));
        }
    }
    {
        // A loop that never ends: the shared budget times every lane
        // out inside the gang.
        Case c;
        c.name = "timeout";
        c.program =
            makeProgram({make::nop(), make::r2i(Opcode::ADDI, RS, RS, 1),
                         make::jmp(Opcode::J, 1)});
        c.budget = 40;
        for (uint32_t a : {0u, 100u, u(-5)})
            c.lanes.push_back(regs({{RS, a}}));
        cases.push_back(std::move(c));
    }
    {
        // Falling off the end of the code is a completion.
        Case c;
        c.name = "fall-off-end";
        c.program = makeProgram({make::nop(), make::r1(Opcode::OUTB, RS)});
        for (uint32_t a : INT_VALUES)
            c.lanes.push_back(regs({{RS, a}}));
        cases.push_back(std::move(c));
    }
    return cases;
}

std::vector<Case>
floatCases()
{
    std::vector<Case> cases;
    for (Opcode op :
         {Opcode::ADDS, Opcode::SUBS, Opcode::MULS, Opcode::DIVS}) {
        for (RegId fd : {FD, FS}) {
            Case c;
            c.name = std::string(mnemonic(op)) + " fd=" + regName(fd);
            c.program = straightLine({make::r3(op, fd, FS, FT)});
            c.golden = regs({{FS, bits(2.0f)}, {FT, bits(4.0f)}});
            for (const auto &[a, b] : FP_PAIRS)
                c.lanes.push_back(regs({{FS, a}, {FT, b}}));
            cases.push_back(std::move(c));
        }
    }
    for (Opcode op : {Opcode::ABSS, Opcode::NEGS, Opcode::MOVS, Opcode::SQRTS,
                      Opcode::CVTSW, Opcode::CVTWS}) {
        for (RegId fd : {FD, FS}) {
            Case c;
            c.name = std::string(mnemonic(op)) + " fd=" + regName(fd);
            c.program = straightLine({make::r3(op, fd, FS, 0)});
            c.golden = regs({{FS, bits(4.0f)}});
            for (uint32_t a : FP_VALUES)
                c.lanes.push_back(regs({{FS, a}, {FD, 0x5a5a5a5a}}));
            cases.push_back(std::move(c));
        }
    }
    for (Opcode op : {Opcode::CEQS, Opcode::CLTS, Opcode::CLES}) {
        Case c;
        c.name = mnemonic(op);
        c.program = straightLine({make::r3(op, 0, FS, FT)});
        c.golden = regs({{FS, bits(1.0f)}, {FT, bits(2.0f)}});
        for (const auto &[a, b] : FP_PAIRS)
            c.lanes.push_back(regs({{FS, a}, {FT, b}, {FP_FLAG_REG, 1}}));
        c.lanes.push_back(regs({{FS, bits(2.0f)}, {FT, bits(1.0f)}}));
        cases.push_back(std::move(c));
    }
    {
        Case c;
        c.name = "mtc1";
        c.program = straightLine({make::r3(Opcode::MTC1, FD, RS, 0)});
        for (uint32_t a : INT_VALUES)
            c.lanes.push_back(regs({{RS, a}}));
        cases.push_back(std::move(c));
    }
    for (RegId rd : {RD, ZERO}) {
        Case c;
        c.name = "mfc1 rd=" + regName(rd);
        c.program = straightLine({make::r3(Opcode::MFC1, rd, FS, 0),
                                  make::r1(Opcode::OUTW, rd)});
        for (uint32_t a : FP_VALUES)
            c.lanes.push_back(regs({{FS, a}}));
        cases.push_back(std::move(c));
    }
    return cases;
}

std::vector<Case>
outputCases()
{
    std::vector<Case> cases;
    {
        Case c;
        c.name = "outb outw";
        c.program = straightLine(
            {make::r1(Opcode::OUTB, RS), make::r1(Opcode::OUTW, RT),
             make::r1(Opcode::OUTB, REG_ZERO), make::nop()});
        for (uint32_t a : INT_VALUES)
            c.lanes.push_back(regs({{RS, a}, {RT, ~a}}));
        cases.push_back(std::move(c));
    }
    // The output cap: every lane emits in lockstep, so all of them
    // overflow on the same instruction -- outw past the cap, then outb
    // reaching it exactly and the next one crossing it. No golden
    // alias (the golden lane never faults).
    for (Opcode op : {Opcode::OUTW, Opcode::OUTB}) {
        Case c;
        c.name = std::string("output cap ") + mnemonic(op);
        c.program = straightLine({make::r1(op, RS), make::r1(op, RS),
                                  make::r1(op, RS)});
        c.outputPrefix = Simulator::OUTPUT_CAP - 2;
        c.aliases = 0;
        for (uint32_t a : {1u, 2u})
            c.lanes.push_back(regs({{RS, a}}));
        cases.push_back(std::move(c));
    }
    return cases;
}

void
runAll(const std::vector<Case> &cases, std::set<Opcode> &covered)
{
    for (const auto &c : cases)
        runCase(c, covered);
}

TEST(InterpDifferentialTest, IntegerAlu)
{
    std::set<Opcode> covered;
    runAll(integerCases(), covered);
}

TEST(InterpDifferentialTest, LoadsAndStoresUnderBothMemoryModels)
{
    std::set<Opcode> covered;
    runAll(memoryCases(), covered);
}

TEST(InterpDifferentialTest, BranchesJumpsAndEnds)
{
    std::set<Opcode> covered;
    runAll(controlCases(), covered);
}

TEST(InterpDifferentialTest, FloatingPoint)
{
    std::set<Opcode> covered;
    runAll(floatCases(), covered);
}

TEST(InterpDifferentialTest, OutputAndOutputCap)
{
    std::set<Opcode> covered;
    runAll(outputCases(), covered);
}

TEST(InterpDifferentialTest, EveryTableOpcodeRanThroughTheGang)
{
    std::set<Opcode> covered;
    for (const auto &group : {integerCases(), memoryCases(), controlCases(),
                              floatCases(), outputCases()})
        runAll(group, covered);
    std::vector<std::string> missing;
#define ETC_X(mnem, enumName, fmt, cls)                                    \
    if (!covered.count(Opcode::enumName))                                  \
        missing.push_back(#mnem);
    ETC_ISA_OPCODE_TABLE(ETC_X)
#undef ETC_X
    EXPECT_TRUE(missing.empty())
        << "opcodes never retired inside a gang: " << missing.size()
        << " (first: " << (missing.empty() ? "" : missing.front()) << ")";
    EXPECT_EQ(covered.size(), NUM_OPCODES);
}

} // namespace
