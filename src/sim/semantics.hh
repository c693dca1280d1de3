/**
 * @file
 * Every value-computing opcode's semantics, written once and expanded
 * by both interpreters: the scalar Simulator's threaded loop
 * (sim/simulator.cc) and the GangSimulator's column loops
 * (sim/gang.cc).
 *
 * Each X-macro list holds one code shape. An entry names the opcode
 * and gives its result as an expression over raw 32-bit operands the
 * expanding interpreter binds (FP registers hold raw bit patterns):
 *
 *   a    the rs register (flat RegId, so an FP source reads its bits)
 *   b    the rt register
 *   imm  the immediate, as uint32_t
 *   fcc  the FP condition flag register (0 or 1)
 *   v    the value a load read, of the entry's access type
 *
 *   REGISTER_RESULTS  rd <- expr; writes to $zero are discarded
 *   FLAG_RESULTS      fcc <- expr ? 1 : 0
 *   BRANCHES          next PC <- expr ? target : PC + 1
 *   DIVIDES           b == 0 faults (DivByZero); else rd <- expr
 *   LOADS             v <- the access type at a + imm (a checked
 *                     access: see sim/memory.hh); rd <- expr
 *   STORES            the access type at a + imm <- rd, narrowed
 *
 * The ops that touch the PC, the link register, or the output stream
 * (INTERPRETER_OPS) are written in each interpreter. Together the
 * lists name every opcode of ETC_ISA_OPCODE_TABLE exactly once -- a
 * compile-time check below -- so a new opcode does not build until it
 * has semantics, and another backend or lane loop expands these lists
 * instead of copying them.
 */

#ifndef ETC_SIM_SEMANTICS_HH
#define ETC_SIM_SEMANTICS_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "isa/opcodes.hh"

// INT_MIN / -1 overflows in C++; MIPS leaves it unpredictable, and it
// is defined here as wrapping to INT_MIN with remainder 0.
#define ETC_SEM_DIVIDES(X)                                                 \
    X(DIV, sem::s32(a) == INT32_MIN && sem::s32(b) == -1                   \
               ? a                                                         \
               : sem::u32(sem::s32(a) / sem::s32(b)))                      \
    X(REM, sem::s32(a) == INT32_MIN && sem::s32(b) == -1                   \
               ? 0u                                                        \
               : sem::u32(sem::s32(a) % sem::s32(b)))

#define ETC_SEM_REGISTER_RESULTS(X)                                        \
    X(ADD, a + b)                                                          \
    X(SUB, a - b)                                                          \
    X(MUL, a * b)                                                          \
    X(AND, a & b)                                                          \
    X(OR, a | b)                                                           \
    X(XOR, a ^ b)                                                          \
    X(NOR, ~(a | b))                                                       \
    X(SLT, sem::s32(a) < sem::s32(b) ? 1u : 0u)                            \
    X(SLTU, a < b ? 1u : 0u)                                               \
    X(SLLV, a << (b & 31))                                                 \
    X(SRLV, a >> (b & 31))                                                 \
    X(SRAV, sem::u32(sem::s32(a) >> (b & 31)))                             \
    X(ADDI, a + imm)                                                       \
    X(ANDI, a & imm)                                                       \
    X(ORI, a | imm)                                                        \
    X(XORI, a ^ imm)                                                       \
    X(SLTI, sem::s32(a) < sem::s32(imm) ? 1u : 0u)                         \
    X(SLTIU, a < imm ? 1u : 0u)                                            \
    X(SLL, a << (imm & 31))                                                \
    X(SRL, a >> (imm & 31))                                                \
    X(SRA, sem::u32(sem::s32(a) >> (imm & 31)))                            \
    X(LUI, imm << 16)                                                      \
    X(ADDS, sem::bits(sem::f32(a) + sem::f32(b)))                          \
    X(SUBS, sem::bits(sem::f32(a) - sem::f32(b)))                          \
    X(MULS, sem::bits(sem::f32(a) * sem::f32(b)))                          \
    X(DIVS, sem::bits(sem::f32(a) / sem::f32(b)))                          \
    X(ABSS, sem::bits(std::fabs(sem::f32(a))))                             \
    X(NEGS, sem::bits(-sem::f32(a)))                                       \
    X(MOVS, a)                                                             \
    X(SQRTS, sem::bits(std::sqrt(sem::f32(a))))                            \
    X(CVTSW, sem::bits(static_cast<float>(sem::s32(a))))                   \
    X(CVTWS, sem::truncateToWord(sem::f32(a)))                             \
    X(MTC1, a)                                                             \
    X(MFC1, a)

#define ETC_SEM_FLAG_RESULTS(X)                                            \
    X(CEQS, sem::f32(a) == sem::f32(b))                                    \
    X(CLTS, sem::f32(a) < sem::f32(b))                                     \
    X(CLES, sem::f32(a) <= sem::f32(b))

#define ETC_SEM_BRANCHES(X)                                                \
    X(BEQ, a == b)                                                         \
    X(BNE, a != b)                                                         \
    X(BLEZ, sem::s32(a) <= 0)                                              \
    X(BGTZ, sem::s32(a) > 0)                                               \
    X(BLTZ, sem::s32(a) < 0)                                               \
    X(BGEZ, sem::s32(a) >= 0)                                              \
    X(BC1T, fcc != 0)                                                      \
    X(BC1F, fcc == 0)

#define ETC_SEM_LOADS(X)                                                   \
    X(LW, uint32_t, v)                                                     \
    X(LH, uint16_t, sem::u32(static_cast<int16_t>(v)))                     \
    X(LHU, uint16_t, v)                                                    \
    X(LB, uint8_t, sem::u32(static_cast<int8_t>(v)))                       \
    X(LBU, uint8_t, v)                                                     \
    X(LWC1, uint32_t, v)

#define ETC_SEM_STORES(X)                                                  \
    X(SW, uint32_t)                                                        \
    X(SH, uint16_t)                                                        \
    X(SB, uint8_t)                                                         \
    X(SWC1, uint32_t)

#define ETC_SEM_INTERPRETER_OPS(X)                                         \
    X(J) X(JAL) X(JR) X(JALR) X(NOP) X(HALT) X(OUTB) X(OUTW)

namespace etc::sim::sem {

constexpr int32_t s32(uint32_t x) { return static_cast<int32_t>(x); }
constexpr uint32_t u32(int32_t x) { return static_cast<uint32_t>(x); }
constexpr float f32(uint32_t x) { return std::bit_cast<float>(x); }
constexpr uint32_t bits(float x) { return std::bit_cast<uint32_t>(x); }

/** cvt.w.s: truncate toward zero; NaN reads 0 and out-of-range values
 *  saturate (C++ leaves the plain cast undefined there). */
inline uint32_t
truncateToWord(float value)
{
    if (std::isnan(value))
        return 0;
    if (value >= 2147483648.0f)
        return u32(INT32_MAX);
    if (value < -2147483648.0f)
        return u32(INT32_MIN);
    return u32(static_cast<int32_t>(value));
}

namespace detail {

constexpr bool
everyOpcodeOnce()
{
    std::array<unsigned, isa::NUM_OPCODES> seen{};
#define ETC_SEM_SEEN(name, ...)                                            \
    ++seen[static_cast<unsigned>(isa::Opcode::name)];
    ETC_SEM_REGISTER_RESULTS(ETC_SEM_SEEN)
    ETC_SEM_FLAG_RESULTS(ETC_SEM_SEEN)
    ETC_SEM_BRANCHES(ETC_SEM_SEEN)
    ETC_SEM_DIVIDES(ETC_SEM_SEEN)
    ETC_SEM_LOADS(ETC_SEM_SEEN)
    ETC_SEM_STORES(ETC_SEM_SEEN)
    ETC_SEM_INTERPRETER_OPS(ETC_SEM_SEEN)
#undef ETC_SEM_SEEN
    for (unsigned count : seen)
        if (count != 1)
            return false;
    return true;
}

} // namespace detail

static_assert(detail::everyOpcodeOnce(),
              "every opcode needs exactly one semantics entry");

} // namespace etc::sim::sem

#endif // ETC_SIM_SEMANTICS_HH
