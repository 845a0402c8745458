/**
 * @file
 * Static machine-instruction representation.
 *
 * A MachInst is a decoded instruction: opcode, up to two source registers,
 * an optional destination register, and an immediate. Memory and control
 * behaviour (effective addresses, branch outcomes) are dynamic properties
 * carried by exec::DynInst, not here.
 */

#ifndef MCA_ISA_INST_HH
#define MCA_ISA_INST_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "isa/opcodes.hh"
#include "isa/registers.hh"

namespace mca::isa
{

/** A decoded static instruction. */
struct MachInst
{
    Op op = Op::Nop;
    /** Destination register, if the instruction writes one. */
    std::optional<RegId> dest;
    /** Source registers; srcs[i] is engaged for i < numSrcs(). */
    std::array<std::optional<RegId>, 2> srcs;
    /** Immediate operand (displacements, shift counts, constants). */
    std::int64_t imm = 0;

    unsigned
    numSrcs() const
    {
        return (srcs[0] ? 1u : 0u) + (srcs[1] ? 1u : 0u);
    }

    bool hasDest() const { return dest.has_value(); }

    /** Disassembly-style rendering for logs and tests. */
    std::string toString() const;
};

/**
 * The operand of `mi` that breaks its opcode's shape rule — "dest",
 * "src0" or "src1" — or nullptr if the instruction is well-formed. The
 * rule says which operands each opcode has and their register classes
 * (what the compiler emits and the make* helpers build); a source is
 * never present without the ones before it.
 */
const char *illFormedOperand(const MachInst &mi);

/** Build a three-register ALU-style instruction. */
MachInst makeRRR(Op op, RegId dest, RegId src1, RegId src2);

/** Build a load: dest <- mem[base + disp]. */
MachInst makeLoad(Op op, RegId dest, RegId base, std::int64_t disp);

/** Build a store: mem[base + disp] <- data. */
MachInst makeStore(Op op, RegId data, RegId base, std::int64_t disp);

/** Build a conditional branch testing `cond`. */
MachInst makeBranch(Op op, RegId cond);

/** Build an unconditional control-flow instruction. */
MachInst makeJump(Op op);

} // namespace mca::isa

#endif // MCA_ISA_INST_HH
