/**
 * @file
 * Opcodes, opcode classes, and the functional-unit latency table.
 *
 * The opcode classes mirror the columns of the paper's Table 1: integer
 * multiply, other integer, floating-point divide, other floating point,
 * loads & stores, and control flow. Latencies come from Table 1 row 3:
 * integer multiply 6, other integer 1, fp divide 8 (32-bit) or 16 (64-bit,
 * not pipelined), other fp 3, loads and stores 1 with a single load-delay
 * slot, control flow 1.
 */

#ifndef MCA_ISA_OPCODES_HH
#define MCA_ISA_OPCODES_HH

#include <cstdint>
#include <string_view>

namespace mca::isa
{

/** Machine opcodes of the Alpha-like MCA ISA. */
enum class Op : std::uint8_t
{
    // Integer ALU (latency 1)
    Add, Sub, And, Or, Xor, Sll, Srl, Sra,
    CmpEq, CmpLt, CmpLe,
    Lda,        // load-address / immediate materialization
    Mov,        // integer register move

    // Integer multiply (latency 6)
    Mull,

    // Floating point, other (latency 3)
    AddF, SubF, MulF, CmpF, CvtIF, CvtFI, MovF,

    // Floating point divide (8 cycles single, 16 double; not pipelined)
    DivF, DivD, SqrtD,

    // Loads and stores (latency 1 + one load-delay slot)
    Ldl,        // integer load
    Ldt,        // floating-point load
    Stl,        // integer store
    Stt,        // floating-point store

    // Control flow (latency 1)
    Br,         // unconditional branch
    Beq, Bne,   // conditional on an integer register
    FBeq, FBne, // conditional on a floating-point register
    Jmp,        // indirect jump
    Jsr,        // call (writes the link register)
    Ret,        // return (reads the link register)

    Nop,

    NumOps
};

/** Functional-unit classes; the columns of the paper's Table 1. */
enum class OpClass : std::uint8_t
{
    IntMul,
    IntOther,
    FpDiv,
    FpOther,
    LoadStore,
    CtrlFlow,
    Nop,

    NumClasses
};

/** Map an opcode to its issue class. */
OpClass opClass(Op op);

/**
 * Execution latency in cycles.
 *
 * Loads report 2: the 1-cycle cache access plus the single load-delay slot
 * of Table 1 (a dependent may issue two cycles after the load).
 */
unsigned opLatency(Op op);

/** True if back-to-back issue to the unit is allowed (fully pipelined). */
bool opPipelined(Op op);

/** Mnemonic for printing. */
std::string_view opName(Op op);

inline bool
isLoad(Op op)
{
    return op == Op::Ldl || op == Op::Ldt;
}

inline bool
isStore(Op op)
{
    return op == Op::Stl || op == Op::Stt;
}

inline bool
isMemOp(Op op)
{
    return isLoad(op) || isStore(op);
}

inline bool
isCtrlFlow(Op op)
{
    return opClass(op) == OpClass::CtrlFlow;
}

inline bool
isCondBranch(Op op)
{
    return op == Op::Beq || op == Op::Bne || op == Op::FBeq ||
           op == Op::FBne;
}

inline bool
isCall(Op op)
{
    return op == Op::Jsr;
}

inline bool
isReturn(Op op)
{
    return op == Op::Ret;
}

} // namespace mca::isa

#endif // MCA_ISA_OPCODES_HH
