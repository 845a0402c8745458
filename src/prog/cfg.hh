/**
 * @file
 * Program representation: IL instructions, basic blocks, functions.
 *
 * A Program is the unit the compiler stack consumes: a set of functions,
 * each a control-flow graph of basic blocks whose IL instructions name
 * live ranges (ValueId), plus the tables of branch-behaviour models and
 * memory-address streams that give the program its dynamic behaviour.
 */

#ifndef MCA_PROG_CFG_HH
#define MCA_PROG_CFG_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/inst.hh"
#include "isa/opcodes.hh"
#include "prog/addr_stream.hh"
#include "prog/branch_model.hh"
#include "prog/value.hh"
#include "support/types.hh"

namespace mca::prog
{

using FunctionId = std::uint32_t;
using BlockId = std::uint32_t;

inline constexpr FunctionId kNoFunction = ~FunctionId{0};

/**
 * One IL instruction. IL instructions correspond one-to-one to machine
 * instructions but name live ranges instead of architectural registers
 * (paper §3.1 step 2).
 */
struct Instr
{
    isa::Op op = isa::Op::Nop;
    ValueId dest = kNoValue;
    std::array<ValueId, 2> srcs = {kNoValue, kNoValue};
    std::int64_t imm = 0;
    /** Address stream for memory operations. */
    AddrStreamId stream = kNoAddrStream;
    /** Behaviour model for conditional branches. */
    BranchModelId branchModel = kNoBranchModel;
    /** Callee for Jsr instructions. */
    FunctionId callee = kNoFunction;

    bool hasDest() const { return dest != kNoValue; }

    unsigned
    numSrcs() const
    {
        return (srcs[0] != kNoValue ? 1u : 0u) +
               (srcs[1] != kNoValue ? 1u : 0u);
    }
};

/**
 * A basic block: straight-line instructions plus ordered successors.
 *
 * Successor conventions:
 *  - conditional branch terminator: succs[0] = fall-through (not taken),
 *    succs[1] = taken target;
 *  - Br terminator or plain fall-through: succs[0] = the single successor;
 *  - Jmp terminator: any number of successors, selected by succWeights;
 *  - Jsr terminator: succs[0] = return continuation;
 *  - Ret terminator: no successors.
 */
struct BasicBlock
{
    BlockId id = 0;
    std::string name;
    std::vector<Instr> instrs;
    std::vector<BlockId> succs;
    /** Selection weights for indirect jumps (empty = uniform). */
    std::vector<double> succWeights;
    /**
     * Estimated executions of the block's first instruction — the sort
     * key of the local scheduler (§3.5). Seeded by the generator and
     * optionally replaced by a measured profile.
     */
    double weight = 1.0;
    /** Start PC assigned by Program::finalize(). */
    Addr startPc = 0;

    /** Terminator opcode, or Nop if the block falls through. */
    isa::Op
    terminatorOp() const
    {
        if (instrs.empty())
            return isa::Op::Nop;
        const isa::Op op = instrs.back().op;
        return isa::isCtrlFlow(op) ? op : isa::Op::Nop;
    }
};

/** A function: an entry block plus its CFG. */
struct Function
{
    FunctionId id = 0;
    std::string name;
    std::vector<BasicBlock> blocks;

    static constexpr BlockId kEntry = 0;
};

/** A whole program (IL level). */
struct Program
{
    std::string name;
    std::vector<Function> functions;
    std::vector<ValueInfo> values;
    std::vector<AddrStream> streams;
    std::vector<BranchModel> branchModels;
    /** Base address of the code segment (PC assignment). */
    Addr codeBase = 0x0010'0000;
    /** Base address reserved for compiler-inserted spill slots. */
    Addr spillBase = 0x7fff'0000;

    static constexpr FunctionId kMain = 0;

    /** Total static instruction count across all functions. */
    std::size_t staticInstCount() const;

    /**
     * Assign PCs to every block/instruction (4 bytes per instruction,
     * functions laid out contiguously from codeBase) and validate
     * structural invariants. Panics on malformed programs.
     */
    void finalize();
};

/**
 * One machine instruction inside a compiled (register-allocated) program,
 * carrying the same dynamic-behaviour references as its IL origin.
 */
struct MachEntry
{
    isa::MachInst mi;
    AddrStreamId stream = kNoAddrStream;
    BranchModelId branchModel = kNoBranchModel;
    FunctionId callee = kNoFunction;
    /**
     * Live range the destination was colored from (diagnostics), or
     * kNoValue for spill/reload code.
     */
    ValueId origin = kNoValue;
    /** True for compiler-inserted spill loads/stores. */
    bool isSpill = false;
};

/** Machine-level basic block (same CFG shape as the IL block). */
struct MachBlock
{
    BlockId id = 0;
    std::string name;
    std::vector<MachEntry> instrs;
    std::vector<BlockId> succs;
    std::vector<double> succWeights;
    double weight = 1.0;
    Addr startPc = 0;

    isa::Op
    terminatorOp() const
    {
        if (instrs.empty())
            return isa::Op::Nop;
        const isa::Op op = instrs.back().mi.op;
        return isa::isCtrlFlow(op) ? op : isa::Op::Nop;
    }
};

/** Machine-level function. */
struct MachFunction
{
    FunctionId id = 0;
    std::string name;
    std::vector<MachBlock> blocks;
};

/**
 * A compiled program: the executable the timing simulator runs. Shares
 * the IL program's stream/branch-model tables so native and rescheduled
 * binaries replay identical dynamic behaviour.
 */
struct MachProgram
{
    std::string name;
    std::vector<MachFunction> functions;
    std::vector<AddrStream> streams;
    std::vector<BranchModel> branchModels;
    Addr codeBase = 0x0010'0000;

    std::size_t staticInstCount() const;

    /** Assign PCs (same layout rule as Program::finalize). */
    void finalize();
};

/** Render the IL program as readable text (debugging aid). */
std::string dumpProgram(const Program &prog);

/** Render a compiled program's disassembly. */
std::string dumpProgram(const MachProgram &prog);

} // namespace mca::prog

#endif // MCA_PROG_CFG_HH
