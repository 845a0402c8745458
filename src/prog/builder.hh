/**
 * @file
 * Fluent construction API for IL programs.
 *
 * The workload generators and tests build programs through this class
 * rather than poking CFG structures directly; build() validates and
 * finalizes the result.
 */

#ifndef MCA_PROG_BUILDER_HH
#define MCA_PROG_BUILDER_HH

#include <string>

#include "prog/cfg.hh"

namespace mca::prog
{

class Builder
{
  public:
    explicit Builder(std::string program_name);

    // --- declarations -----------------------------------------------

    /** Declare a live range. */
    ValueId value(isa::RegClass cls, std::string name = "");

    /** Declare a live-in live range (defined before the region starts). */
    ValueId liveInValue(isa::RegClass cls, std::string name = "");

    /** Declare a global-register candidate live range (e.g. SP, GP). */
    ValueId globalValue(isa::RegClass cls, std::string name = "");

    /**
     * Promote an existing live range to a global-register candidate
     * (paper §2.1: globals suit "other commonly used variables" too).
     */
    void markGlobalCandidate(ValueId v);

    /** Register an address stream and return its id. */
    AddrStreamId stream(const AddrStream &s);

    /** Register a branch model and return its id. */
    BranchModelId branch(const BranchModel &m);

    /** Create a function; the first created function is main. */
    FunctionId function(std::string name);

    /** Create a block inside `fn` with a profile weight. */
    BlockId block(FunctionId fn, double weight = 1.0,
                  std::string name = "");

    // --- insertion point --------------------------------------------

    /** Direct subsequent emits to (fn, blk). */
    void setInsertPoint(FunctionId fn, BlockId blk);

    // --- instruction emission (at the insertion point) ---------------

    /** dest = op(src1, src2); returns the freshly created dest value. */
    ValueId emitRRR(isa::Op op, ValueId src1, ValueId src2,
                    std::string dest_name = "");

    /** Write into an existing live range: dest = op(src1, src2). */
    void emitRRRTo(ValueId dest, isa::Op op, ValueId src1, ValueId src2);

    /** dest = op(src, imm); returns the freshly created dest value. */
    ValueId emitRRI(isa::Op op, ValueId src, std::int64_t imm,
                    std::string dest_name = "");

    /** Write into an existing live range: dest = op(src, imm). */
    void emitRRITo(ValueId dest, isa::Op op, ValueId src, std::int64_t imm);

    /** dest = constant (Lda-style materialization). */
    ValueId emitConst(isa::RegClass cls, std::int64_t imm,
                      std::string dest_name = "");

    /** Load through an address stream; returns the loaded value. */
    ValueId emitLoad(isa::Op op, AddrStreamId stream, ValueId base,
                     std::string dest_name = "");

    /** Reload into an existing live range. */
    void emitLoadTo(ValueId dest, isa::Op op, AddrStreamId stream,
                    ValueId base);

    /** Store `data` through an address stream. */
    void emitStore(isa::Op op, ValueId data, AddrStreamId stream,
                   ValueId base);

    /** Conditional branch on `cond` resolved by `model`. */
    void emitBranch(isa::Op op, ValueId cond, BranchModelId model);

    /** Unconditional branch terminator. */
    void emitBr();

    /** Indirect jump terminator (successors chosen by succWeights). */
    void emitJmp(ValueId target);

    /** Call terminator. */
    void emitJsr(FunctionId callee);

    /** Return terminator. */
    void emitRet();

    /** Append a raw instruction (escape hatch for tests). */
    void emitRaw(const Instr &in);

    // --- edges --------------------------------------------------------

    /** Append `to` to the successor list of (fn, from). */
    void edge(FunctionId fn, BlockId from, BlockId to);

    /** Set indirect-jump selection weights for (fn, blk). */
    void succWeights(FunctionId fn, BlockId blk, std::vector<double> w);

    // --- finish -------------------------------------------------------

    /** Validate, assign PCs, and return the finished program. */
    Program build();

    /** Access the program under construction (tests only). */
    Program &raw() { return prog_; }

  private:
    BasicBlock &cursor();
    ValueId makeValue(isa::RegClass cls, std::string name, bool global,
                      bool live_in);

    Program prog_;
    FunctionId curFn_ = kNoFunction;
    BlockId curBlk_ = 0;
    bool built_ = false;
};

} // namespace mca::prog

#endif // MCA_PROG_BUILDER_HH
