#include "prog/builder.hh"

#include "support/panic.hh"

namespace mca::prog
{

Builder::Builder(std::string program_name)
{
    prog_.name = std::move(program_name);
}

ValueId
Builder::makeValue(isa::RegClass cls, std::string name, bool global,
                   bool live_in)
{
    ValueInfo info;
    info.cls = cls;
    info.name = std::move(name);
    info.globalCandidate = global;
    info.liveIn = live_in;
    prog_.values.push_back(std::move(info));
    return static_cast<ValueId>(prog_.values.size() - 1);
}

ValueId
Builder::value(isa::RegClass cls, std::string name)
{
    return makeValue(cls, std::move(name), false, false);
}

ValueId
Builder::liveInValue(isa::RegClass cls, std::string name)
{
    return makeValue(cls, std::move(name), false, true);
}

ValueId
Builder::globalValue(isa::RegClass cls, std::string name)
{
    // Global-register candidates (SP/GP) are always live-in: they exist
    // before the simulated region starts.
    return makeValue(cls, std::move(name), true, true);
}

void
Builder::markGlobalCandidate(ValueId v)
{
    MCA_ASSERT(v < prog_.values.size(), "markGlobalCandidate: bad value");
    prog_.values[v].globalCandidate = true;
}

AddrStreamId
Builder::stream(const AddrStream &s)
{
    prog_.streams.push_back(s);
    return static_cast<AddrStreamId>(prog_.streams.size() - 1);
}

BranchModelId
Builder::branch(const BranchModel &m)
{
    prog_.branchModels.push_back(m);
    return static_cast<BranchModelId>(prog_.branchModels.size() - 1);
}

FunctionId
Builder::function(std::string name)
{
    Function fn;
    fn.id = static_cast<FunctionId>(prog_.functions.size());
    fn.name = std::move(name);
    prog_.functions.push_back(std::move(fn));
    return prog_.functions.back().id;
}

BlockId
Builder::block(FunctionId fn, double weight, std::string name)
{
    MCA_ASSERT(fn < prog_.functions.size(), "block in unknown function");
    auto &blocks = prog_.functions[fn].blocks;
    BasicBlock blk;
    blk.id = static_cast<BlockId>(blocks.size());
    blk.weight = weight;
    blk.name = std::move(name);
    blocks.push_back(std::move(blk));
    return blocks.back().id;
}

void
Builder::setInsertPoint(FunctionId fn, BlockId blk)
{
    MCA_ASSERT(fn < prog_.functions.size(), "insert point: bad function");
    MCA_ASSERT(blk < prog_.functions[fn].blocks.size(),
               "insert point: bad block");
    curFn_ = fn;
    curBlk_ = blk;
}

BasicBlock &
Builder::cursor()
{
    MCA_ASSERT(curFn_ != kNoFunction, "no insert point set");
    return prog_.functions[curFn_].blocks[curBlk_];
}

ValueId
Builder::emitRRR(isa::Op op, ValueId src1, ValueId src2,
                 std::string dest_name)
{
    const isa::RegClass cls = prog_.values[src1].cls;
    const ValueId dest = value(cls, std::move(dest_name));
    emitRRRTo(dest, op, src1, src2);
    return dest;
}

void
Builder::emitRRRTo(ValueId dest, isa::Op op, ValueId src1, ValueId src2)
{
    Instr in;
    in.op = op;
    in.dest = dest;
    in.srcs = {src1, src2};
    cursor().instrs.push_back(in);
}

ValueId
Builder::emitRRI(isa::Op op, ValueId src, std::int64_t imm,
                 std::string dest_name)
{
    const isa::RegClass cls = prog_.values[src].cls;
    const ValueId dest = value(cls, std::move(dest_name));
    emitRRITo(dest, op, src, imm);
    return dest;
}

void
Builder::emitRRITo(ValueId dest, isa::Op op, ValueId src, std::int64_t imm)
{
    Instr in;
    in.op = op;
    in.dest = dest;
    in.srcs = {src, kNoValue};
    in.imm = imm;
    cursor().instrs.push_back(in);
}

ValueId
Builder::emitConst(isa::RegClass cls, std::int64_t imm,
                   std::string dest_name)
{
    const ValueId dest = value(cls, std::move(dest_name));
    Instr in;
    in.op = cls == isa::RegClass::Int ? isa::Op::Lda : isa::Op::CvtIF;
    in.dest = dest;
    in.imm = imm;
    cursor().instrs.push_back(in);
    return dest;
}

ValueId
Builder::emitLoad(isa::Op op, AddrStreamId stream, ValueId base,
                  std::string dest_name)
{
    const isa::RegClass cls =
        op == isa::Op::Ldt ? isa::RegClass::Fp : isa::RegClass::Int;
    const ValueId dest = value(cls, std::move(dest_name));
    emitLoadTo(dest, op, stream, base);
    return dest;
}

void
Builder::emitLoadTo(ValueId dest, isa::Op op, AddrStreamId stream,
                    ValueId base)
{
    MCA_ASSERT(isa::isLoad(op), "emitLoad with non-load op");
    Instr in;
    in.op = op;
    in.dest = dest;
    in.srcs = {base, kNoValue};
    in.stream = stream;
    cursor().instrs.push_back(in);
}

void
Builder::emitStore(isa::Op op, ValueId data, AddrStreamId stream,
                   ValueId base)
{
    MCA_ASSERT(isa::isStore(op), "emitStore with non-store op");
    Instr in;
    in.op = op;
    in.srcs = {data, base};
    in.stream = stream;
    cursor().instrs.push_back(in);
}

void
Builder::emitBranch(isa::Op op, ValueId cond, BranchModelId model)
{
    MCA_ASSERT(isa::isCondBranch(op), "emitBranch with non-branch op");
    Instr in;
    in.op = op;
    in.srcs = {cond, kNoValue};
    in.branchModel = model;
    cursor().instrs.push_back(in);
}

void
Builder::emitBr()
{
    Instr in;
    in.op = isa::Op::Br;
    cursor().instrs.push_back(in);
}

void
Builder::emitJmp(ValueId target)
{
    Instr in;
    in.op = isa::Op::Jmp;
    in.srcs = {target, kNoValue};
    cursor().instrs.push_back(in);
}

void
Builder::emitJsr(FunctionId callee)
{
    Instr in;
    in.op = isa::Op::Jsr;
    in.callee = callee;
    cursor().instrs.push_back(in);
}

void
Builder::emitRet()
{
    Instr in;
    in.op = isa::Op::Ret;
    cursor().instrs.push_back(in);
}

void
Builder::emitRaw(const Instr &in)
{
    cursor().instrs.push_back(in);
}

void
Builder::edge(FunctionId fn, BlockId from, BlockId to)
{
    MCA_ASSERT(fn < prog_.functions.size(), "edge: bad function");
    auto &blocks = prog_.functions[fn].blocks;
    MCA_ASSERT(from < blocks.size() && to < blocks.size(),
               "edge: bad block id");
    blocks[from].succs.push_back(to);
}

void
Builder::succWeights(FunctionId fn, BlockId blk, std::vector<double> w)
{
    MCA_ASSERT(fn < prog_.functions.size(), "succWeights: bad function");
    auto &blocks = prog_.functions[fn].blocks;
    MCA_ASSERT(blk < blocks.size(), "succWeights: bad block");
    blocks[blk].succWeights = std::move(w);
}

Program
Builder::build()
{
    MCA_ASSERT(!built_, "Builder::build called twice");
    built_ = true;
    prog_.finalize();
    return std::move(prog_);
}

} // namespace mca::prog
