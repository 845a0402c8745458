#include "exec/trace.hh"

#include <algorithm>
#include <stdexcept>

#include "exec/dyninst_io.hh"
#include "support/panic.hh"

namespace mca::exec
{

namespace
{

/**
 * FNV-1a hash of everything a trace reads from its program: each
 * instruction with its stream, branch-model and callee references, the
 * block start PCs, successors and successor weights, and the address
 * stream and branch model tables. A snapshot's walker cursors and
 * model ids index into exactly this content.
 */
std::uint64_t
programFingerprint(const prog::MachProgram &prog)
{
    ckpt::Writer w;
    w.u64(prog.functions.size());
    for (const prog::MachFunction &fn : prog.functions) {
        w.u64(fn.blocks.size());
        for (const prog::MachBlock &blk : fn.blocks) {
            w.u64(blk.startPc);
            w.u64(blk.instrs.size());
            for (const prog::MachEntry &e : blk.instrs) {
                writeMachInst(w, e.mi);
                w.u32(e.stream);
                w.u32(e.branchModel);
                w.u32(e.callee);
                w.b(e.isSpill);
            }
            w.u64(blk.succs.size());
            for (prog::BlockId succ : blk.succs)
                w.u32(succ);
            w.u64(blk.succWeights.size());
            for (double weight : blk.succWeights)
                w.f64(weight);
        }
    }
    w.u64(prog.streams.size());
    for (const prog::AddrStream &st : prog.streams) {
        w.u8(static_cast<std::uint8_t>(st.kind));
        w.u64(st.base);
        w.u64(st.stride);
        w.u64(st.extent);
        w.f64(st.pRevisit);
    }
    w.u64(prog.branchModels.size());
    for (const prog::BranchModel &m : prog.branchModels) {
        w.u8(static_cast<std::uint8_t>(m.kind));
        w.u64(m.trip);
        w.u64(m.tripJitter);
        w.f64(m.pTaken);
        w.u64(m.pattern.size());
        for (bool taken : m.pattern)
            w.b(taken);
    }
    return ckpt::fnv1a(w.data().data(), w.data().size());
}

} // namespace

void
TraceSource::saveState(ckpt::Writer &) const
{
    throw std::runtime_error(
        "checkpoint: this trace source cannot be checkpointed");
}

void
TraceSource::loadState(ckpt::Reader &)
{
    throw std::runtime_error(
        "checkpoint: this trace source cannot be restored");
}

ProgramTrace::ProgramTrace(prog::MachProgram prog, std::uint64_t seed,
                           std::uint64_t max_insts)
    : prog_(std::move(prog)), seed_(seed), walker_(prog_, seed),
      streamStates_(prog_.streams.size(), "address stream"),
      maxInsts_(max_insts)
{
}

prog::AddrStreamState &
ProgramTrace::streamState(std::uint64_t id)
{
    return streamStates_.touch(id, [&] {
        return prog::AddrStreamState(prog_.streams[id],
                                     Rng(hashSeed(seed_, 0x5eed5, id)));
    });
}

bool
ProgramTrace::next(DynInst &out)
{
    if (seq_ >= maxInsts_)
        return false;

    WalkSite site;
    if (!walker_.step(site))
        return false;

    const auto &entry =
        prog_.functions[site.fn].blocks[site.blk].instrs[site.idx];

    out.seq = seq_++;
    out.pc = site.pc;
    out.mi = entry.mi;
    out.effAddr =
        isa::isMemOp(entry.mi.op) ? streamState(entry.stream).nextAddr() : 0;
    out.taken = site.taken;
    out.nextPc = site.nextPc;
    out.isSpill = entry.isSpill;
    out.remapIndex = DynInst::kNoRemap;
    return true;
}

std::uint64_t
ProgramTrace::nextRun(BlockRun &run, std::uint64_t limit)
{
    if (seq_ >= maxInsts_)
        return 0;
    WalkSite site;
    const std::uint64_t k =
        walker_.stepBlock(site, std::min(limit, maxInsts_ - seq_));
    if (k == 0)
        return 0;

    const prog::MachEntry *entries =
        &prog_.functions[site.fn].blocks[site.blk].instrs[site.idx];
    run.entries = entries;
    run.count = k;
    run.pc = site.pc;
    run.taken = site.taken;
    run.nextPc = site.nextPc;
    run.mem.clear();
    for (std::uint32_t i = 0; i < k; ++i)
        if (isa::isMemOp(entries[i].mi.op))
            run.mem.push_back({i, streamState(entries[i].stream).nextAddr()});
    seq_ += k;
    return k;
}

std::uint64_t
ProgramTrace::fingerprint() const
{
    if (!fingerprint_)
        fingerprint_ = programFingerprint(prog_);
    return *fingerprint_;
}

void
ProgramTrace::saveState(ckpt::Writer &w) const
{
    w.u64(seed_);
    w.u64(maxInsts_);
    w.u64(fingerprint());
    w.u64(seq_);
    walker_.saveState(w);
    w.u64(streamStates_.size());
    streamStates_.forEach([&w](std::uint32_t id,
                               const prog::AddrStreamState &st) {
        w.u32(id);
        for (std::uint64_t word : st.rng().rawState())
            w.u64(word);
        w.u64(st.offset());
        w.u64(st.last());
    });
}

void
ProgramTrace::loadState(ckpt::Reader &r)
{
    const std::uint64_t seed = r.u64();
    const std::uint64_t max_insts = r.u64();
    if (seed != seed_ || max_insts != maxInsts_)
        throw std::runtime_error(
            "checkpoint: trace identity mismatch (snapshot seed/bound " +
            std::to_string(seed) + "/" + std::to_string(max_insts) +
            ", this trace " + std::to_string(seed_) + "/" +
            std::to_string(maxInsts_) + ")");
    if (r.u64() != fingerprint())
        throw std::runtime_error("checkpoint: trace program mismatch "
                                 "(snapshot taken on another program)");
    seq_ = r.u64();
    walker_.loadState(r);
    streamStates_.clear();
    const std::uint64_t nstreams = r.u64();
    prog::AddrStreamId prev = 0;
    for (std::uint64_t i = 0; i < nstreams; ++i) {
        const prog::AddrStreamId id = r.u32();
        std::array<std::uint64_t, 4> raw;
        for (std::uint64_t &word : raw)
            word = r.u64();
        const std::uint64_t offset = r.u64();
        const Addr last = r.u64();
        checkRestored(id < prog_.streams.size() && (i == 0 || id > prev),
                      "stream id out of range or not ascending");
        prev = id;
        streamState(id).restoreDynamicState(raw, offset, last);
    }
}

VectorTrace::VectorTrace(std::vector<DynInst> insts)
    : insts_(std::move(insts))
{
}

bool
VectorTrace::next(DynInst &out)
{
    if (pos_ >= insts_.size())
        return false;
    out = insts_[pos_++];
    return true;
}

void
VectorTrace::saveState(ckpt::Writer &w) const
{
    w.u64(insts_.size());
    w.u64(pos_);
}

void
VectorTrace::loadState(ckpt::Reader &r)
{
    const std::uint64_t size = r.u64();
    if (size != insts_.size())
        throw std::runtime_error(
            "checkpoint: vector trace length mismatch");
    pos_ = static_cast<std::size_t>(r.u64());
}

std::vector<DynInst>
VectorTrace::normalize(std::vector<DynInst> insts)
{
    for (std::size_t i = 0; i < insts.size(); ++i) {
        insts[i].seq = i;
        if (insts[i].pc == 0)
            insts[i].pc = 0x1000 + 4 * i;
    }
    // Second pass: successors' PCs are final now.
    for (std::size_t i = 0; i < insts.size(); ++i)
        if (insts[i].nextPc == 0)
            insts[i].nextPc =
                i + 1 < insts.size() ? insts[i + 1].pc : 0;
    return insts;
}

ProfileResult
profileProgram(const prog::Program &prog, std::uint64_t seed,
               std::uint64_t max_insts)
{
    ProfileResult result;
    result.visits.resize(prog.functions.size());
    for (std::size_t f = 0; f < prog.functions.size(); ++f)
        result.visits[f].assign(prog.functions[f].blocks.size(), 0);

    // A walk from the entry enters every block at its first instruction
    // and only the cap stops a step inside a block, so each step is one
    // visit.
    CfgWalker<prog::Program> walker(prog, seed);
    WalkSite site;
    std::uint64_t n = 0;
    while (n < max_insts) {
        const std::uint64_t k = walker.stepBlock(site, max_insts - n);
        if (k == 0)
            break;
        ++result.visits[site.fn][site.blk];
        n += k;
    }
    result.totalInsts = n;
    result.completed = walker.ended();
    return result;
}

void
applyProfile(prog::Program &prog, const ProfileResult &profile)
{
    MCA_ASSERT(profile.visits.size() == prog.functions.size(),
               "profile shape mismatch");
    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
        auto &fn = prog.functions[f];
        MCA_ASSERT(profile.visits[f].size() == fn.blocks.size(),
                   "profile shape mismatch");
        for (std::size_t b = 0; b < fn.blocks.size(); ++b)
            fn.blocks[b].weight =
                static_cast<double>(profile.visits[f][b]);
    }
}

} // namespace mca::exec
