/**
 * @file
 * Deterministic CFG walker shared by the tracer and the profiler.
 *
 * The walker advances through a program's CFG an instruction or a basic
 * block at a time, resolving conditional branches through their
 * behaviour models and indirect jumps through per-site weighted draws,
 * in the one terminator routine both step kinds share. All randomness is
 * derived by hashing (seed, site identifiers), so the walk is a pure
 * function of (program shape, seed) — the property that lets the native
 * and rescheduled binaries replay the identical path.
 *
 * The walker is a template instantiable over prog::Program (IL level, used
 * for profiling) and prog::MachProgram (used for trace generation).
 */

#ifndef MCA_EXEC_WALKER_HH
#define MCA_EXEC_WALKER_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/io.hh"
#include "prog/cfg.hh"
#include "support/panic.hh"
#include "support/random.hh"

namespace mca::exec
{

/** Uniform access to the fields that differ between Instr and MachEntry. */
inline isa::Op instrOp(const prog::Instr &in) { return in.op; }
inline isa::Op instrOp(const prog::MachEntry &e) { return e.mi.op; }

inline prog::BranchModelId
instrBranchModel(const prog::Instr &in)
{
    return in.branchModel;
}

inline prog::BranchModelId
instrBranchModel(const prog::MachEntry &e)
{
    return e.branchModel;
}

inline prog::FunctionId instrCallee(const prog::Instr &in)
{
    return in.callee;
}

inline prog::FunctionId instrCallee(const prog::MachEntry &e)
{
    return e.callee;
}

/** Mix a site identifier into a seed (splitmix-style avalanche). */
inline std::uint64_t
hashSeed(std::uint64_t seed, std::uint64_t salt, std::uint64_t id)
{
    std::uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                      (id * 0xbf58476d1ce4e5b9ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Reject a restored value the program cannot hold: checkpoint payloads
 * are outside input, so a bad one throws rather than panics.
 */
inline void
checkRestored(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("checkpoint: restored ") + what);
}

/**
 * The lazily created states of one of a program's model tables (its
 * address streams or its branch models), indexed by model id: one
 * 32-bit slot per id of the table, and the states in the order they
 * were first touched.
 */
template <typename State>
class SlotTable
{
  public:
    /** A table for ids below `ids`; `what` names a model in errors. */
    SlotTable(std::size_t ids, const char *what)
        : slots_(ids, kNoSlot), what_(what)
    {
    }

    /**
     * The state of model `id`, made by `make()` on its first touch. A
     * compiled program is outside input to the walk, so an id beyond
     * the table throws std::runtime_error naming it.
     */
    template <typename Make>
    State &
    touch(std::uint64_t id, Make &&make)
    {
        if (id < slots_.size() && slots_[id] != kNoSlot) [[likely]]
            return states_[slots_[id]];
        return add(id, make);
    }

    /** Count of states made so far. */
    std::size_t size() const { return states_.size(); }

    /** Call f(id, state) for every state, in ascending id order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t id = 0; id < slots_.size(); ++id)
            if (slots_[id] != kNoSlot)
                f(static_cast<std::uint32_t>(id), states_[slots_[id]]);
    }

    /** Drop every state (a restore refills the table by touch()). */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), kNoSlot);
        states_.clear();
    }

  private:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** touch() of an id with no state: check the id, make its state.
     *  Kept apart so the lookup inlines. */
    template <typename Make>
    State &
    add(std::uint64_t id, Make &make)
    {
        if (id >= slots_.size())
            throw std::runtime_error(std::string("trace: ") + what_ + " " +
                                     std::to_string(id) +
                                     " out of range (the program has " +
                                     std::to_string(slots_.size()) + ")");
        slots_[id] = static_cast<std::uint32_t>(states_.size());
        states_.push_back(make());
        return states_.back();
    }

    std::vector<std::uint32_t> slots_;
    std::vector<State> states_;
    const char *what_;
};

/** One step of a CFG walk. */
struct WalkSite
{
    prog::FunctionId fn = 0;
    prog::BlockId blk = 0;
    std::uint32_t idx = 0;
    /** Direction taken if the instruction is control flow. */
    bool taken = false;
    Addr pc = 0;
    /** PC of the next instruction on the walk (0 at program end). */
    Addr nextPc = 0;
};

template <typename ProgT>
class CfgWalker
{
  public:
    CfgWalker(const ProgT &prog, std::uint64_t seed)
        : prog_(&prog), seed_(seed),
          branchStates_(prog.branchModels.size(), "branch model")
    {
        MCA_ASSERT(!prog.functions.empty(), "walking empty program");
    }

    /**
     * Advance one instruction: a block step limited to one. Returns
     * false when the program has ended (main returned); `out` is
     * untouched in that case.
     */
    bool step(WalkSite &out) { return stepBlock(out, 1) != 0; }

    /**
     * Advance through the rest of the current block, at most `limit`
     * instructions, and return how many were passed: 0 when the program
     * has ended or `limit` is 0, and `out` is untouched then. `out`
     * names the first instruction passed (fn, blk, idx, pc) and how the
     * walk left the last one (taken, nextPc). Branch outcomes and jump
     * targets are drawn only at terminators, so a walk by blocks draws
     * them in the same order as a walk by instructions, and after the
     * same instruction count both walkers are in the same state.
     */
    std::uint64_t
    stepBlock(WalkSite &out, std::uint64_t limit)
    {
        if (ended_ || limit == 0)
            return 0;
        const auto &blk = enterBlock();
        out.fn = fn_;
        out.blk = blk_;
        out.idx = idx_;
        out.pc = blk.startPc + 4 * idx_;
        out.taken = false;
        const std::uint64_t left = blk.instrs.size() - idx_;
        if (limit < left) {
            idx_ += static_cast<std::uint32_t>(limit);
            out.nextPc = blk.startPc + 4 * idx_;
            return limit;
        }
        idx_ = static_cast<std::uint32_t>(blk.instrs.size() - 1);
        leaveBlock(blk, out);
        return left;
    }

    /** True once main has returned. */
    bool ended() const { return ended_; }

    /** Count of dynamic call-stack frames (diagnostics). */
    std::size_t stackDepth() const { return callStack_.size(); }

    /**
     * Serialize the walk state. The program is static content the
     * restoring walker already holds; only cursors, the call stack, and
     * the dynamic halves of the lazily created model states are saved,
     * in ascending id order (model descriptions are rebuilt from the
     * program by id).
     */
    void
    saveState(ckpt::Writer &w) const
    {
        w.u32(fn_);
        w.u32(blk_);
        w.u32(idx_);
        w.b(ended_);
        w.u64(callStack_.size());
        for (const Frame &f : callStack_) {
            w.u32(f.fn);
            w.u32(f.contBlock);
        }
        w.u64(branchStates_.size());
        branchStates_.forEach([&w](std::uint32_t id,
                                   const prog::BranchModelState &st) {
            w.u32(id);
            for (std::uint64_t word : st.rng().rawState())
                w.u64(word);
            w.u64(st.remainingTrips());
            w.u64(st.patternPos());
        });
        w.u64(jumpRngs_.size());
        for (const auto &[site, rng] : jumpRngs_) {
            w.u64(site);
            for (std::uint64_t word : rng.rawState())
                w.u64(word);
        }
    }

    /**
     * Restore state saved by a walker over the same (program, seed).
     * Every restored cursor, frame and model id is checked against the
     * program, so a payload from another program or a corrupt one
     * throws std::runtime_error instead of walking out of bounds.
     */
    void
    loadState(ckpt::Reader &r)
    {
        fn_ = r.u32();
        blk_ = r.u32();
        idx_ = r.u32();
        ended_ = r.b();
        checkRestored(isInstr(fn_, blk_, idx_),
                      "walker cursor out of range");
        callStack_.clear();
        const std::uint64_t frames = r.u64();
        for (std::uint64_t i = 0; i < frames; ++i) {
            Frame f;
            f.fn = r.u32();
            f.contBlock = r.u32();
            checkRestored(isInstr(f.fn, f.contBlock, 0),
                          "call-stack frame out of range");
            callStack_.push_back(f);
        }
        branchStates_.clear();
        const std::uint64_t nbranch = r.u64();
        prog::BranchModelId prev = 0;
        for (std::uint64_t i = 0; i < nbranch; ++i) {
            const prog::BranchModelId id = r.u32();
            std::array<std::uint64_t, 4> raw;
            for (std::uint64_t &word : raw)
                word = r.u64();
            const std::uint64_t remaining = r.u64();
            const std::uint64_t pattern_pos = r.u64();
            checkRestored(id < prog_->branchModels.size() &&
                              (i == 0 || id > prev),
                          "branch model id out of range or not ascending");
            prev = id;
            checkRestored(pattern_pos == 0 ||
                              pattern_pos <
                                  prog_->branchModels[id].pattern.size(),
                          "branch pattern position out of range");
            branchState(id).restoreDynamicState(
                raw, remaining, static_cast<std::size_t>(pattern_pos));
        }
        jumpRngs_.clear();
        const std::uint64_t njump = r.u64();
        for (std::uint64_t i = 0; i < njump; ++i) {
            const std::uint64_t site = r.u64();
            std::array<std::uint64_t, 4> raw;
            for (std::uint64_t &word : raw)
                word = r.u64();
            checkRestored(isInstr(site >> 32, site & 0xffffffffu, 0) &&
                              (i == 0 || site > jumpRngs_.rbegin()->first),
                          "jump site out of range or not ascending");
            Rng rng(0);
            rng.setRawState(raw);
            jumpRngs_.emplace(site, rng);
        }
    }

  private:
    struct Frame
    {
        prog::FunctionId fn;
        prog::BlockId contBlock;
    };

    /** True if (fn, blk, idx) names an instruction slot of the program
     *  (index 0 of an empty block counts: the walk falls through it). */
    bool
    isInstr(std::uint64_t fn, std::uint64_t blk, std::uint64_t idx) const
    {
        if (fn >= prog_->functions.size())
            return false;
        const auto &blocks = prog_->functions[fn].blocks;
        if (blk >= blocks.size())
            return false;
        const std::size_t n = blocks[blk].instrs.size();
        return idx < n || (n == 0 && idx == 0);
    }

    void
    moveTo(prog::BlockId next)
    {
        blk_ = next;
        idx_ = 0;
    }

    /**
     * The block at the cursor, after falling through empty blocks (the
     * cursor moves past them).
     */
    const auto &
    enterBlock()
    {
        for (;;) {
            const auto &blk = prog_->functions[fn_].blocks[blk_];
            MCA_ASSERT(idx_ < blk.instrs.size() || blk.instrs.empty(),
                       "walker index out of range");
            if (!blk.instrs.empty())
                return blk;
            MCA_ASSERT(blk.succs.size() == 1, "empty block needs 1 succ");
            moveTo(blk.succs[0]);
        }
    }

    /**
     * Pass the terminator of `blk`, the block at the cursor, whose last
     * instruction the cursor names: resolve its control flow, move the
     * cursor on, and set out.taken and out.nextPc.
     */
    template <typename BlockT>
    void
    leaveBlock(const BlockT &blk, WalkSite &out)
    {
        const auto &in = blk.instrs[idx_];
        const isa::Op op = instrOp(in);
        if (!isa::isCtrlFlow(op)) {
            MCA_ASSERT(blk.succs.size() == 1,
                       "fall-through block needs 1 succ");
            moveTo(blk.succs[0]);
            out.nextPc = currentPc();
            return;
        }

        switch (op) {
          case isa::Op::Br:
            out.taken = true;
            moveTo(blk.succs[0]);
            break;
          case isa::Op::Beq: case isa::Op::Bne:
          case isa::Op::FBeq: case isa::Op::FBne: {
            const bool taken = branchOutcome(in);
            out.taken = taken;
            moveTo(blk.succs[taken ? 1 : 0]);
            break;
          }
          case isa::Op::Jmp: {
            out.taken = true;
            moveTo(blk.succs[pickSuccessor(blk)]);
            break;
          }
          case isa::Op::Jsr: {
            out.taken = true;
            const prog::FunctionId callee = instrCallee(in);
            callStack_.push_back({fn_, blk.succs[0]});
            fn_ = callee;
            blk_ = 0;
            idx_ = 0;
            break;
          }
          case isa::Op::Ret: {
            out.taken = true;
            if (callStack_.empty()) {
                ended_ = true;
                out.nextPc = 0;
                return;
            }
            const auto frame = callStack_.back();
            callStack_.pop_back();
            fn_ = frame.fn;
            blk_ = frame.contBlock;
            idx_ = 0;
            break;
          }
          default:
            MCA_PANIC("unhandled terminator op");
        }
        out.nextPc = currentPc();
    }

    /** PC of the walker's current position (skipping empty blocks, so
     *  the reported nextPc is a real instruction). */
    Addr
    currentPc()
    {
        return enterBlock().startPc + 4 * idx_;
    }

    template <typename InstrT>
    bool
    branchOutcome(const InstrT &in)
    {
        return branchState(instrBranchModel(in)).nextOutcome();
    }

    /** The state of branch model `id`, made on its first outcome. */
    prog::BranchModelState &
    branchState(std::uint64_t id)
    {
        return branchStates_.touch(id, [&] {
            return prog::BranchModelState(
                prog_->branchModels[id], Rng(hashSeed(seed_, 0xb7a9c4, id)));
        });
    }

    template <typename BlockT>
    std::size_t
    pickSuccessor(const BlockT &blk)
    {
        const std::uint64_t site =
            (std::uint64_t{fn_} << 32) | blk.id;
        auto it = jumpRngs_.find(site);
        if (it == jumpRngs_.end())
            it = jumpRngs_.emplace(site, Rng(hashSeed(seed_, 0x1d3a5, site)))
                     .first;
        Rng &rng = it->second;

        if (blk.succWeights.empty())
            return rng.nextBelow(blk.succs.size());

        double total = 0;
        for (double w : blk.succWeights)
            total += w;
        double draw = rng.nextDouble() * total;
        for (std::size_t i = 0; i < blk.succWeights.size(); ++i) {
            draw -= blk.succWeights[i];
            if (draw <= 0)
                return i;
        }
        return blk.succWeights.size() - 1;
    }

    const ProgT *prog_;
    std::uint64_t seed_;
    prog::FunctionId fn_ = 0;
    prog::BlockId blk_ = 0;
    std::uint32_t idx_ = 0;
    bool ended_ = false;
    std::vector<Frame> callStack_;
    SlotTable<prog::BranchModelState> branchStates_;
    std::map<std::uint64_t, Rng> jumpRngs_;
};

} // namespace mca::exec

#endif // MCA_EXEC_WALKER_HH
