/**
 * @file
 * Trace sources: the stream of dynamic instructions the timing models
 * consume, and the profiler that measures block execution counts.
 */

#ifndef MCA_EXEC_TRACE_HH
#define MCA_EXEC_TRACE_HH

#include <optional>
#include <vector>

#include "exec/dyninst.hh"
#include "exec/walker.hh"
#include "prog/cfg.hh"

namespace mca::exec
{

/** Abstract producer of dynamic instructions. */
class TraceSource : public ckpt::Checkpointable
{
  public:
    ~TraceSource() override = default;

    /**
     * Write the next instruction into `out` and return true, or return
     * false at end of trace and leave `out` untouched. Every field of
     * `out` is written (effAddr is 0 for non-memory ops, remapIndex is
     * the record's own), so one DynInst can be reused for a whole
     * drain without carrying anything over from the previous record.
     */
    virtual bool next(DynInst &out) = 0;

    /** The next instruction, or nullopt at end of trace. */
    std::optional<DynInst>
    next()
    {
        DynInst di;
        if (!next(di))
            return std::nullopt;
        return di;
    }

    /**
     * Checkpointing hooks. Sources that cannot rewind (live pipes)
     * keep the default, which throws std::runtime_error — checkpoint
     * requests on such a source are an input error, not a bug.
     */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;
};

/**
 * Consecutive instructions of one basic block, as ProgramTrace::nextRun
 * passes them: entries[0, count) at PCs pc, pc + 4, ... The run ends at
 * the block's terminator or at a limit inside the block.
 */
struct BlockRun
{
    /** One memory op of the run and its effective address. */
    struct Access
    {
        /** Index into entries. */
        std::uint32_t offset = 0;
        Addr addr = 0;
    };

    const prog::MachEntry *entries = nullptr;
    std::uint64_t count = 0;
    Addr pc = 0;
    /** How the last entry left, as WalkSite::taken and ::nextPc. */
    bool taken = false;
    Addr nextPc = 0;
    /** Every memory op of the run, in instruction order. */
    std::vector<Access> mem;
};

/**
 * Trace source that interprets a compiled program.
 *
 * Wraps a CfgWalker over the machine program and attaches effective
 * addresses drawn from the program's address streams. Bounded by
 * max_insts to keep simulations finite even for non-terminating CFGs.
 * Besides next(), it passes the same instructions a block run at a time
 * (nextRun) for consumers that need no DynInst per instruction.
 */
class ProgramTrace : public TraceSource
{
  public:
    /**
     * The program is copied: a ProgramTrace stays valid even if the
     * CompileOutput it came from goes out of scope.
     */
    ProgramTrace(prog::MachProgram prog, std::uint64_t seed,
                 std::uint64_t max_insts = ~std::uint64_t{0});

    using TraceSource::next;
    bool next(DynInst &out) override;

    /**
     * Pass the rest of the current basic block, at most `limit`
     * instructions and never beyond max_insts, and describe them in
     * `run` (its `mem` buffer is reused). Returns run.count: 0 at end of
     * trace or when `limit` is 0, and `run` is untouched then. The walk,
     * the address draws and the sequence counter advance exactly as
     * that many next() calls would advance them.
     */
    std::uint64_t nextRun(BlockRun &run, std::uint64_t limit);

    /** Serialize walker cursors, stream states (in ascending id order),
     *  and the sequence counter; (program, seed) identity is validated
     *  on load. */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

  private:
    /** The state of address stream `id`, made on its first address. */
    prog::AddrStreamState &streamState(std::uint64_t id);
    /** Hash of the program's static content (cached on first use). */
    std::uint64_t fingerprint() const;

    prog::MachProgram prog_;
    std::uint64_t seed_;
    CfgWalker<prog::MachProgram> walker_;
    SlotTable<prog::AddrStreamState> streamStates_;
    std::uint64_t maxInsts_;
    InstSeq seq_ = 0;
    /** Filled by the first save or load; not safe to race on. */
    mutable std::optional<std::uint64_t> fingerprint_;
};

/** Trace source fed from a prebuilt vector (unit-test harness). */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<DynInst> insts);

    using TraceSource::next;
    bool next(DynInst &out) override;

    /** Renumber seq/nextPc fields to be self-consistent. */
    static std::vector<DynInst> normalize(std::vector<DynInst> insts);

    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

  private:
    std::vector<DynInst> insts_;
    std::size_t pos_ = 0;
};

/** Per-block dynamic execution counts from a profiling walk. */
struct ProfileResult
{
    /** visits[fn][blk] = number of times the block was entered. */
    std::vector<std::vector<std::uint64_t>> visits;
    std::uint64_t totalInsts = 0;
    /** True if main returned, also when its final return was the
     *  max_insts-th instruction; false if the cap stopped the walk. */
    bool completed = false;
};

/**
 * Execute the IL program's CFG and count block visits (the "profiling
 * run" the paper uses to derive the local scheduler's execution
 * estimates). The walk advances a basic block per step, so its cost is
 * per block visited; `max_insts` is still an exact instruction cap (a
 * cap inside a block stops there, and that partial block counts as a
 * visit). Visits, totalInsts and completed equal an
 * instruction-by-instruction walk's.
 */
ProfileResult profileProgram(const prog::Program &prog, std::uint64_t seed,
                             std::uint64_t max_insts);

/** Store measured profile counts into the program's block weights. */
void applyProfile(prog::Program &prog, const ProfileResult &profile);

} // namespace mca::exec

#endif // MCA_EXEC_TRACE_HH
