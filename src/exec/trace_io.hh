/**
 * @file
 * Trace-file input/output.
 *
 * A classic trace-driven-simulation workflow: capture the dynamic
 * instruction stream of a compiled program once, then replay the file
 * through any machine configuration. The format is little-endian,
 * written and read through ckpt::Writer/Reader: a 24-byte header (the
 * magic, a u64 record count, and the producer's global registers as
 * one u32 mask per register class) followed by `count` 52-byte
 * DynInst records (exec/dyninst_io.hh), so traces are portable between
 * hosts and diffable by checksum.
 */

#ifndef MCA_EXEC_TRACE_IO_HH
#define MCA_EXEC_TRACE_IO_HH

#include <fstream>
#include <string>

#include "exec/trace.hh"
#include "isa/registers.hh"

namespace mca::exec
{

/** Magic bytes at the start of every trace file. */
inline constexpr char kTraceMagic[8] = {'M', 'C', 'A', 'T',
                                        'R', 'C', '0', '3'};

/** Header size: magic, record count, two global-register masks. */
inline constexpr std::size_t kTraceHeaderBytes = 24;

/**
 * Drain `source` (up to max_insts) into a trace file.
 *
 * @param global_regs  Registers the producing binary treats as global
 *     (CompileOutput's alloc.globalRegs). Stored in the header so a
 *     replaying machine can reconstruct the register-to-cluster map —
 *     without it, promoted globals would silently replay as locals.
 * @return number of instructions written.
 * @throws std::runtime_error ("trace: ...") when the file cannot be
 *     written.
 */
std::uint64_t writeTrace(const std::string &path, TraceSource &source,
                         const std::vector<isa::RegId> &global_regs = {},
                         std::uint64_t max_insts = ~std::uint64_t{0});

/**
 * Streaming trace-file reader. A malformed file throws
 * std::runtime_error "trace: ...": the header and the file size at
 * construction, a record (its seq must be its index) in next().
 */
class FileTrace : public TraceSource
{
  public:
    explicit FileTrace(const std::string &path);

    using TraceSource::next;
    bool next(DynInst &out) override;

    /** Total records the header promises. */
    std::uint64_t count() const { return count_; }

    /** Global registers recorded by the producer. */
    const std::vector<isa::RegId> &globalRegs() const
    {
        return globalRegs_;
    }

    /** Mark the recorded globals in a machine's register map. */
    void
    applyGlobals(isa::RegisterMap &map) const
    {
        for (const auto &reg : globalRegs_)
            map.setGlobal(reg);
    }

    /** Checkpoint = record cursor; restore seeks the file back. */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

  private:
    std::ifstream in_;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    std::vector<isa::RegId> globalRegs_;
    /** One record's bytes, reused by next(). */
    std::string record_;
};

} // namespace mca::exec

#endif // MCA_EXEC_TRACE_IO_HH
