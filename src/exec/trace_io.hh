/**
 * @file
 * Trace-file input/output.
 *
 * A classic trace-driven-simulation workflow: capture the dynamic
 * instruction stream of a compiled program once, then replay the file
 * through any machine configuration. The format is a little-endian
 * binary stream — a 16-byte header (magic, version, record count)
 * followed by fixed-size records — so traces are portable between runs
 * and diffable by checksum.
 */

#ifndef MCA_EXEC_TRACE_IO_HH
#define MCA_EXEC_TRACE_IO_HH

#include <cstdio>
#include <memory>
#include <string>

#include "exec/trace.hh"
#include "isa/registers.hh"

namespace mca::exec
{

/** Magic bytes at the start of every trace file. */
inline constexpr char kTraceMagic[8] = {'M', 'C', 'A', 'T',
                                        'R', 'C', '0', '2'};

/**
 * Drain `source` (up to max_insts) into a trace file.
 *
 * @param global_regs  Registers the producing binary treats as global
 *     (CompileOutput's alloc.globalRegs). Stored in the header so a
 *     replaying machine can reconstruct the register-to-cluster map —
 *     without it, promoted globals would silently replay as locals.
 * @return number of instructions written.
 */
std::uint64_t writeTrace(const std::string &path, TraceSource &source,
                         const std::vector<isa::RegId> &global_regs = {},
                         std::uint64_t max_insts = ~std::uint64_t{0});

/** Streaming trace-file reader. Fatal on malformed files. */
class FileTrace : public TraceSource
{
  public:
    explicit FileTrace(const std::string &path);
    ~FileTrace() override;

    FileTrace(const FileTrace &) = delete;
    FileTrace &operator=(const FileTrace &) = delete;

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
    std::FILE *file_ = nullptr;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    std::vector<isa::RegId> globalRegs_;
};

} // namespace mca::exec

#endif // MCA_EXEC_TRACE_IO_HH
