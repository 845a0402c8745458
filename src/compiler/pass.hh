/**
 * @file
 * The compiler's pass manager.
 *
 * Each stage of the paper's §3.1 pipeline is a named Pass running over
 * a shared PassContext: the working IL copy, the CompileOptions, the
 * CompileOutput being assembled, and the growing prog::VerifyOptions
 * the partition/regalloc passes extend with their results. The
 * PassManager owns the sequence: it times every pass, records IR-delta
 * counters (blocks, instructions, live ranges, spill ops) into
 * CompileOutput::passStats, captures `--dump-after` snapshots, and —
 * under CompileOptions::verifyIr — runs prog::verifyIR() on the input
 * and after every pass, throwing std::runtime_error naming the
 * offending pass on the first violation.
 *
 * buildPipeline() translates CompileOptions into the exact pass
 * sequence the old hardcoded pipeline ran, so compile() output is
 * bit-identical to the pre-refactor compiler.
 */

#ifndef MCA_COMPILER_PASS_HH
#define MCA_COMPILER_PASS_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/pipeline.hh"
#include "prog/verify.hh"
#include "support/stats.hh"

namespace mca::compiler
{

/**
 * Shared state one compilation threads through its passes. The working
 * program starts as a copy of the input; the regalloc pass replaces it
 * with the allocator's rewritten (spill-expanded) IL so later passes
 * and verification see what will actually be emitted.
 */
struct PassContext
{
    PassContext(const prog::Program &input, const CompileOptions &opts,
                CompileOutput &output)
        : program(input), options(opts), out(output)
    {}

    prog::Program program;
    const CompileOptions &options;
    CompileOutput &out;

    /**
     * What verifyIR() should check from here on; the partition and
     * regalloc passes extend this with their assignment/coloring.
     */
    prog::VerifyOptions verify;
};

/** One named, self-describing compilation stage. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable pass name (the `--dump-after` / `--list-passes` key). */
    virtual std::string_view name() const = 0;

    /** One-line description for `--list-passes`. */
    virtual std::string_view description() const = 0;

    virtual void run(PassContext &ctx) = 0;

    /**
     * Deterministic text snapshot for `--dump-after` (the working IL by
     * default; the emit pass dumps the machine binary instead).
     */
    virtual std::string dump(const PassContext &ctx) const;
};

/** Name + description of one registered pass. */
struct PassInfo
{
    std::string_view name;
    std::string_view description;
};

/** Every pass the pipeline can run, in canonical pipeline order. */
const std::vector<PassInfo> &allPasses();

/** True if `name` names a registered pass. */
bool isPassName(std::string_view name);

/**
 * The pass sequence for these options — exactly the stages the options
 * enable, in pipeline order.
 */
std::vector<std::unique_ptr<Pass>> buildPipeline(
    const CompileOptions &options);

/**
 * Register `<prefix>.<NN>_<pass>.{wall_us,blocks,insts,values,
 * spill_ops}` counters for every executed pass — how per-pass records
 * reach a stats registry (and its src/obs JSON dump): mcasim
 * --pass-stats exports CompileOutput::passStats into the simulation
 * registry.
 */
void exportPassStats(const std::vector<PassStat> &passes,
                     StatGroup &group,
                     const std::string &prefix = "pass");

/**
 * Register `<prefix>.{cut_weight,total_weight,balance_x1000,fm_gain,
 * fm_passes,coarsen_levels,nodes,clusters}` counters for one
 * partitioning run — CompileOutput::partitionStats, which mcasim
 * --pass-stats exports next to the per-pass counters for any clustered
 * scheduler.
 */
void exportPartitionStats(const PartitionStats &stats, StatGroup &group,
                          const std::string &prefix = "partition");

/** Runs a pass sequence over a context; see the file comment. */
class PassManager
{
  public:
    /** `verify_ir`: run prog::verifyIR between passes (throws). */
    explicit PassManager(bool verify_ir) : verifyIr_(verify_ir) {}

    void
    add(std::unique_ptr<Pass> pass)
    {
        passes_.push_back(std::move(pass));
    }

    const std::vector<std::unique_ptr<Pass>> &passes() const
    {
        return passes_;
    }

    /**
     * Run every pass in order. Throws std::runtime_error if a pass (or
     * the input program) fails IR verification under verify_ir.
     */
    void run(PassContext &ctx) const;

  private:
    bool verifyIr_;
    std::vector<std::unique_ptr<Pass>> passes_;
};

} // namespace mca::compiler

#endif // MCA_COMPILER_PASS_HH
