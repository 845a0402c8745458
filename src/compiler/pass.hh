/**
 * @file
 * The compiler's pass table.
 *
 * Each stage of the paper's §3.1 pipeline is one row of a fixed table,
 * in pipeline order: its name, its description, when it runs (a
 * predicate over CompileOptions) and what it does to a shared
 * PassContext — the working IL copy, the CompileOptions, the
 * CompileOutput being assembled, and the growing prog::VerifyOptions
 * the partition/regalloc passes extend with their results.
 *
 * compile() hands every row the options enable to runPass(), the one
 * per-pass runner: it times the pass, records IR-delta counters
 * (blocks, instructions, live ranges, spill ops) into
 * CompileOutput::passStats, captures `--dump-after` snapshots, and —
 * under CompileOptions::verifyIr — runs prog::verifyIR() on the input
 * and after every pass, throwing std::runtime_error naming the
 * offending pass on the first violation.
 */

#ifndef MCA_COMPILER_PASS_HH
#define MCA_COMPILER_PASS_HH

#include <span>
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

/** One row of the pass table: a named compilation stage. */
struct Pass
{
    /** Stable pass name (the `--dump-after` / `--list-passes` key). */
    std::string_view name;
    /** One-line description for `--list-passes`. */
    std::string_view description;
    /** Whether a compile with these options runs the pass. */
    bool (*runsFor)(const CompileOptions &options);
    void (*run)(PassContext &ctx);
    /**
     * `--dump-after` snapshots the machine binary (the emit pass)
     * instead of the working IL.
     */
    bool dumpsBinary = false;
};

/** Every pass the pipeline can run, in pipeline order. */
std::span<const Pass> allPasses();

/** True if `name` names a pass. */
bool isPassName(std::string_view name);

/**
 * Run one pass over `ctx` and record it; see the file comment. Before
 * the context's first pass, the input program is checked too: a
 * def-before-use finding there is the input's own (the random fuzzer
 * emits them on purpose) and only turns that check off for the passes,
 * any other finding throws. Throws std::runtime_error naming the pass
 * if the IR fails verification after it.
 */
void runPass(const Pass &pass, PassContext &ctx);

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

} // namespace mca::compiler

#endif // MCA_COMPILER_PASS_HH
