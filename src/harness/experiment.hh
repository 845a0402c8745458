/**
 * @file
 * Experiment harness: one simulation of a compiled binary, and the
 * shapes of the Table-2 experiment (the paper's headline result).
 *
 * Methodology reproduced from §4: the *native* binary (cluster-unaware
 * compilation) runs on the single-cluster machine to give the baseline
 * cycle count; the same native binary runs on the dual-cluster machine
 * (Table 2 column "none"); and the binary rescheduled with the local
 * scheduler runs on the dual-cluster machine (column "local"). The
 * reported percentage is 100 - 100 * (C_dual / C_single): positive =
 * speedup, negative = slowdown. The experiment runs as a campaign
 * (runner/table2.hh): three jobs per benchmark, assembled into
 * Table2Rows.
 */

#ifndef MCA_HARNESS_EXPERIMENT_HH
#define MCA_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "compiler/pipeline.hh"
#include "core/config.hh"
#include "core/processor.hh"
#include "obs/cycle_stack.hh"
#include "workloads/workloads.hh"

namespace mca::harness
{

/** Flat snapshot of one simulation's key statistics. */
struct RunStats
{
    Cycle cycles = 0;
    std::uint64_t retired = 0;
    double ipc = 0.0;
    std::uint64_t distSingle = 0;
    std::uint64_t distDual = 0;
    std::uint64_t operandForwards = 0;
    std::uint64_t resultForwards = 0;
    std::uint64_t replays = 0;
    std::uint64_t issueDisorder = 0;
    double bpredAccuracy = 0.0;
    double dcacheMissRate = 0.0;
    double icacheMissRate = 0.0;
    /** Shared-L2 local miss rate; 0 when the machine has no L2. */
    double l2MissRate = 0.0;
    bool completed = false;
    /** Retire-slot stall attribution (always collected; cheap). */
    obs::CycleStack cycleStack;
};

/**
 * Simulate one binary on one machine.
 *
 * @param binary   Compiled program.
 * @param map      Register-to-cluster map the hardware should use
 *                 (normally CompileOutput::hardwareMap()).
 * @param base     Machine configuration (regMap is overwritten).
 * @param trace_seed  Seed for the trace interpreter.
 * @param max_insts   Trace-length bound.
 */
RunStats simulate(const prog::MachProgram &binary,
                  const isa::RegisterMap &map,
                  core::ProcessorConfig base, std::uint64_t trace_seed,
                  std::uint64_t max_insts,
                  Cycle max_cycles = 100'000'000);

/** Per-benchmark options for the Table-2 experiment. */
struct ExperimentOptions
{
    workloads::WorkloadParams workload;
    std::uint64_t traceSeed = 42;
    std::uint64_t maxInsts = 400'000;
    unsigned imbalanceThreshold = 4;
    /** true: 8-way machines (the paper's reported data); false: 4-way. */
    bool eightWay = true;
};

/** One row of the reproduced Table 2 (plus diagnostics). */
struct Table2Row
{
    std::string benchmark;
    RunStats single;      ///< native binary, single-cluster machine
    RunStats dualNone;    ///< native binary, dual-cluster machine
    RunStats dualLocal;   ///< rescheduled binary, dual-cluster machine
    double pctNone = 0.0; ///< 100 - 100*(dualNone/single)
    double pctLocal = 0.0;
    std::uint64_t spillLoadsLocal = 0;
    std::uint64_t spillStoresLocal = 0;
    std::uint64_t otherClusterSpills = 0;
};

/** The paper's published Table 2, for side-by-side printing. */
struct PaperTable2Entry
{
    const char *benchmark;
    int pctNone;
    int pctLocal;
};

/** Published values: {-14,+6},{-21,-15},{-15,-10},{-5,-22},{-36,-25},{-41,-19}. */
const std::vector<PaperTable2Entry> &paperTable2();

} // namespace mca::harness

#endif // MCA_HARNESS_EXPERIMENT_HH
