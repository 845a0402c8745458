/**
 * @file
 * SMARTS-style sampled-execution driver (docs/sampling.md).
 *
 * A full detailed run simulates every instruction at cycle level. The
 * sampled driver instead makes ONE functional pass over the trace
 * (FunctionalWarmer: caches and predictor warmed, timing skipped) and
 * takes an in-memory checkpoint at each interval start; measurement
 * workers then restore each checkpoint into a fresh Processor, run a
 * short detailed warmup to fill the pipeline, and measure `detail`
 * instructions of true cycle-level execution. Whole-run CPI is the
 * mean of the per-interval CPIs with a 95% confidence interval
 * (1.96 * s / sqrt(K)); estimated total cycles = mean CPI * N.
 *
 * Since the task-graph refactor both passes share one
 * taskgraph::Executor: warming is a chain of per-interval nodes
 * (warm_0 → warm_1 → ... — the warmer state is shared, so the chain
 * edges serialize it), and each measurement node depends only on its
 * own interval's warm node. Window i therefore measures while window
 * i+1 warms, instead of all warming finishing before any measurement
 * starts.
 *
 * Determinism: interval starts are fixed by (spec, trace seed) before
 * any measurement begins, workers write into pre-sized result slots
 * indexed by interval number, and jobs=1 runs the identical code path
 * serially — so parallel and serial runs produce bit-identical reports
 * (tests/sample_test.cc, tests/taskgraph_test.cc).
 *
 * Cost model: a sampled run pays N functional instructions plus
 * K*(warmup+detail) detailed ones, against N detailed instructions for
 * the full run. With functional execution ~25-50x faster per
 * instruction and K*(warmup+detail) << N, effective throughput
 * improves 10-100x (bench/sampled_speedup.cc checks the per-core
 * speedup; the bench/e2e `sampled` workload times the sampled run).
 */

#ifndef MCA_SAMPLE_DRIVER_HH
#define MCA_SAMPLE_DRIVER_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/config.hh"
#include "obs/cycle_stack.hh"
#include "prog/cfg.hh"
#include "sample/spec.hh"
#include "support/types.hh"
#include "taskgraph/taskgraph.hh"

namespace mca::sample
{

/** One measured interval. */
struct IntervalResult
{
    /** Interval number (0-based, in trace order). */
    std::uint64_t index = 0;
    /** Trace position (instructions) where the snapshot was taken. */
    std::uint64_t startInst = 0;
    /** Detailed-warmup instructions actually retired (discarded). */
    std::uint64_t warmupInsts = 0;
    /** Measured instructions retired. */
    std::uint64_t instructions = 0;
    /** Cycles spent retiring them. */
    Cycle cycles = 0;
    double cpi = 0.0;
    /** Stall attribution over the measured window only. */
    obs::CycleStack stack;
    /** Retire-slot conservation held on every measured cycle. */
    bool conserved = true;
    /** Host ns restoring the snapshot into the fresh machine. */
    std::uint64_t restoreHostNs = 0;
    /** Host ns for the whole window (restore + warmup + measure). */
    std::uint64_t hostNs = 0;
};

/** Whole-run extrapolation from the measured intervals. */
struct SampleReport
{
    SampleSpec spec;
    /** Dynamic instructions in the full trace (from the warming pass). */
    std::uint64_t totalInsts = 0;
    /** Detailed instructions simulated (warmup + measured, all K). */
    std::uint64_t detailedInsts = 0;
    std::vector<IntervalResult> intervals;
    double cpiMean = 0.0;
    double cpiStdDev = 0.0;
    /** Half-width of the 95% confidence interval on cpiMean. */
    double cpiCi95 = 0.0;
    /** cpiMean * totalInsts. */
    double estTotalCycles = 0.0;
    /** Every interval's cycle stack conserved. */
    bool allConserved = true;

    // Executor observability (host-time only; never part of the
    // simulated result and excluded from dumpJson).
    /** Per-node spans of the warm/measure graph (Perfetto export). */
    std::vector<taskgraph::TaskSpan> taskSpans;
    /** Longest warm→measure chain in host ms. */
    double execCriticalPathMs = 0.0;
    /** Peak ready-queue depth inside the executor. */
    std::size_t execMaxQueueDepth = 0;

    /**
     * Emit the report as one JSON object (spec, totals, extrapolation,
     * and the per-interval table including cycle stacks).
     */
    void dumpJson(std::ostream &os) const;
};

class SampledDriver
{
  public:
    /**
     * @param binary     Compiled program (copied; the driver replays it
     *                   once per measurement worker).
     * @param config     Machine shape, regMap already applied.
     * @param trace_seed Seed for exec::ProgramTrace; also fixes the
     *                   systematic-sampling phase.
     * @param max_insts  Dynamic-length cap passed to every trace.
     */
    SampledDriver(prog::MachProgram binary,
                  const core::ProcessorConfig &config,
                  std::uint64_t trace_seed, std::uint64_t max_insts);

    /**
     * Execute the sampling plan. Uses spec.jobs measurement workers
     * (1 = serial). Throws std::runtime_error if the spec is
     * infeasible or a worker fails to restore its snapshot.
     */
    SampleReport run(const SampleSpec &spec) const;

  private:
    prog::MachProgram binary_;
    core::ProcessorConfig config_;
    std::uint64_t seed_;
    std::uint64_t maxInsts_;
};

} // namespace mca::sample

#endif // MCA_SAMPLE_DRIVER_HH
