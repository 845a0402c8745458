/**
 * @file
 * Functional fast-forward with cache and predictor warming.
 *
 * The warmer consumes a processor's trace directly — no pipeline, no
 * timing — while keeping the long-lived microarchitectural state warm:
 * the I-cache is touched once per fetched block, the D-cache once per
 * memory operation, and the branch predictor is trained on every
 * conditional branch outcome. Architectural state needs no separate
 * handling: in this trace-driven model it lives entirely in the trace
 * cursor, which the warmer advances as a side effect of reading it.
 *
 * The trace is read a basic block at a time (ProgramTrace::nextRun):
 * the I-cache is touched where the run crosses into a new fetch block,
 * each memory op's D-cache access is issued at that op's cycle, and the
 * predictor is trained at a conditional terminator, so no instruction
 * builds a DynInst. The accesses, their order and their cycles are the
 * ones an instruction-at-a-time walk would issue.
 *
 * Timestamps are synthetic (one cycle per instruction). That skews
 * absolute cache-access times but preserves recency ORDER, which is
 * all the LRU replacement and predictor tables consume — the detailed
 * measurement that follows a snapshot restore (src/sample/driver.hh)
 * uses statistic deltas, so warming-era counter inflation is invisible.
 */

#ifndef MCA_SAMPLE_FUNCTIONAL_HH
#define MCA_SAMPLE_FUNCTIONAL_HH

#include <cstdint>

#include "exec/trace.hh"
#include "support/types.hh"

namespace mca::core
{
class Processor;
}

namespace mca::sample
{

class FunctionalWarmer
{
  public:
    /**
     * Warm the caches/predictor owned by `proc` (not owned). Throws
     * std::invalid_argument unless the processor's trace is an
     * exec::ProgramTrace, the only source warming reads.
     */
    explicit FunctionalWarmer(core::Processor &proc);

    /**
     * Consume up to `n` trace instructions, warming as it goes.
     * Returns the number actually consumed (< n only at trace end).
     */
    std::uint64_t advance(std::uint64_t n);

    /** Total instructions consumed so far. */
    std::uint64_t consumed() const { return consumed_; }

    /** True once the trace has been exhausted. */
    bool ended() const { return ended_; }

  private:
    core::Processor &proc_;
    exec::ProgramTrace &trace_;
    /** log2 of the I-cache block size (a power of two). */
    unsigned fetchShift_;
    Addr lastFetchBlock_;
    Cycle now_ = 0;
    std::uint64_t consumed_ = 0;
    bool ended_ = false;
    /** Reused for every run, so its address buffer keeps its capacity. */
    exec::BlockRun run_;
};

} // namespace mca::sample

#endif // MCA_SAMPLE_FUNCTIONAL_HH
