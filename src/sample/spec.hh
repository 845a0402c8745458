/**
 * @file
 * Sampling-plan specification for the sampled-execution driver.
 *
 * A SampleSpec describes how a long run is carved into measurement
 * intervals (docs/sampling.md): every `period` instructions, restore a
 * functionally warmed snapshot, run `warmup` instructions of detailed
 * simulation to fill the pipeline, then measure `detail` instructions.
 * Intervals are placed SMARTS-style: the first starts at a phase
 * derived deterministically from the trace seed, so repeated runs of
 * the same workload measure the same intervals while different seeds
 * decorrelate the phase from any program periodicity.
 *
 * Both tools set a plan through JobSpec's sample fields (the
 * `--sample-period`, `--sample-detail` and `--sample-warmup` flags);
 * runner::runSampled() builds the spec from them.
 */

#ifndef MCA_SAMPLE_SPEC_HH
#define MCA_SAMPLE_SPEC_HH

#include <cstdint>

namespace mca::sample
{

struct SampleSpec
{
    /** Interval placement. Systematic is the only one; bench/e2e's
     *  planFor still names it. */
    enum class Mode
    {
        Systematic,
    };

    Mode mode = Mode::Systematic;
    /** Instructions between consecutive interval starts. */
    std::uint64_t period = 100'000;
    /** Detailed instructions measured per interval. */
    std::uint64_t detail = 10'000;
    /** Detailed instructions run (and discarded) before measuring. */
    std::uint64_t warmup = 2'000;
    /** Measurement workers; 1 = serial (same code path, same result). */
    unsigned jobs = 1;

    /**
     * Validate feasibility; throws std::runtime_error when period or
     * detail is 0, when warmup+detail exceeds the period (intervals
     * would overlap), or when jobs is 0.
     */
    void validate() const;
};

} // namespace mca::sample

#endif // MCA_SAMPLE_SPEC_HH
