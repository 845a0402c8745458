/**
 * @file
 * Differential lockstep harness: proves the issue scheduler's
 * wake-gated mode and the idle fast-forward cycle-exact against the
 * reference mode (ProcessorConfig::idleSkip = false: every cluster
 * scanned every cycle, every cycle stepped).
 *
 * Two proofs per workload:
 *
 *  1. **Stepwise**: two processors — reference and wake-gated —
 *     step() in lockstep over identical traces; after every cycle the
 *     retired counts must match. At drain the full timeline streams
 *     (every dispatch/issue/suspend/wake/complete/retire event with its
 *     cycle, sequence number, and cluster), the statistics JSON, and
 *     the cycle-stack slot attributions must be identical. The
 *     timeline comparison is the per-cycle issue-decision check: every
 *     issue is a timeline record keyed by cycle.
 *
 *  2. **Fast-forward**: the wake-gated machine re-runs via run(), which
 *     skips idle cycles; final cycle count, retired count, statistics
 *     JSON, timeline, and cycle stack must equal the reference, and the
 *     cycle stack must still conserve slots × cycles.
 *
 * Used by tests/lockstep_test.cc over the six Table-2 benchmarks, a
 * fuzzer program, and the pointer chase, and by the five §2.1 scenario
 * reproductions (harness/scenarios.hh runs per mode).
 */

#ifndef MCA_HARNESS_LOCKSTEP_HH
#define MCA_HARNESS_LOCKSTEP_HH

#include <cstdint>
#include <string>

#include "core/config.hh"
#include "prog/cfg.hh"
#include "support/types.hh"

namespace mca::harness
{

struct LockstepResult
{
    std::string workload;
    /** Total cycles of the reference run. */
    Cycle cycles = 0;
    /** Instructions retired by the reference run. */
    std::uint64_t retired = 0;
    /** Cycles the fast-forward run skipped without stepping. */
    Cycle cyclesSkipped = 0;
    /** Both proofs passed. */
    bool identical = false;
    /** First divergence, empty when identical. */
    std::string divergence;
};

/**
 * Run both proofs on one binary/machine pair. `base.idleSkip` is
 * overwritten per leg.
 */
LockstepResult runLockstep(const prog::MachProgram &binary,
                           const isa::RegisterMap &map,
                           core::ProcessorConfig base,
                           std::uint64_t trace_seed,
                           std::uint64_t max_insts,
                           Cycle max_cycles = 100'000'000);

} // namespace mca::harness

#endif // MCA_HARNESS_LOCKSTEP_HH
