/**
 * @file
 * Cycle-level timing model of single- and multi-cluster processors.
 *
 * The model implements the paper's machine (§2, §4.1): a shared fetch
 * stream distributing up to 12 instructions per cycle into per-cluster
 * dispatch queues through explicit register renaming; greedy oldest-first
 * issue under the Table-1 slot rules; dual-distributed master/slave
 * execution with operand and result transfer buffers; speculative
 * execution with McFarling branch prediction (tables updated at
 * execute); non-blocking caches with inverted-MSHR semantics; in-order
 * retirement; and instruction-replay exceptions to break transfer-buffer
 * deadlocks.
 *
 * Pipeline timing (DESIGN.md §5.1-5.2): an instruction issued at cycle t
 * reads registers at t+1, executes during [t+2, t+1+lat], and writes
 * back at t+2+lat; same-cluster consumers may issue at t+lat. A slave
 * copy forwarding an operand lets its master issue from t_slave+1; a
 * slave receiving a result may issue from t_master+lat.
 *
 * Processor is a thin façade over the pipeline components
 * (docs/architecture.md): FetchUnit, DispatchUnit, Scheduler (issue),
 * and RetireUnit share one MachineState; processor.cc composes them
 * and owns the cross-stage concerns (replay exceptions, watchdog,
 * paranoid invariants, cycle-stack attribution, idle fast-forward).
 */

#ifndef MCA_CORE_PROCESSOR_HH
#define MCA_CORE_PROCESSOR_HH

#include <deque>
#include <memory>
#include <vector>

#include "bpred/predictors.hh"
#include "ckpt/snapshot.hh"
#include "core/config.hh"
#include "core/timeline.hh"
#include "exec/trace.hh"
#include "isa/distribution.hh"
#include "isa/issue_rules.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "support/stats.hh"

namespace mca::obs
{
struct CycleStack;
struct CycleObs;
} // namespace mca::obs

namespace mca::core
{

/** Outcome of a simulation. */
struct SimResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    /** False if the run stopped on the cycle limit. */
    bool completed = true;
};

class Processor
{
  public:
    /**
     * @param config  Machine shape; config.regMap defines the
     *                register-to-cluster assignment the hardware applies.
     * @param trace   Dynamic instruction source (not owned).
     * @param stats   Statistic registry the processor populates.
     */
    Processor(const ProcessorConfig &config, exec::TraceSource &trace,
              StatGroup &stats);
    ~Processor();

    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;

    /** Attach a timeline recorder (scenario figures); may be null. */
    void attachTimeline(TimelineRecorder *recorder);

    /**
     * Attach a cycle stack (may be null to detach). While attached,
     * every retire slot of every cycle is attributed to exactly one
     * stall cause; obs::CycleStack::conserved() then holds by
     * construction.
     */
    void attachCycleStack(obs::CycleStack *stack);

    /**
     * Fill `out` with this cycle's occupancies and cumulative counters
     * (obs sampling / counter tracks). Reuses out's storage; intended
     * to be called once per cycle, after step().
     */
    void observe(obs::CycleObs &out) const;

    /**
     * Run to completion (or the cycle bound). With config.idleSkip,
     * cycles in which no stage can make progress are fast-forwarded in
     * bulk (statistics included); the result is cycle-exact either way
     * (tests/lockstep_test.cc).
     */
    SimResult run(Cycle max_cycles = ~Cycle{0});

    /**
     * Run until `target_retired` total instructions have retired (or
     * the cycle bound / trace end). Same fast-forward semantics as
     * run(); the boundary is approximate by up to retireWidth-1
     * instructions (retirement is batched per cycle).
     */
    SimResult runUntilRetired(std::uint64_t target_retired,
                              Cycle max_cycles = ~Cycle{0});

    /**
     * Advance exactly one cycle (never fast-forwards, so per-cycle
     * observation via observe() sees every cycle). Returns false once
     * the trace is exhausted and the pipeline has drained.
     */
    bool step();

    // --- checkpoint/restore (src/ckpt, docs/sampling.md) -------------
    /**
     * FNV-1a hash over every architecturally relevant configuration
     * field. Snapshots embed it; restoring into a differently shaped
     * machine is rejected up front instead of desynchronizing the
     * payload. idleSkip and paranoid are excluded (they alter neither
     * machine state nor snapshot layout).
     */
    std::uint64_t configHash() const;

    /**
     * Serialize the complete simulation state — pipeline, in-flight
     * window, trace cursor, memory hierarchy, predictor, statistics,
     * attached cycle stack — into `b`. Only legal between cycles
     * (outside step()); resuming a restored snapshot is bit-identical
     * to the uninterrupted run (tests/ckpt_test.cc).
     */
    void saveState(ckpt::SnapshotBuilder &b) const;

    /** Mirror of saveState. Throws std::runtime_error on mismatch. */
    void loadState(ckpt::SnapshotParser &p);

    // --- sampled-simulation access (src/sample) ----------------------
    /** The memory hierarchy (functional cache warming). */
    mem::MemorySystem &memorySystem();
    /** The branch predictor (functional predictor warming). */
    bpred::Predictor &predictor();
    /** The trace feeding fetch (functional fast-forward). */
    exec::TraceSource &trace();

    Cycle now() const { return cycle_; }
    /**
     * Cycles actually stepped, excluding fast-forwarded ones;
     * `now() - steppedCycles()` is the number of idle cycles run()
     * skipped.
     */
    Cycle steppedCycles() const { return stepped_; }
    std::uint64_t retiredInstructions() const;

    const ProcessorConfig &config() const { return config_; }

  private:
    struct Impl;

    /**
     * The cycle kernel, specialized at compile time on its two
     * cross-cutting accounting dimensions so the common configuration
     * (no cycle stack, no paranoid sweep, host profiler off) runs with
     * the observability code removed rather than branched around:
     *  - WithObs: cycle-stack attribution and the paranoid invariant
     *    sweep are reachable;
     *  - WithProf: the per-stage host-profiler scopes are constructed.
     * step() selects the instantiation per call (attachment state can
     * change between any two cycles); run()/runUntilRetired hoist the
     * selection out of their loops.
     */
    template <bool WithObs, bool WithProf> bool stepImpl();
    template <bool WithObs, bool WithProf>
    SimResult runLoop(std::uint64_t target_retired, Cycle max_cycles);
    SimResult runDispatch(std::uint64_t target_retired, Cycle max_cycles);

    ProcessorConfig config_;
    Cycle cycle_ = 0;
    Cycle stepped_ = 0;
    std::unique_ptr<Impl> impl_;
};

} // namespace mca::core

#endif // MCA_CORE_PROCESSOR_HH
