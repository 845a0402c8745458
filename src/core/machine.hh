/**
 * @file
 * Shared machine state of the multicluster core. Every pipeline
 * component (FetchUnit, DispatchUnit, Scheduler, RetireUnit) operates
 * on one MachineState: the clusters, the retire window, the branch and
 * memory-ordering bookkeeping, and the statistic counters. The
 * components themselves hold only stage-local state (fetch buffer,
 * wakeup sets); see docs/architecture.md for the layout.
 */

#ifndef MCA_CORE_MACHINE_HH
#define MCA_CORE_MACHINE_HH

#include <memory>
#include <vector>

#include "bpred/predictors.hh"
#include "core/cluster.hh"
#include "core/config.hh"
#include "core/inflight.hh"
#include "core/timeline.hh"
#include "mem/memory.hh"
#include "support/arena.hh"
#include "support/circular_queue.hh"
#include "support/stats.hh"

namespace mca::core
{

/** Statistic handles of the core, registered once at construction. */
struct CoreStats
{
    Counter *cycles;
    Counter *retired;
    Counter *dispatched;
    Counter *fetched;
    Counter *distSingle;
    Counter *distDual;
    Counter *distCopies;
    Counter *operandForwards;
    Counter *resultForwards;
    Counter *issueTotal;
    Counter *issueSlave;
    Counter *issueWakes;
    Counter *issueDisorder;
    Counter *stallDq;
    Counter *stallPhys;
    Counter *stallRob;
    Counter *stallIcacheCycles;
    Counter *stallBranchCycles;
    Counter *replayExceptions;
    Counter *replayBuffer;
    Counter *replayWatchdog;
    Counter *replaySquashed;
    Counter *bpredLookups;
    Counter *bpredMispredicts;
    Counter *loadsForwarded;
    Distribution *robOccupancy;
    Distribution *issueWait;
    std::vector<Distribution *> queueOccupancy;
    Counter *remapEvents;
    Counter *remapRegsMoved;
    Counter *remapDrainCycles;

    void init(StatGroup &sg, unsigned num_clusters);
};

/**
 * State shared by the pipeline components. Construction builds the
 * clusters (initial rename state fully mapped and ready) and registers
 * the statistics.
 */
struct MachineState
{
    MachineState(const ProcessorConfig &config, StatGroup &sg);

    // --- configuration & substrate -----------------------------------
    ProcessorConfig cfg;
    /** The full hierarchy: L1s -> optional shared L2 -> backside. */
    mem::MemorySystem memsys;
    /** The front-side levels the pipeline talks to (owned by memsys). */
    mem::Cache &icache;
    mem::Cache &dcache;
    std::unique_ptr<bpred::Predictor> predictor;
    TimelineRecorder *timeline = nullptr;

    // --- machine state ------------------------------------------------
    Cycle now = 0;
    std::vector<Cluster> clusters;
    /**
     * In-flight instruction storage: one contiguous slab sized to the
     * retire window (never reallocates, so references held within a
     * cycle stay valid), addressed through generation-checked handles.
     * The ROB itself is a ring of handles in program order.
     */
    SlabPool<InFlightInst> pool;
    CircularQueue<InFlightHandle> rob;

    std::vector<PendingBranch> pendingBranches;
    /** Dispatch/fetch blocked behind this unresolved mispredict. */
    InstSeq mispredictBlockSeq = kNoSeq;

    /** An in-flight store, as the load-ordering search sees it. */
    struct StoreEntry
    {
        Addr dword = 0;
        InFlightHandle handle = kNoHandle;
        InstSeq seq = kNoSeq;
    };
    /**
     * The in-flight stores in program order (perfect memory
     * disambiguation: a load searches it youngest-first for its
     * dword). A store pushes at dispatch, retirement pops the front and
     * a replay squash pops the back, so it holds exactly the window's
     * stores. Derived state, never serialized: a restore rebuilds it
     * from the window.
     */
    CircularQueue<StoreEntry> storeQueue;

    Cycle lastProgress = 0;
    unsigned consecutiveReplays = 0;
    /** Per-cycle facts the cycle-stack attribution reads at cycle end. */
    unsigned retiredThisCycle = 0;
    bool dqStallThisCycle = false;
    /**
     * Whether any stage changed machine state this cycle (retire,
     * branch resolution, issue, fetch insertion, dispatch, remap,
     * replay). A cycle with no activity is a pure stall whose effects
     * repeat until the next timed event; the idle fast-forward in
     * Processor::run relies on this (docs/architecture.md).
     */
    bool activityThisCycle = false;
    /** Oldest buffer-blocked queue head requesting a replay. */
    InstSeq replayRequestSeq = kNoSeq;

    // --- statistics ----------------------------------------------------
    CoreStats st;

    InFlightInst &inst(InFlightHandle h) { return pool.get(h); }
    const InFlightInst &inst(InFlightHandle h) const
    {
        return pool.get(h);
    }

    void
    record(Cycle cycle, InstSeq seq, unsigned cluster, TimelineEvent ev)
    {
        if (timeline)
            timeline->record(cycle, seq, cluster, ev);
    }
};

} // namespace mca::core

#endif // MCA_CORE_MACHINE_HH
