/**
 * @file
 * Processor configuration for the multicluster timing model.
 *
 * The two named configurations are the paper's evaluation machines
 * (§4.1): an 8-way single-cluster processor, and a dual-cluster
 * processor with the same total resources split in half. 4-way variants
 * and arbitrary cluster counts are also expressible.
 */

#ifndef MCA_CORE_CONFIG_HH
#define MCA_CORE_CONFIG_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/issue_rules.hh"
#include "isa/registers.hh"
#include "mem/memory.hh"

namespace mca::core
{

struct ProcessorConfig
{
    /** Number of clusters (1 = conventional single-cluster machine). */
    unsigned numClusters = 2;

    /** Instructions fetched/distributed per cycle (shared front end). */
    unsigned fetchWidth = 12;
    /** Fetch-buffer capacity (decoupling fetch from distribution). */
    unsigned fetchBufferEntries = 24;

    /** Dispatch-queue entries per cluster. */
    unsigned dispatchQueueEntries = 64;
    /**
     * Hold dispatch-queue entries until retirement (the queue is the
     * instruction window, R10000-style) instead of freeing them at
     * issue (reservation stations). The paper does not say; windowed
     * queues are the default because they reproduce the paper's
     * unscheduled Table-2 column within ~2 points on five of six
     * benchmarks (see EXPERIMENTS.md), and they make the queue size —
     * the resource the paper's compress discussion leans on — the
     * binding run-ahead limit.
     */
    bool holdQueueUntilRetire = true;
    /** Physical integer registers per cluster. */
    unsigned physIntRegs = 64;
    /** Physical floating-point registers per cluster. */
    unsigned physFpRegs = 64;

    /** Per-cluster issue caps (paper Table 1). */
    isa::IssueRules issueRules = isa::IssueRules::dualClusterPerCluster();

    /** In-order retirement bandwidth (whole processor). */
    unsigned retireWidth = 8;
    /** Retire-window (reorder) entries, shared across clusters. */
    unsigned retireWindow = 256;

    /** Operand transfer buffer entries per cluster. */
    unsigned operandBufferEntries = 8;
    /** Result transfer buffer entries per cluster. */
    unsigned resultBufferEntries = 8;

    /**
     * Cycles without any issue or retirement before the machine raises
     * an instruction-replay exception to break a transfer-buffer
     * deadlock (DESIGN.md §5.3).
     */
    unsigned replayWatchdog = 64;
    /**
     * Precise deadlock avoidance (paper §2.1: "in certain
     * circumstances, an instruction-replay exception is required to
     * avoid issue deadlock"): when the globally oldest instruction with
     * unissued work has been blocked by a full transfer buffer for this
     * many cycles, nothing older can free the entries — the machine
     * raises a replay exception immediately rather than waiting for the
     * watchdog. 0 disables the precise trigger (watchdog only).
     */
    unsigned bufferBlockThreshold = 8;
    /** Fetch-redirect penalty charged by a replay exception. */
    unsigned replayPenalty = 5;
    /**
     * Reserve the last entry of each transfer buffer for the globally
     * oldest instruction. Removes the §2.1 deadlock class entirely on
     * two-cluster machines (a design alternative the paper does not
     * adopt — its machine takes replay exceptions instead; ablation).
     */
    bool reserveOldestEntry = false;
    /** Check rename/free-list invariants every cycle (slow; tests). */
    bool paranoid = false;

    /**
     * Skip work that cannot change the outcome: the scheduler scans
     * only clusters with a matured wakeup, and Processor::run()
     * fast-forwards across whole cycles in which no stage can make
     * progress, accounting statistics for the skipped cycles in bulk.
     * False selects the reference mode — every cluster scanned every
     * cycle, every cycle stepped — which is cycle-exact with the
     * default (tests/lockstep_test.cc). step() never fast-forwards.
     */
    bool idleSkip = true;

    /** Architectural-register-to-cluster assignment. */
    isa::RegisterMap regMap{2};
    /**
     * Alternative register maps for the dynamic-reassignment mechanism
     * (paper §6): a trace instruction carrying remapIndex = i drains
     * the machine and switches to mapSchedule[i].
     */
    std::vector<isa::RegisterMap> mapSchedule;
    /** Architectural registers transferable per cycle during a remap. */
    unsigned remapTransferRate = 4;

    /**
     * Memory hierarchy: L1I/L1D -> optional shared L2 -> fixed-latency
     * backside. The default is paper mode (no L2, 16-cycle backside,
     * unlimited bandwidth), cycle-identical to the old flat caches.
     */
    mem::MemoryParams memory;

    /** Branch predictor organization (the paper uses McFarling). */
    enum class PredictorKind
    {
        McFarling,
        Gshare,
        Bimodal,
        StaticTaken,
        StaticNotTaken,
    };
    PredictorKind predictor = PredictorKind::McFarling;
    /**
     * Maintain the global history speculatively at predict time
     * (repaired on mispredict) instead of the paper's footnote-2
     * update-at-execute. Off by default (paper-faithful).
     */
    bool speculativeHistory = false;

    /** McFarling predictor sizing (DESIGN.md §5.5). */
    unsigned bimodalIndexBits = 11;
    unsigned historyBits = 12;
    unsigned gshareIndexBits = 12;
    unsigned chooserIndexBits = 12;

    /** Paper §4.1 row 1: the 8-way single-cluster machine. */
    static ProcessorConfig
    singleCluster8()
    {
        ProcessorConfig c;
        c.numClusters = 1;
        c.dispatchQueueEntries = 128;
        c.physIntRegs = 128;
        c.physFpRegs = 128;
        c.issueRules = isa::IssueRules::singleCluster8Way();
        c.regMap = isa::RegisterMap(1);
        return c;
    }

    /** Paper §4.1 row 2: the dual-cluster machine. */
    static ProcessorConfig
    dualCluster8()
    {
        ProcessorConfig c;
        c.numClusters = 2;
        c.dispatchQueueEntries = 64;
        c.physIntRegs = 64;
        c.physFpRegs = 64;
        c.issueRules = isa::IssueRules::dualClusterPerCluster();
        c.regMap = isa::RegisterMap(2);
        return c;
    }

    /** 4-way single-cluster machine (paper also evaluated 4-way). */
    static ProcessorConfig
    singleCluster4()
    {
        ProcessorConfig c = singleCluster8();
        c.dispatchQueueEntries = 64;
        c.physIntRegs = 64;
        c.physFpRegs = 64;
        c.issueRules = isa::IssueRules::singleCluster4Way();
        c.retireWidth = 4;
        return c;
    }

    /** Dual-cluster 4-way machine. */
    static ProcessorConfig
    dualCluster4()
    {
        ProcessorConfig c = dualCluster8();
        c.dispatchQueueEntries = 32;
        c.physIntRegs = 32;
        c.physFpRegs = 32;
        c.issueRules = isa::IssueRules::dual4WayPerCluster();
        c.retireWidth = 4;
        return c;
    }

    /**
     * Check the configuration for inconsistencies that would otherwise
     * surface as asserts deep in construction (or worse, as silently
     * wrong machines). Throws std::runtime_error with a message naming
     * the offending field. Called by mcasim/mcarun at parse time.
     */
    void validate() const;

    /** N-cluster generalization of the 8-way machine (extension §6). */
    static ProcessorConfig
    multiCluster8(unsigned n)
    {
        // The register map supports at most 8 clusters, and the
        // 128-entry window/register budget must split evenly.
        if (n == 0 || n > 8 || 128 % n != 0)
            throw std::runtime_error(
                "multiCluster8(" + std::to_string(n) +
                "): the 8-way machine's 128-entry window/register budget "
                "divides into 1, 2, 4, or 8 clusters");
        ProcessorConfig c;
        c.numClusters = n;
        c.dispatchQueueEntries = 128 / n;
        c.physIntRegs = 128 / n;
        c.physFpRegs = 128 / n;
        c.issueRules = isa::IssueRules::singleCluster8Way().dividedBy(n);
        c.regMap = isa::RegisterMap(n);
        return c;
    }
};

} // namespace mca::core

#endif // MCA_CORE_CONFIG_HH
