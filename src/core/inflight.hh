/**
 * @file
 * In-flight instruction state of the multicluster core: the per-copy
 * execution state (master/slave), the ROB entry, dispatch-queue slots,
 * and pending branch write-backs. Shared by the pipeline components
 * (FetchUnit, DispatchUnit, Scheduler, RetireUnit) through
 * core::MachineState; see docs/architecture.md.
 *
 * In-flight instructions live in a per-machine SlabPool (the retire
 * window bounds the population), and every reference between machine
 * structures — dispatch-queue slots, memory-dependence links — is a
 * generation-checked InFlightHandle rather than a pointer: a handle
 * held across a squash or retirement goes stale instead of dangling.
 * The short per-instruction sequences (copies, reads, renames) use
 * inline-storage vectors so dispatch performs no heap allocation, and
 * dispatch builds each record in place in its reused slot (reset()).
 */

#ifndef MCA_CORE_INFLIGHT_HH
#define MCA_CORE_INFLIGHT_HH

#include <cstdint>

#include "exec/trace.hh"
#include "isa/distribution.hh"
#include "support/arena.hh"
#include "support/small_vector.hh"
#include "support/types.hh"

namespace mca::core
{

/** One register read a copy performs from its own cluster. */
struct SrcRead
{
    std::uint8_t srcIndex;
    std::uint8_t cluster;
    isa::RegClass cls;
    std::uint16_t phys;
};

/** Rename-table change made at dispatch (undone on squash). */
struct RenameUpdate
{
    std::uint8_t cluster;
    isa::RegClass cls;
    std::uint8_t arch;
    std::uint16_t newPhys;
    std::uint16_t prevPhys;
};

/** Execution state of one copy (master or slave) of an instruction. */
struct CopyState
{
    std::uint8_t cluster = 0;
    bool isMaster = false;
    isa::SlaveRole role;
    /** At most one read per source operand. */
    SmallVector<SrcRead, 2> reads;
    /** Clusters where this (master) copy allocated RTB entries. */
    SmallVector<std::uint8_t, 4> rtbClusters;

    bool inQueue = false;
    bool issued = false;
    /** Scenario-5 slave: operand sent, waiting for the result. */
    bool suspended = false;
    bool woke = false;
    /** Operand slave holds an OTB entry until its master issues. */
    bool holdsOtb = false;
    Cycle issueCycle = kNoCycle;
    Cycle completeCycle = kNoCycle;
    /** First cycle this copy was blocked only by a full buffer. */
    Cycle bufferBlockedSince = kNoCycle;
};

/**
 * A dynamic instruction in flight (ROB entry, SlabPool slot). Its
 * distribution lives in its copies: the master's cluster is
 * copies[0].cluster, and each slave copy carries its role.
 */
struct InFlightInst
{
    exec::DynInst di;
    SmallVector<CopyState, 2> copies; // copies[0] is the master
    SmallVector<RenameUpdate, 2> renames;
    /** The master allocated a physical register for the destination. */
    bool masterWritesDest = false;
    Cycle dispatchCycle = 0;
    /** Master's effective latency (set at master issue; cache-aware). */
    unsigned masterEffLat = 0;
    /**
     * Youngest older store to the same dword, if any (perfect memory
     * disambiguation; the load waits and forwards from it). The handle
     * resolves the store's pool slot directly; its generation check
     * detects retirement/squash, and the sequence number confirms the
     * occupant (a dead handle means the store completed long ago).
     */
    PoolHandle memDepStore = kNoHandle;
    InstSeq memDepStoreSeq = kNoSeq;
    /** Load whose effective latency exceeded the d-cache hit time. */
    bool dcacheLoadMiss = false;
    /** Missing load was serviced by the memory backside (vs the L2). */
    bool dcacheMemBound = false;
    bool condBranch = false;
    bool predTaken = false;
    bool mispredicted = false;

    /** Every field but `di` back to its initial value, keeping the
     *  vectors' storage; a field added above is reset here too. */
    void
    reset()
    {
        copies.clear();
        renames.clear();
        masterWritesDest = false;
        dispatchCycle = 0;
        masterEffLat = 0;
        memDepStore = kNoHandle;
        memDepStoreSeq = kNoSeq;
        dcacheLoadMiss = dcacheMemBound = false;
        condBranch = predTaken = mispredicted = false;
    }

    bool
    allComplete(Cycle now) const
    {
        for (const auto &c : copies)
            if (c.completeCycle == kNoCycle || c.completeCycle > now)
                return false;
        return true;
    }

    /**
     * Every copy has issued (a suspended scenario-5 slave counts as
     * issued: its operand went out; only its wake is outstanding). The
     * oldest-unissued cursor advances past such instructions.
     */
    bool
    allIssued() const
    {
        for (const auto &c : copies)
            if (!c.issued)
                return false;
        return true;
    }
};

/** Handle of a pool-resident in-flight instruction. */
using InFlightHandle = SlabPool<InFlightInst>::Handle;

/** Dispatch-queue slot: a copy waiting to issue, and the scheduler's
 *  wait memo (scheduler.hh), null when there is none. */
struct QueueSlot
{
    InFlightHandle inst;
    unsigned copyIdx;
    const Cycle *waitOn = nullptr;
};

/** A branch awaiting write-back (predictor update + fetch redirect). */
struct PendingBranch
{
    InstSeq seq;
    Addr pc;
    bool taken;
    bool mispredicted;
    Cycle wbCycle;
};

} // namespace mca::core

#endif // MCA_CORE_INFLIGHT_HH
