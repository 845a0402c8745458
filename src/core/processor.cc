#include "core/processor.hh"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "core/dispatch.hh"
#include "exec/dyninst_io.hh"
#include "core/fetch.hh"
#include "core/machine.hh"
#include "core/retire.hh"
#include "core/scheduler.hh"
#include "isa/opcodes.hh"
#include "obs/cycle_stack.hh"
#include "obs/snapshot.hh"
#include "prof/prof.hh"
#include "support/panic.hh"

namespace mca::core
{

/**
 * Composition root of the pipeline components. The stages share one
 * MachineState; the Impl owns the cross-cutting concerns that span
 * stages: replay exceptions (squash + re-feed), the stall watchdog,
 * the paranoid invariant sweep, cycle-stack attribution, and the idle
 * fast-forward used by run() (docs/architecture.md).
 */
struct Processor::Impl
{
    Impl(const ProcessorConfig &config, exec::TraceSource &trace_src,
         StatGroup &sg)
        : m(config, sg), fetch(m, trace_src), sched(m), retire(m, fetch),
          dispatch(m, fetch, sched), stats(&sg)
    {
    }

    MachineState m;
    FetchUnit fetch;
    Scheduler sched;
    RetireUnit retire;
    DispatchUnit dispatch;
    StatGroup *stats;
    obs::CycleStack *cstack = nullptr;

    /** Scratch for checkInvariants (avoids per-cycle allocation). */
    std::vector<int> invRefs;
    std::vector<unsigned> invOtbHolds;
    std::vector<unsigned> invRtbHolds;

    bool
    pipelineEmpty() const
    {
        return fetch.drained() && m.rob.empty();
    }

    void beginCycle();
    void serviceReplayRequest();
    void replayFromIndex(std::size_t keep);
    void checkWatchdog();
    void checkInvariants();
    obs::StallCause classifyStall() const;
    Cycle fastForward(Cycle next, Cycle limit);
};

void
Processor::Impl::beginCycle()
{
    for (unsigned c = 0; c < m.clusters.size(); ++c) {
        m.clusters[c].otb.beginCycle(m.now);
        m.clusters[c].rtb.beginCycle(m.now);
        m.st.queueOccupancy[c]->sample(m.clusters[c].occupancy());
    }
    m.st.robOccupancy->sample(m.rob.size());
    m.retiredThisCycle = 0;
    m.dqStallThisCycle = false;
    m.activityThisCycle = false;
}

void
Processor::Impl::serviceReplayRequest()
{
    if (m.replayRequestSeq == kNoSeq)
        return;
    const InstSeq seq = m.replayRequestSeq;
    m.replayRequestSeq = kNoSeq;
    // Locate the blocked instruction; squash everything younger so the
    // buffer entries it is waiting for drain.
    for (std::size_t i = 0; i < m.rob.size(); ++i) {
        if (m.pool.get(m.rob.at(i)).di.seq != seq)
            continue;
        if (i + 1 >= m.rob.size())
            return; // nothing younger to squash; watchdog will decide
        ++*m.st.replayBuffer;
        replayFromIndex(i + 1);
        // Restart the block timer so the head waits a full threshold
        // before requesting another replay.
        for (auto &copy : m.pool.get(m.rob.at(i)).copies)
            copy.bufferBlockedSince = kNoCycle;
        return;
    }
}

void
Processor::Impl::replayFromIndex(std::size_t keep)
{
    MCA_ASSERT(keep >= 1 && keep <= m.rob.size(), "bad replay index");
    ++*m.st.replayExceptions;
    {
        const InFlightInst &anchor = m.pool.get(m.rob.at(keep - 1));
        m.record(m.now, anchor.di.seq, anchor.copies[0].cluster,
                 TimelineEvent::ReplayException);
    }

    // Squash from the youngest back to (and excluding) index keep-1.
    std::vector<exec::DynInst> replayed;
    while (m.rob.size() > keep) {
        const InFlightHandle h = m.rob.back();
        InFlightInst &inst = m.pool.get(h);
        ++*m.st.replaySquashed;
        replayed.push_back(inst.di);
        if (isa::isStore(inst.di.mi.op))
            m.storeQueue.popBack();
        // Undo renames in reverse order.
        for (std::size_t i = inst.renames.size(); i-- > 0;) {
            const auto &ru = inst.renames[i];
            Cluster &cl = m.clusters[ru.cluster];
            cl.mapOf(ru.cls, ru.arch) = ru.prevPhys;
            cl.regs(ru.cls).free(ru.newPhys);
        }
        // Release transfer-buffer entries.
        for (auto &copy : inst.copies) {
            if (copy.holdsOtb)
                m.clusters[inst.copies[0].cluster].otb.scheduleFree(
                    m.now);
            if (copy.isMaster)
                for (std::uint8_t c : copy.rtbClusters)
                    m.clusters[c].rtb.scheduleFree(m.now);
        }
        // Remove copies from the queues: unissued/suspended copies are
        // in the scan lists; issued ones hold accounted window entries.
        for (auto &cl : m.clusters)
            cl.queue.erase(
                std::remove_if(cl.queue.begin(), cl.queue.end(),
                               [&](const QueueSlot &s) {
                                   return s.inst == h;
                               }),
                cl.queue.end());
        if (m.cfg.holdQueueUntilRetire)
            for (const auto &copy : inst.copies)
                if (!copy.inQueue)
                    --m.clusters[copy.cluster].held;
        // Drop any pending predictor update.
        m.pendingBranches.erase(
            std::remove_if(m.pendingBranches.begin(),
                           m.pendingBranches.end(),
                           [&](const PendingBranch &b) {
                               return b.seq == inst.di.seq;
                           }),
            m.pendingBranches.end());
        if (m.mispredictBlockSeq == inst.di.seq)
            m.mispredictBlockSeq = kNoSeq;
        if (m.replayRequestSeq == inst.di.seq)
            m.replayRequestSeq = kNoSeq;
        m.rob.popBack();
        m.pool.free(h);
    }
    // Re-feed the squashed instructions, oldest first. `replayed` is
    // youngest-first (popped from the ROB tail), so pushing each entry
    // to the buffer front in that order leaves the oldest at the front.
    for (const auto &di : replayed)
        fetch.buffer().push_front(di);

    fetch.setStallUntil(m.now + m.cfg.replayPenalty);
    m.lastProgress = m.now;
    m.activityThisCycle = true;
    ++m.consecutiveReplays;
    // A livelock the replay policy cannot break (seen with too few OTB
    // entries on 4- and 8-cluster machines) is a property of the
    // simulated point, so it fails the run by name instead of aborting.
    if (m.consecutiveReplays > 16) {
        const InstSeq oldest =
            m.rob.empty() ? 0 : m.pool.get(m.rob.front()).di.seq;
        throw std::runtime_error(
            "replay exceptions are not making progress (seq " +
            std::to_string(oldest) + ", " +
            std::to_string(m.consecutiveReplays) +
            " replays without a retirement)");
    }
    sched.reset();
}

void
Processor::Impl::checkWatchdog()
{
    if (m.rob.empty() || m.now - m.lastProgress <= m.cfg.replayWatchdog)
        return;
    // The machine is wedged: the oldest instruction cannot finish while
    // younger instructions hold transfer-buffer entries (paper §2.1's
    // issue deadlock). Squash everything younger than the oldest
    // in-flight instruction and replay it.
    ++*m.st.replayWatchdog;
    replayFromIndex(1);
}

void
Processor::Impl::checkInvariants()
{
    for (unsigned c = 0; c < m.clusters.size(); ++c) {
        Cluster &cl = m.clusters[c];
        for (unsigned ci = 0; ci < 2; ++ci) {
            const auto cls = static_cast<isa::RegClass>(ci);
            PhysRegFile &rf = cl.regs(cls);
            invRefs.assign(rf.readyAt.size(), 0);
            for (auto p : rf.freeList) {
                MCA_ASSERT(p < rf.readyAt.size(), "free-list range");
                ++invRefs[p];
            }
            for (unsigned a = 0; a < isa::kNumArchRegs; ++a)
                if (cl.mappedOf(cls, a))
                    ++invRefs[cl.mapOf(cls, a)];
            for (std::size_t i = 0; i < m.rob.size(); ++i)
                for (const auto &ru : m.pool.get(m.rob.at(i)).renames)
                    if (ru.cluster == c && ru.cls == cls)
                        ++invRefs[ru.prevPhys];
            for (std::size_t p = 0; p < invRefs.size(); ++p)
                MCA_ASSERT(invRefs[p] == 1, "phys reg ", p, " cluster ",
                           c, " class ", ci, " referenced ", invRefs[p],
                           " times at cycle ", m.now);
        }
    }
    // Dispatch checks one free entry per copy, which relies on no
    // queue ever holding more than its capacity.
    for (unsigned c = 0; c < m.clusters.size(); ++c)
        MCA_ASSERT(m.clusters[c].occupancy() <= m.clusters[c].queueCapacity,
                   "dispatch queue of cluster ", c, " over capacity at "
                   "cycle ", m.now);
    // Transfer-buffer occupancy must equal the live holds plus the
    // frees that have not matured yet.
    invOtbHolds.assign(m.clusters.size(), 0);
    invRtbHolds.assign(m.clusters.size(), 0);
    for (std::size_t i = 0; i < m.rob.size(); ++i) {
        const InFlightInst &inst = m.pool.get(m.rob.at(i));
        for (const auto &copy : inst.copies) {
            if (copy.holdsOtb)
                ++invOtbHolds[inst.copies[0].cluster];
            if (copy.isMaster)
                for (auto c : copy.rtbClusters)
                    ++invRtbHolds[c];
        }
    }
    for (unsigned c = 0; c < m.clusters.size(); ++c) {
        MCA_ASSERT(m.clusters[c].otb.inUse() ==
                       invOtbHolds[c] + m.clusters[c].otb.pendingFrees(),
                   "OTB accounting leak in cluster ", c, " at cycle ",
                   m.now, ": inUse ", m.clusters[c].otb.inUse(),
                   " holds ", invOtbHolds[c], " pending ",
                   m.clusters[c].otb.pendingFrees());
        MCA_ASSERT(m.clusters[c].rtb.inUse() ==
                       invRtbHolds[c] + m.clusters[c].rtb.pendingFrees(),
                   "RTB accounting leak in cluster ", c, " at cycle ",
                   m.now, ": inUse ", m.clusters[c].rtb.inUse(),
                   " holds ", invRtbHolds[c], " pending ",
                   m.clusters[c].rtb.pendingFrees());
    }
    // The retire window must hold program order, and every window
    // handle must resolve to a live pool slot.
    for (std::size_t i = 0; i < m.rob.size(); ++i)
        MCA_ASSERT(m.pool.isLive(m.rob.at(i)),
                   "retire window holds a dead handle at cycle ", m.now);
    for (std::size_t i = 1; i < m.rob.size(); ++i)
        MCA_ASSERT(m.pool.get(m.rob.at(i - 1)).di.seq <
                       m.pool.get(m.rob.at(i)).di.seq,
                   "retire window out of program order at cycle ",
                   m.now);
    MCA_ASSERT(m.pool.size() == m.rob.size(),
               "pool population diverged from the retire window at "
               "cycle ", m.now);
    // Generation-handle hygiene: every dispatch-queue slot must name a
    // live in-flight instruction that is present in the retire window
    // (a handle held across retirement or squash must have gone stale,
    // never aliased a reused slot), and a load's memory-dependence
    // handle, when still live, must name exactly the store whose
    // sequence number it captured at dispatch.
    for (unsigned c = 0; c < m.clusters.size(); ++c)
        for (const auto &slot : m.clusters[c].queue) {
            MCA_ASSERT(m.pool.isLive(slot.inst),
                       "queue slot holds a stale handle in cluster ", c,
                       " at cycle ", m.now);
            const InFlightInst &qi = m.pool.get(slot.inst);
            MCA_ASSERT(slot.copyIdx < qi.copies.size(),
                       "queue slot copy index out of range at cycle ",
                       m.now);
            const CopyState &copy = qi.copies[slot.copyIdx];
            MCA_ASSERT(copy.cluster == c,
                       "queue slot copy in the wrong cluster at cycle ",
                       m.now);
            MCA_ASSERT(!copy.issued || copy.suspended,
                       "issued copy left in the scan list at cycle ",
                       m.now);
            // A wait memo names a read of its copy; the reads checked
            // before it (all others for a slave) are ready.
            bool named = !slot.waitOn;
            for (const auto &rd : copy.reads) {
                const Cycle &at =
                    m.clusters[rd.cluster].regs(rd.cls).readyAt[rd.phys];
                if (&at == slot.waitOn)
                    named = true;
                else
                    MCA_ASSERT(!slot.waitOn || at <= m.now ||
                                   (named && copy.isMaster),
                               "wait memo passes an unready read at cycle ",
                               m.now);
            }
            MCA_ASSERT(named && (!slot.waitOn ||
                                 copy.bufferBlockedSince == kNoCycle),
                       "wait memo names no read of its copy, or a "
                       "buffer-blocked copy, at cycle ", m.now);
            bool in_rob = false;
            for (std::size_t i = 0; i < m.rob.size() && !in_rob; ++i)
                in_rob = m.rob.at(i) == slot.inst;
            MCA_ASSERT(in_rob, "queue slot instruction not in the "
                               "retire window at cycle ", m.now);
        }
    // Window-mode held accounting: cl.held must equal the number of
    // in-flight copies that left the scan list at issue (inQueue
    // cleared) but still occupy a queue entry until retirement.
    if (m.cfg.holdQueueUntilRetire) {
        std::vector<unsigned> expect_held(m.clusters.size(), 0);
        for (std::size_t i = 0; i < m.rob.size(); ++i)
            for (const auto &copy : m.pool.get(m.rob.at(i)).copies)
                if (!copy.inQueue)
                    ++expect_held[copy.cluster];
        for (unsigned c = 0; c < m.clusters.size(); ++c)
            MCA_ASSERT(m.clusters[c].held == expect_held[c],
                       "held queue-entry accounting leak in cluster ",
                       c, " at cycle ", m.now, ": held ",
                       m.clusters[c].held, " expected ", expect_held[c]);
    }
    // The store queue must hold exactly the window's stores, oldest
    // first.
    std::size_t n_stores = 0;
    for (std::size_t i = 0; i < m.rob.size(); ++i) {
        const InFlightInst &inst = m.pool.get(m.rob.at(i));
        if (!isa::isStore(inst.di.mi.op))
            continue;
        const auto &sq = m.storeQueue;
        MCA_ASSERT(n_stores < sq.size() &&
                       sq.at(n_stores).handle == m.rob.at(i) &&
                       sq.at(n_stores).seq == inst.di.seq &&
                       sq.at(n_stores).dword == inst.di.effAddr >> 3,
                   "store queue entry ", n_stores, " does not match the "
                   "window's store at cycle ", m.now);
        ++n_stores;
    }
    MCA_ASSERT(n_stores == m.storeQueue.size(),
               "store queue holds a store outside the window at cycle ",
               m.now);
    for (std::size_t i = 0; i < m.rob.size(); ++i) {
        const InFlightInst &inst = m.pool.get(m.rob.at(i));
        if (inst.memDepStoreSeq == kNoSeq)
            continue;
        if (const InFlightInst *dep = m.pool.tryGet(inst.memDepStore))
            if (dep->di.seq == inst.memDepStoreSeq)
                MCA_ASSERT(isa::isStore(dep->di.mi.op) &&
                               dep->di.seq < inst.di.seq,
                           "memory-dependence handle names a non-store "
                           "or younger instruction at cycle ", m.now);
    }
    // The scheduler's cursor must name the oldest instruction with
    // unissued work, as an independent walk of the window finds it.
    InstSeq oldest = kNoSeq;
    for (std::size_t i = 0; i < m.rob.size() && oldest == kNoSeq; ++i)
        if (!m.pool.get(m.rob.at(i)).allIssued())
            oldest = m.pool.get(m.rob.at(i)).di.seq;
    MCA_ASSERT(sched.oldestUnissued() == oldest,
               "scheduler cursor names seq ", sched.oldestUnissued(),
               ", oldest unissued is ", oldest, " at cycle ", m.now);
    // The fetch buffer must hold program order as well, and with the
    // window it stays within the bound FetchUnit::buffer() states.
    const auto &fb = fetch.buffer();
    for (std::size_t i = 1; i < fb.size(); ++i)
        MCA_ASSERT(fb[i - 1].seq < fb[i].seq,
                   "fetch buffer out of program order at cycle ", m.now);
    MCA_ASSERT(m.rob.size() + fb.size() <=
                   m.cfg.retireWindow + m.cfg.fetchBufferEntries,
               "window ", m.rob.size(), " + fetch buffer ", fb.size(),
               " exceed retireWindow + fetchBufferEntries at cycle ",
               m.now);
}

/**
 * Attribute this cycle's empty retire slots to a single cause by
 * inspecting the oldest unretired instruction (the classic CPI-stack
 * convention: the head is what retirement is waiting on). Runs at the
 * end of the cycle, after every stage has acted. Evaluated only when a
 * cycle stack is attached and the retire bandwidth was not saturated.
 */
obs::StallCause
Processor::Impl::classifyStall() const
{
    using obs::StallCause;

    if (m.rob.empty()) {
        // Nothing in flight: the front end is the limiter.
        if (m.mispredictBlockSeq != kNoSeq || m.now < fetch.stallUntil())
            return StallCause::Squash; // redirect / replay refill
        if (fetch.icachePending() || m.now < fetch.icacheReadyAt())
            return StallCause::IcacheMiss;
        if (m.dqStallThisCycle)
            return StallCause::DispatchQueue;
        // Trace exhausted (drain) or the pipeline is still filling
        // after a squash-free start; both are charged as drain.
        return StallCause::Drain;
    }

    const InFlightInst &head = m.pool.get(m.rob.front());
    const CopyState &master = head.copies[0];

    if (!master.issued) {
        // Waiting to issue: find the binding constraint, most specific
        // first. A full RTB in any receiving cluster gates issue
        // outright (Table 1), so check it before operand arrival.
        for (const auto &sl : head.copies)
            if (!sl.isMaster && sl.role.receivesResult &&
                !m.clusters[sl.cluster].rtb.canAlloc())
                return StallCause::ResultBuffer;
        for (const auto &sl : head.copies) {
            if (sl.isMaster || !sl.role.forwardsOperand)
                continue;
            if (!sl.issued)
                return m.clusters[master.cluster].otb.canAlloc()
                           ? StallCause::RemoteReg
                           : StallCause::OperandBuffer;
            if (sl.issueCycle + 1 > m.now)
                return StallCause::RemoteReg; // operand still in transit
        }
        // No cluster-specific cause: the head waits on local operands,
        // dividers, or memory dependences. If dispatch also lost
        // bandwidth to a full queue this cycle the machine is congested
        // end to end; charge the capacity loss, else base.
        return m.dqStallThisCycle ? StallCause::DispatchQueue
                                  : StallCause::Base;
    } else if (master.completeCycle == kNoCycle ||
               master.completeCycle > m.now) {
        // Master executing; a long-latency load is a d-cache stall,
        // attributed to the level that serviced the miss; anything else
        // is plain execution latency (base).
        if (head.dcacheLoadMiss)
            return head.dcacheMemBound ? StallCause::DcacheMem
                                       : StallCause::DcacheL2;
        return StallCause::Base;
    } else {
        // Master done; a slave copy is outstanding.
        for (const auto &sl : head.copies)
            if (!sl.isMaster && sl.suspended)
                return StallCause::SlaveSuspend;
        for (const auto &sl : head.copies) {
            if (sl.isMaster)
                continue;
            if (sl.completeCycle == kNoCycle || sl.completeCycle > m.now)
                return sl.role.receivesResult ? StallCause::RemoteReg
                                              : StallCause::Base;
        }
        // Completed this cycle after retirement ran; commits next
        // cycle. Charged as base (commit latency).
    }
    return StallCause::Base;
}

/**
 * Idle fast-forward: called after a stepped cycle with no activity
 * (nothing retired, resolved, issued, fetched, dispatched, remapped,
 * or replayed). Such a cycle's blocked decisions repeat unchanged
 * until the earliest future event, so the simulator jumps straight to
 * it, replicating the per-cycle bookkeeping (occupancy samples, stall
 * counters, cycle-stack attribution) in bulk. Returns the cycle to
 * resume stepping at (`next` when no skip applies).
 */
Cycle
Processor::Impl::fastForward(Cycle next, Cycle limit)
{
    if (!m.cfg.idleSkip || m.activityThisCycle || pipelineEmpty())
        return next;

    // Earliest future cycle any stage can act: a scheduler wakeup, a
    // head-copy completion or branch write-back, a fetch stall window
    // or icache fill maturing, or the stall watchdog tripping.
    Cycle e = kNoCycle;
    auto fold = [&](Cycle at) {
        if (at != kNoCycle && at < e)
            e = at;
    };
    fold(sched.nextWakeCycle());
    fold(retire.nextEventCycle());
    fold(fetch.nextEventCycle());
    if (!m.rob.empty())
        fold(m.lastProgress + m.cfg.replayWatchdog + 1);
    if (e == kNoCycle)
        return next; // purely event-gated; resolved by other stages
    e = std::min(e, limit);
    if (e <= next)
        return next;
    const Cycle k = e - next;

    // Replicate k identical idle cycles in bulk. No transfer-buffer
    // frees are pending (frees are only scheduled by issue and squash,
    // both activity), so beginCycle would be a pure re-sample.
    for (unsigned c = 0; c < m.clusters.size(); ++c)
        m.st.queueOccupancy[c]->sample(m.clusters[c].occupancy(), k);
    m.st.robOccupancy->sample(m.rob.size(), k);
    switch (fetch.idleEffect()) {
      case FetchUnit::IdleEffect::BranchStall:
        *m.st.stallBranchCycles += k;
        break;
      case FetchUnit::IdleEffect::IcacheStall:
        *m.st.stallIcacheCycles += k;
        break;
      case FetchUnit::IdleEffect::None:
        break;
    }
    switch (dispatch.idleEffect()) {
      case DispatchUnit::IdleEffect::RemapDrain:
        *m.st.remapDrainCycles += k;
        break;
      case DispatchUnit::IdleEffect::StallRob:
        *m.st.stallRob += k;
        break;
      case DispatchUnit::IdleEffect::StallDq:
        *m.st.stallDq += k;
        break;
      case DispatchUnit::IdleEffect::StallPhys:
        *m.st.stallPhys += k;
        break;
      case DispatchUnit::IdleEffect::None:
        break;
    }
    if (cstack) {
        // The stall cause is constant across the window: every
        // now-comparison it makes has its flip cycle folded into e.
        cstack->accountIdle(classifyStall(), k);
    }
    *m.st.cycles += k;
    m.now = e;
    return e;
}

// ---------------------------------------------------------------------

Processor::Processor(const ProcessorConfig &config,
                     exec::TraceSource &trace, StatGroup &stats)
    // Reject inconsistent configurations at the constructor, not just
    // in the CLIs: a library user gets the named-field diagnostic of
    // ProcessorConfig::validate instead of an assert deep inside
    // machine construction.
    : config_((config.validate(), config)),
      impl_(std::make_unique<Impl>(config, trace, stats))
{
}

Processor::~Processor() = default;

void
Processor::attachTimeline(TimelineRecorder *recorder)
{
    impl_->m.timeline = recorder;
}

void
Processor::attachCycleStack(obs::CycleStack *stack)
{
    impl_->cstack = stack;
    if (stack)
        stack->slots = impl_->m.cfg.retireWidth;
}

void
Processor::observe(obs::CycleObs &out) const
{
    const Impl &im = *impl_;
    out.cycle = cycle_;
    out.retired = im.m.st.retired->value();
    out.dispatched = im.m.st.dispatched->value();
    out.icacheAccesses = im.m.icache.accesses();
    out.icacheMisses = im.m.icache.misses();
    out.dcacheAccesses = im.m.dcache.accesses();
    out.dcacheMisses = im.m.dcache.misses();
    out.hasL2 = im.m.memsys.hasL2();
    if (const mem::Cache *l2 = im.m.memsys.l2()) {
        out.l2Accesses = l2->accesses();
        out.l2Misses = l2->misses();
        out.l2InFlight = l2->inFlight(cycle_);
    } else {
        out.l2Accesses = 0;
        out.l2Misses = 0;
        out.l2InFlight = 0;
    }
    out.l1iInFlight = im.m.icache.inFlight(cycle_);
    out.l1dInFlight = im.m.dcache.inFlight(cycle_);
    out.memInFlight = im.m.memsys.memory().inFlight(cycle_);
    out.robOcc = static_cast<unsigned>(im.m.rob.size());
    out.robCap = im.m.cfg.retireWindow;
    out.clusters.resize(im.m.clusters.size());
    for (std::size_t c = 0; c < im.m.clusters.size(); ++c) {
        const Cluster &cl = im.m.clusters[c];
        obs::ClusterObs &o = out.clusters[c];
        o.queueOcc = static_cast<unsigned>(cl.occupancy());
        o.queueCap = cl.queueCapacity;
        o.otbInUse = cl.otb.inUse();
        o.otbCap = cl.otb.capacity();
        o.rtbInUse = cl.rtb.inUse();
        o.rtbCap = cl.rtb.capacity();
    }
}

std::uint64_t
Processor::retiredInstructions() const
{
    return impl_->m.st.retired->value();
}

namespace
{

/**
 * Compile-time-selected host-profiler scope: the <false> sink is an
 * empty object the optimizer deletes, so a WithProf=false cycle kernel
 * carries no per-stage timer construction at all (not even the
 * enabled() load PROF_SCOPE pays).
 */
template <bool WithProf>
struct MaybeProfScope
{
    explicit MaybeProfScope(prof::RegionId) {}
};

template <>
struct MaybeProfScope<true>
{
    explicit MaybeProfScope(prof::RegionId id) : timer(id) {}
    prof::ScopeTimer timer;
};

// Stage regions, interned once (PROF_SCOPE's static-local pattern
// would re-check its guard per call inside the templated kernel).
const prof::RegionId kRegBegin = prof::internRegion("core.begin");
const prof::RegionId kRegRetire = prof::internRegion("core.retire");
const prof::RegionId kRegSchedule = prof::internRegion("core.schedule");
const prof::RegionId kRegFetch = prof::internRegion("core.fetch");
const prof::RegionId kRegDispatch = prof::internRegion("core.dispatch");
const prof::RegionId kRegAccount = prof::internRegion("core.account");
const prof::RegionId kRegIdleSkip = prof::internRegion("core.idle_skip");

} // namespace

template <bool WithObs, bool WithProf>
bool
Processor::stepImpl()
{
    Impl &im = *impl_;
    if (im.pipelineEmpty())
        return false;
    im.m.now = cycle_;
    {
        MaybeProfScope<WithProf> ps(kRegBegin);
        im.beginCycle();
    }
    {
        MaybeProfScope<WithProf> ps(kRegRetire);
        const unsigned n_retired = im.retire.tick();
        if (n_retired > 0)
            im.sched.onRetired(n_retired);
        im.retire.resolveBranches();
    }
    {
        MaybeProfScope<WithProf> ps(kRegSchedule);
        im.sched.tick();
        im.serviceReplayRequest();
    }
    {
        MaybeProfScope<WithProf> ps(kRegFetch);
        im.fetch.tick();
    }
    {
        MaybeProfScope<WithProf> ps(kRegDispatch);
        im.dispatch.tick();
    }
    MaybeProfScope<WithProf> ps(kRegAccount);
    im.checkWatchdog();
    if constexpr (WithObs) {
        if (im.m.cfg.paranoid)
            im.checkInvariants();
        if (im.cstack) {
            obs::CycleStack &cs = *im.cstack;
            cs.slots = im.m.cfg.retireWidth;
            const auto cause = im.m.retiredThisCycle < cs.slots
                                   ? im.classifyStall()
                                   : obs::StallCause::Base;
            cs.account(im.m.retiredThisCycle, cause);
        }
    }
    ++cycle_;
    ++stepped_;
    ++*im.m.st.cycles;
    return true;
}

bool
Processor::step()
{
    // Selected per call: the cycle stack can attach/detach and the
    // profiler can toggle between any two cycles, and the lockstep
    // harness steps machines whose attachment states differ.
    const Impl &im = *impl_;
    const bool obs = im.cstack != nullptr || im.m.cfg.paranoid;
    if (prof::enabled())
        return obs ? stepImpl<true, true>() : stepImpl<false, true>();
    return obs ? stepImpl<true, false>() : stepImpl<false, false>();
}

template <bool WithObs, bool WithProf>
SimResult
Processor::runLoop(std::uint64_t target_retired, Cycle max_cycles)
{
    SimResult result;
    while (cycle_ < max_cycles &&
           impl_->m.st.retired->value() < target_retired) {
        if (!stepImpl<WithObs, WithProf>())
            break;
        MaybeProfScope<WithProf> ps(kRegIdleSkip);
        cycle_ = impl_->fastForward(cycle_, max_cycles);
    }
    result.cycles = cycle_;
    result.instructions = impl_->m.st.retired->value();
    result.completed = impl_->pipelineEmpty();
    return result;
}

SimResult
Processor::runDispatch(std::uint64_t target_retired, Cycle max_cycles)
{
    // Hoist the accounting selection out of the loop. Attachment state
    // cannot change while run() owns the thread, and profiler toggles
    // mid-run only lose attribution for the remainder of that call.
    const Impl &im = *impl_;
    const bool obs = im.cstack != nullptr || im.m.cfg.paranoid;
    if (prof::enabled())
        return obs ? runLoop<true, true>(target_retired, max_cycles)
                   : runLoop<false, true>(target_retired, max_cycles);
    return obs ? runLoop<true, false>(target_retired, max_cycles)
               : runLoop<false, false>(target_retired, max_cycles);
}

SimResult
Processor::run(Cycle max_cycles)
{
    return runDispatch(~std::uint64_t{0}, max_cycles);
}

SimResult
Processor::runUntilRetired(std::uint64_t target_retired, Cycle max_cycles)
{
    return runDispatch(target_retired, max_cycles);
}

mem::MemorySystem &
Processor::memorySystem()
{
    return impl_->m.memsys;
}

bpred::Predictor &
Processor::predictor()
{
    return *impl_->m.predictor;
}

exec::TraceSource &
Processor::trace()
{
    return impl_->fetch.trace();
}

// --- checkpoint/restore ----------------------------------------------

namespace
{

/** Restored id `v`, or a named error unless it is below `end`. */
template <typename T>
T
below(T v, std::uint64_t end, const char *what)
{
    if (v >= end)
        throw std::runtime_error(std::string("checkpoint: ") + what +
                                 " out of range");
    return v;
}

/** Restored count `n`, or a named error when it exceeds `max`; checked
 *  before anything is sized by it. */
template <typename T>
T
atMost(T n, std::uint64_t max, const char *what)
{
    if (n > max)
        throw std::runtime_error(std::string("checkpoint: ") + what +
                                 " out of range");
    return n;
}

/** Canonical encoding of a RegisterMap (configHash + live-map state). */
void
encodeRegMap(ckpt::Writer &w, const isa::RegisterMap &map)
{
    w.u32(map.numClusters());
    w.u32(map.globalMask(isa::RegClass::Int));
    w.u32(map.globalMask(isa::RegClass::Fp));
    for (unsigned ci = 0; ci < 2; ++ci)
        for (unsigned i = 0; i < isa::kNumArchRegs; ++i)
            w.u8(static_cast<std::uint8_t>(map.homeOverride(
                isa::RegId(static_cast<isa::RegClass>(ci), i))));
}

/** Mirror of encodeRegMap, applied through the public mutators. */
void
decodeRegMap(ckpt::Reader &r, isa::RegisterMap &map)
{
    const std::uint32_t clusters = r.u32();
    if (clusters != map.numClusters())
        throw std::runtime_error(
            "checkpoint: register-map cluster count mismatch");
    const std::uint32_t masks[2] = {r.u32(), r.u32()};
    for (unsigned ci = 0; ci < 2; ++ci) {
        const auto cls = static_cast<isa::RegClass>(ci);
        for (unsigned i = 0; i < isa::kNumArchRegs; ++i) {
            const isa::RegId reg(cls, i);
            if (masks[ci] & (1u << i))
                map.setGlobal(reg);
            else
                map.setLocal(reg);
        }
    }
    for (unsigned ci = 0; ci < 2; ++ci) {
        const auto cls = static_cast<isa::RegClass>(ci);
        for (unsigned i = 0; i < isa::kNumArchRegs; ++i) {
            const isa::RegId reg(cls, i);
            const auto over = static_cast<std::int8_t>(r.u8());
            if (over >= 0)
                map.setHome(reg, below(static_cast<unsigned>(over),
                                       map.numClusters(),
                                       "register home cluster"));
            else
                map.clearHome(reg);
        }
    }
}

void
writeSlaveRole(ckpt::Writer &w, const isa::SlaveRole &role)
{
    w.u8(static_cast<std::uint8_t>(role.cluster));
    w.b(role.forwardsOperand);
    w.b(role.receivesResult);
    w.u32(role.srcMask);
}

isa::SlaveRole
readSlaveRole(ckpt::Reader &r, unsigned clusters)
{
    isa::SlaveRole role;
    role.cluster = below(r.u8(), clusters, "slave role cluster");
    role.forwardsOperand = r.b();
    role.receivesResult = r.b();
    role.srcMask = r.u32();
    return role;
}

/** The record's DynInst goes through the shared record codec; its
 *  distribution lives in the copies, as in the live record. */
void
writeInFlightInst(ckpt::Writer &w, const InFlightInst &inst)
{
    exec::writeDynInst(w, inst.di);
    w.b(inst.masterWritesDest);
    w.u64(inst.copies.size());
    for (const auto &copy : inst.copies) {
        w.u8(copy.cluster);
        w.b(copy.isMaster);
        writeSlaveRole(w, copy.role);
        w.u64(copy.reads.size());
        for (const auto &rd : copy.reads) {
            w.u8(rd.srcIndex);
            w.u8(rd.cluster);
            w.u8(static_cast<std::uint8_t>(rd.cls));
            w.u16(rd.phys);
        }
        w.u64(copy.rtbClusters.size());
        for (std::uint8_t c : copy.rtbClusters)
            w.u8(c);
        w.b(copy.inQueue);
        w.b(copy.issued);
        w.b(copy.suspended);
        w.b(copy.woke);
        w.b(copy.holdsOtb);
        w.u64(copy.issueCycle);
        w.u64(copy.completeCycle);
        w.u64(copy.bufferBlockedSince);
    }
    w.u64(inst.renames.size());
    for (const auto &ru : inst.renames) {
        w.u8(ru.cluster);
        w.u8(static_cast<std::uint8_t>(ru.cls));
        w.u8(ru.arch);
        w.u16(ru.newPhys);
        w.u16(ru.prevPhys);
    }
    w.u64(inst.dispatchCycle);
    w.u32(inst.masterEffLat);
    w.u64(inst.memDepStoreSeq);
    w.b(inst.dcacheLoadMiss);
    w.b(inst.dcacheMemBound);
    w.b(inst.condBranch);
    w.b(inst.predTaken);
    w.b(inst.mispredicted);
}

/** Mirror of writeInFlightInst; every count, cluster, register class
 *  and physical register is checked against the restoring machine. */
void
readInFlightInst(ckpt::Reader &r, InFlightInst &inst, const MachineState &m)
{
    const unsigned clusters = m.cfg.numClusters;
    const auto physRegs = [&](unsigned c, isa::RegClass cls) {
        return m.clusters[c].regs(cls).readyAt.size();
    };
    exec::readDynInst(r, inst.di,
                      static_cast<std::uint32_t>(m.cfg.mapSchedule.size()),
                      "checkpoint");
    inst.masterWritesDest = r.b();
    const std::uint64_t n_copies = atMost(r.u64(), clusters, "copy count");
    if (n_copies == 0)
        throw std::runtime_error("checkpoint: in-flight record has no copies");
    inst.copies.resize(n_copies);
    for (auto &copy : inst.copies) {
        copy.cluster = below(r.u8(), clusters, "copy cluster");
        copy.isMaster = r.b();
        copy.role = readSlaveRole(r, clusters);
        copy.reads.resize(atMost(r.u64(), 2, "source read count"));
        for (auto &rd : copy.reads) {
            rd.srcIndex = below(r.u8(), 2, "read source index");
            rd.cluster = below(r.u8(), clusters, "read cluster");
            rd.cls = static_cast<isa::RegClass>(
                below(r.u8(), 2, "register class"));
            rd.phys = below(r.u16(), physRegs(rd.cluster, rd.cls),
                            "read physical register");
        }
        copy.rtbClusters.resize(
            atMost(r.u64(), clusters, "RTB cluster count"));
        for (auto &c : copy.rtbClusters)
            c = below(r.u8(), clusters, "RTB cluster");
        copy.inQueue = r.b();
        copy.issued = r.b();
        copy.suspended = r.b();
        copy.woke = r.b();
        copy.holdsOtb = r.b();
        copy.issueCycle = r.u64();
        copy.completeCycle = r.u64();
        copy.bufferBlockedSince = r.u64();
    }
    inst.renames.resize(atMost(r.u64(), clusters, "rename count"));
    for (auto &ru : inst.renames) {
        ru.cluster = below(r.u8(), clusters, "rename cluster");
        ru.cls = static_cast<isa::RegClass>(
            below(r.u8(), 2, "register class"));
        ru.arch = below(r.u8(), isa::kNumArchRegs, "rename register");
        const std::size_t n_phys = physRegs(ru.cluster, ru.cls);
        ru.newPhys = below(r.u16(), n_phys, "rename physical register");
        ru.prevPhys = below(r.u16(), n_phys, "rename physical register");
    }
    inst.dispatchCycle = r.u64();
    inst.masterEffLat = r.u32();
    inst.memDepStoreSeq = r.u64();
    inst.dcacheLoadMiss = r.b();
    inst.dcacheMemBound = r.b();
    inst.condBranch = r.b();
    inst.predTaken = r.b();
    inst.mispredicted = r.b();
}

void
writeTransferBuffer(ckpt::Writer &w, const TransferBuffer &buf)
{
    w.u32(buf.inUse());
    w.u64(buf.pendingFreeList().size());
    for (Cycle c : buf.pendingFreeList())
        w.u64(c);
}

void
readTransferBuffer(ckpt::Reader &r, TransferBuffer &buf)
{
    const unsigned in_use =
        atMost(r.u32(), buf.capacity(), "transfer-buffer occupancy");
    std::vector<Cycle> pending(
        atMost(r.u64(), buf.capacity(), "transfer-buffer pending frees"));
    for (Cycle &c : pending)
        c = r.u64();
    buf.restore(in_use, std::move(pending));
}

void
writePhysRegFile(ckpt::Writer &w, const PhysRegFile &rf)
{
    w.u64(rf.readyAt.size());
    for (Cycle c : rf.readyAt)
        w.u64(c);
    w.u64(rf.freeList.size());
    for (std::uint16_t p : rf.freeList)
        w.u16(p);
}

void
readPhysRegFile(ckpt::Reader &r, PhysRegFile &rf)
{
    const std::uint64_t n = r.u64();
    if (n != rf.readyAt.size())
        throw std::runtime_error(
            "checkpoint: physical register file size mismatch");
    for (Cycle &c : rf.readyAt)
        c = r.u64();
    rf.freeList.resize(atMost(r.u64(), n, "free-list length"));
    for (std::uint16_t &p : rf.freeList)
        p = below(r.u16(), n, "free-list physical register");
}

} // namespace

std::uint64_t
Processor::configHash() const
{
    const ProcessorConfig &c = config_;
    ckpt::Writer w;
    w.u32(c.numClusters);
    w.u32(c.fetchWidth);
    w.u32(c.fetchBufferEntries);
    w.u32(c.dispatchQueueEntries);
    w.b(c.holdQueueUntilRetire);
    w.u32(c.physIntRegs);
    w.u32(c.physFpRegs);
    const isa::IssueRules &ir = c.issueRules;
    for (unsigned v : {ir.all, ir.intMul, ir.intOther, ir.fpAll, ir.fpDiv,
                       ir.fpOther, ir.loadStore, ir.ctrlFlow})
        w.u32(v);
    w.u32(c.retireWidth);
    w.u32(c.retireWindow);
    w.u32(c.operandBufferEntries);
    w.u32(c.resultBufferEntries);
    w.u32(c.replayWatchdog);
    w.u32(c.bufferBlockThreshold);
    w.u32(c.replayPenalty);
    w.b(c.reserveOldestEntry);
    encodeRegMap(w, c.regMap);
    w.u64(c.mapSchedule.size());
    for (const auto &map : c.mapSchedule)
        encodeRegMap(w, map);
    w.u32(c.remapTransferRate);
    for (const mem::CacheParams *cp : {&c.memory.icache, &c.memory.dcache}) {
        w.u64(cp->sizeBytes);
        w.u32(cp->assoc);
        w.u32(cp->blockBytes);
        w.u32(cp->missLatency);
        w.b(cp->writeAllocate);
        w.u32(cp->mshrEntries);
        w.u32(cp->hitLatency);
        w.u32(cp->fillPorts);
    }
    w.u64(c.memory.l2SizeBytes);
    w.u32(c.memory.l2Assoc);
    w.u32(c.memory.l2BlockBytes);
    w.u32(c.memory.l2HitLatency);
    w.u32(c.memory.l2FillPorts);
    w.u32(c.memory.memLatency);
    w.u32(c.memory.memPorts);
    w.u8(static_cast<std::uint8_t>(c.predictor));
    w.b(c.speculativeHistory);
    w.u32(c.bimodalIndexBits);
    w.u32(c.historyBits);
    w.u32(c.gshareIndexBits);
    w.u32(c.chooserIndexBits);
    return ckpt::fnv1a(w.data().data(), w.data().size());
}

void
Processor::saveState(ckpt::SnapshotBuilder &b) const
{
    PROF_SCOPE("ckpt.save_state");
    const Impl &im = *impl_;
    ckpt::Writer &w = b.w();

    b.section("CORE");
    w.u64(cycle_);
    w.u64(stepped_);
    w.u64(im.m.now);
    w.u64(im.m.lastProgress);
    w.u32(im.m.consecutiveReplays);
    w.u64(im.m.mispredictBlockSeq);
    w.u64(im.m.replayRequestSeq);
    // The live register map: §6 remaps mutate it at runtime, so it is
    // machine state, distinct from the constructed config's map.
    encodeRegMap(w, im.m.cfg.regMap);
    w.u64(im.m.pendingBranches.size());
    for (const auto &pb : im.m.pendingBranches) {
        w.u64(pb.seq);
        w.u64(pb.pc);
        w.b(pb.taken);
        w.b(pb.mispredicted);
        w.u64(pb.wbCycle);
    }
    w.u64(im.m.rob.size());
    for (std::size_t i = 0; i < im.m.rob.size(); ++i)
        writeInFlightInst(w, im.m.pool.get(im.m.rob.at(i)));
    // Clusters. The dispatch queues are not written: restore rebuilds
    // them from the copies' inQueue flags in the window.
    for (const Cluster &cl : im.m.clusters) {
        writePhysRegFile(w, cl.intRegs);
        writePhysRegFile(w, cl.fpRegs);
        for (unsigned ci = 0; ci < 2; ++ci)
            for (unsigned a = 0; a < isa::kNumArchRegs; ++a)
                w.u16(cl.renameMap[ci][a]);
        for (unsigned ci = 0; ci < 2; ++ci)
            for (unsigned a = 0; a < isa::kNumArchRegs; ++a)
                w.b(cl.mapped[ci][a]);
        writeTransferBuffer(w, cl.otb);
        writeTransferBuffer(w, cl.rtb);
        w.u64(cl.dividerBusyUntil.size());
        for (Cycle c : cl.dividerBusyUntil)
            w.u64(c);
    }
    im.fetch.saveState(w);

    b.section("TRAC");
    im.fetch.trace().saveState(w);

    b.section("MEMS");
    im.m.memsys.saveState(w);

    b.section("BPRD");
    im.m.predictor->saveState(w);

    b.section("STAT");
    std::uint64_t n_counters = 0, n_dists = 0;
    im.stats->forEachCounter(
        [&](const std::string &, const Counter &) { ++n_counters; });
    im.stats->forEachDistribution(
        [&](const std::string &, const Distribution &) { ++n_dists; });
    w.u64(n_counters);
    im.stats->forEachCounter(
        [&](const std::string &name, const Counter &c) {
            w.str(name);
            w.u64(c.value());
        });
    w.u64(n_dists);
    im.stats->forEachDistribution(
        [&](const std::string &name, const Distribution &d) {
            w.str(name);
            w.u64(d.buckets().size());
            for (std::uint64_t v : d.buckets())
                w.u64(v);
            w.u64(d.overflow());
            w.u64(d.samples());
            w.u64(d.sum());
            w.f64(d.sumSq());
            w.u64(d.max());
        });

    b.section("CSTK");
    w.b(im.cstack != nullptr);
    if (im.cstack) {
        for (std::uint64_t v : im.cstack->slotCycles)
            w.u64(v);
        w.u32(im.cstack->slots);
        w.u64(im.cstack->cycles);
    }
}

void
Processor::loadState(ckpt::SnapshotParser &p)
{
    PROF_SCOPE("ckpt.load_state");
    Impl &im = *impl_;
    ckpt::Reader &r = p.r();

    p.section("CORE");
    cycle_ = r.u64();
    stepped_ = r.u64();
    im.m.now = r.u64();
    im.m.lastProgress = r.u64();
    im.m.consecutiveReplays = r.u32();
    im.m.mispredictBlockSeq = r.u64();
    im.m.replayRequestSeq = r.u64();
    decodeRegMap(r, im.m.cfg.regMap);
    im.m.pendingBranches.resize(
        atMost(r.u64(), im.m.cfg.retireWindow, "pending branch count"));
    for (auto &pb : im.m.pendingBranches) {
        pb.seq = r.u64();
        pb.pc = r.u64();
        pb.taken = r.b();
        pb.mispredicted = r.b();
        pb.wbCycle = r.u64();
    }
    im.m.rob.clear();
    im.m.pool.clear();
    im.m.storeQueue.clear();
    for (Cluster &cl : im.m.clusters) {
        cl.queue.clear();
        cl.held = 0;
    }
    const std::uint64_t n_rob = r.u64();
    if (n_rob > im.m.pool.capacity())
        throw std::runtime_error(
            "checkpoint: retire window larger than configured");
    // Each record also rebuilds, in age order, what the window
    // determines: the store queue; the loads' memory-dependence handles
    // (a store that already left the window stays unresolved, reset()'s
    // kNoHandle, the same observable state as a stale handle); and the
    // dispatch queues, whose scan lists hold the copies still awaiting
    // issue or a suspended slave's wake (inQueue), while in window mode
    // every other copy holds its entry until retirement.
    for (std::uint64_t i = 0; i < n_rob; ++i) {
        const InFlightHandle h = im.m.pool.alloc();
        InFlightInst &inst = im.m.pool.get(h);
        inst.reset();
        readInFlightInst(r, inst, im.m);
        im.m.rob.pushBack(h);
        if (isa::isStore(inst.di.mi.op))
            im.m.storeQueue.pushBack({inst.di.effAddr >> 3, h, inst.di.seq});
        for (std::size_t j = 0; j < im.m.storeQueue.size(); ++j)
            if (im.m.storeQueue.at(j).seq == inst.memDepStoreSeq)
                inst.memDepStore = im.m.storeQueue.at(j).handle;
        for (unsigned ci = 0; ci < inst.copies.size(); ++ci) {
            Cluster &cl = im.m.clusters[inst.copies[ci].cluster];
            if (inst.copies[ci].inQueue)
                cl.queue.push_back({h, ci});
            else if (im.m.cfg.holdQueueUntilRetire)
                ++cl.held;
            if (cl.occupancy() > cl.queueCapacity)
                throw std::runtime_error(
                    "checkpoint: dispatch queue occupancy exceeds its "
                    "capacity");
        }
    }
    for (Cluster &cl : im.m.clusters) {
        readPhysRegFile(r, cl.intRegs);
        readPhysRegFile(r, cl.fpRegs);
        for (unsigned ci = 0; ci < 2; ++ci) {
            const auto &rf = cl.regs(static_cast<isa::RegClass>(ci));
            for (unsigned a = 0; a < isa::kNumArchRegs; ++a)
                cl.renameMap[ci][a] = below(r.u16(), rf.readyAt.size(),
                                            "rename-map physical register");
        }
        for (unsigned ci = 0; ci < 2; ++ci)
            for (unsigned a = 0; a < isa::kNumArchRegs; ++a)
                cl.mapped[ci][a] = r.b();
        readTransferBuffer(r, cl.otb);
        readTransferBuffer(r, cl.rtb);
        const std::uint64_t n_div = r.u64();
        if (n_div != cl.dividerBusyUntil.size())
            throw std::runtime_error(
                "checkpoint: divider count mismatch");
        for (Cycle &c : cl.dividerBusyUntil)
            c = r.u64();
    }
    im.fetch.loadState(r);
    // Snapshots carry no scheduler state: restart it conservatively.
    im.sched.reset();

    p.section("TRAC");
    im.fetch.trace().loadState(r);

    p.section("MEMS");
    im.m.memsys.loadState(r);

    p.section("BPRD");
    im.m.predictor->loadState(r);

    p.section("STAT");
    const std::uint64_t n_counters = r.u64();
    for (std::uint64_t i = 0; i < n_counters; ++i) {
        const std::string name = r.str();
        Counter *c = im.stats->findCounter(name);
        if (!c)
            throw std::runtime_error(
                "checkpoint: unknown counter '" + name + "'");
        c->set(r.u64());
    }
    const std::uint64_t n_dists = r.u64();
    for (std::uint64_t i = 0; i < n_dists; ++i) {
        const std::string name = r.str();
        Distribution *d = im.stats->findDistribution(name);
        if (!d)
            throw std::runtime_error(
                "checkpoint: unknown distribution '" + name + "'");
        std::vector<std::uint64_t> buckets(r.u64());
        if (buckets.size() != d->buckets().size())
            throw std::runtime_error(
                "checkpoint: distribution '" + name +
                "' bucket count mismatch");
        for (std::uint64_t &v : buckets)
            v = r.u64();
        const std::uint64_t overflow = r.u64();
        const std::uint64_t samples = r.u64();
        const std::uint64_t sum = r.u64();
        const double sum_sq = r.f64();
        const std::uint64_t max = r.u64();
        d->restore(buckets, overflow, samples, sum, sum_sq, max);
    }

    p.section("CSTK");
    if (r.b()) {
        std::array<std::uint64_t, obs::kNumStallCauses> slot_cycles{};
        for (std::uint64_t &v : slot_cycles)
            v = r.u64();
        const unsigned slots = r.u32();
        const Cycle cycles = r.u64();
        if (im.cstack) {
            im.cstack->slotCycles = slot_cycles;
            im.cstack->slots = slots;
            im.cstack->cycles = cycles;
        }
    }
    p.finish();
}

} // namespace mca::core
