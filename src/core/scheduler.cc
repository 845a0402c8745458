#include "core/scheduler.hh"

#include <algorithm>

#include "isa/issue_rules.hh"
#include "isa/opcodes.hh"
#include "support/panic.hh"

namespace mca::core
{

bool
Scheduler::masterReady(const InFlightInst &inst, const CopyState &copy,
                       InstSeq oldest_unissued, bool *buffer_blocked,
                       Cycle *earliest)
{
    const Cycle now = m_.now;
    auto blockedAt = [&](Cycle at) {
        *earliest = at;
        return false;
    };
    *buffer_blocked = false;
    // Local register reads. A readyAt of kNoCycle means the value is
    // still awaiting its writer's issue — an event, not a time bound.
    for (const auto &rd : copy.reads) {
        const Cycle at =
            m_.clusters[rd.cluster].regs(rd.cls).readyAt[rd.phys];
        if (at > now)
            return blockedAt(at);
    }
    // Forwarded operands: the slave must have issued in a prior cycle.
    for (const auto &sl : inst.copies) {
        if (sl.isMaster || !sl.role.forwardsOperand)
            continue;
        if (!sl.issued)
            return blockedAt(kNoCycle); // the slave's issue is an event
        if (sl.issueCycle + 1 > now)
            return blockedAt(sl.issueCycle + 1);
    }
    // A free divider for non-pipelined floating-point divides.
    if (isa::opClass(inst.di.mi.op) == isa::OpClass::FpDiv) {
        bool free_div = false;
        Cycle min_busy = kNoCycle;
        for (Cycle busy : m_.clusters[copy.cluster].dividerBusyUntil) {
            if (busy <= now)
                free_div = true;
            min_busy = std::min(min_busy, busy);
        }
        if (!free_div)
            return blockedAt(min_busy);
    }
    // With an explicit MSHR file (ablation of the paper's inverted
    // MSHR), a miss that cannot get an entry must retry. The poll is a
    // counted cache event, so the copy must re-poll every cycle.
    if (isa::isMemOp(inst.di.mi.op) &&
        m_.dcache.wouldReject(inst.di.effAddr, now))
        return blockedAt(now + 1);
    // Memory dependence: a load waits until the older same-address
    // store has issued (its data then forwards). The handle resolves
    // the store's pool slot directly; a dead handle (or a reused slot,
    // detected by the sequence check) means the store retired or was
    // squashed — exactly the cases that unblock the load.
    if (inst.memDepStoreSeq != kNoSeq) {
        const InFlightInst *store = m_.pool.tryGet(inst.memDepStore);
        if (store && store->di.seq == inst.memDepStoreSeq) {
            const Cycle issued_at = store->copies[0].issueCycle;
            if (issued_at == kNoCycle || issued_at >= now) {
                if (issued_at == kNoCycle) {
                    // The store's issue is a broadcast event: the load
                    // can be in any cluster relative to the store.
                    scanLeftEventGated_ = true;
                    return blockedAt(kNoCycle);
                }
                return blockedAt(issued_at + 1);
            }
        }
    }
    // Result transfer buffers in every receiving cluster. Checked last
    // so a failure here means the copy is blocked *only* by a buffer.
    for (const auto &sl : inst.copies)
        if (!sl.isMaster && sl.role.receivesResult &&
            !bufferAvailable(m_.clusters[sl.cluster].rtb, inst,
                             oldest_unissued)) {
            *buffer_blocked = true;
            // Buffer frees mature one cycle behind issue/squash
            // events, posted as broadcasts: the blocked master and the
            // freeing slave can be in unrelated clusters.
            scanLeftEventGated_ = true;
            return blockedAt(kNoCycle);
        }
    return true;
}

void
Scheduler::issueMaster(InFlightInst &inst, CopyState &copy)
{
    const Cycle now = m_.now;
    const isa::Op op = inst.di.mi.op;
    copy.issued = true;
    copy.issueCycle = now;
    ++*m_.st.issueTotal;
    m_.st.issueWait->sample(now - inst.dispatchCycle);
    m_.lastProgress = now;
    m_.activityThisCycle = true;
    m_.record(now, inst.di.seq, copy.cluster,
              TimelineEvent::MasterIssued);

    // Effective latency (cache-aware for loads).
    unsigned lat = isa::opLatency(op);
    if (isa::isLoad(op)) {
        const auto r = m_.dcache.accessFast(inst.di.effAddr, false, now);
        const Cycle data_ready = std::max(now + 2, r.readyAt + 2);
        lat = static_cast<unsigned>(data_ready - now);
        if (inst.memDepStoreSeq != kNoSeq) {
            // Store-to-load forwarding: the waited-for store supplies
            // the data at hit latency regardless of the fill.
            lat = 2;
            ++*m_.st.loadsForwarded;
        }
        inst.dcacheLoadMiss = lat > 2;
        inst.dcacheMemBound =
            inst.dcacheLoadMiss && r.servedBy == mem::ServiceLevel::Memory;
    } else if (isa::isStore(op)) {
        m_.dcache.accessFast(inst.di.effAddr, true, now);
        lat = 1;
        // Dependent loads observe the issue through the store's own
        // copy state (copy.issueCycle, set above) via their handle.
    }
    inst.masterEffLat = lat;

    // Claim a divider for the whole operation.
    if (isa::opClass(op) == isa::OpClass::FpDiv) {
        for (Cycle &busy : m_.clusters[copy.cluster].dividerBusyUntil)
            if (busy <= now) {
                busy = now + lat;
                break;
            }
    }

    // Free operand transfer buffer entries the slaves were holding, and
    // allocate result transfer buffer entries in receiving clusters.
    for (auto &sl : inst.copies) {
        if (sl.isMaster)
            continue;
        if (sl.role.forwardsOperand && sl.holdsOtb) {
            m_.clusters[copy.cluster].otb.scheduleFree(now);
            sl.holdsOtb = false;
        }
        if (sl.role.receivesResult) {
            m_.clusters[sl.cluster].rtb.alloc();
            copy.rtbClusters.push_back(sl.cluster);
            m_.record(now + lat + 1, inst.di.seq, sl.cluster,
                      TimelineEvent::ResultWrittenToBuffer);
            ++*m_.st.resultForwards;
        }
    }

    // Destination write in the master's cluster.
    if (inst.dist.masterWritesDest) {
        for (const auto &ru : inst.renames) {
            if (ru.cluster != copy.cluster)
                continue;
            m_.clusters[ru.cluster].regs(ru.cls).readyAt[ru.newPhys] =
                now + lat;
            m_.record(now + lat + 2, inst.di.seq, copy.cluster,
                      TimelineEvent::RegWritten);
        }
    }

    m_.record(now + lat + 1, inst.di.seq, copy.cluster,
              TimelineEvent::ExecutionDone);
    copy.completeCycle = now + lat + 2;

    // Conditional branches schedule a predictor update at write-back.
    if (inst.condBranch)
        m_.pendingBranches.push_back({inst.di.seq, inst.di.pc,
                                      inst.di.taken, inst.mispredicted,
                                      now + lat + 2});

    // Wakeups: the broadcast covers what the issue unblocks at now+1 in
    // arbitrary clusters — freed OTB entries, the satisfied memory
    // dependence, and oldest-unissued movement, all of which gate their
    // waiters (buffer-blocked and store-blocked copies are flagged in
    // their clusters). The written destination and the forwarded result
    // get targeted wakeups at now+lat.
    wakeAll(now + 1);
    if (inst.dist.masterWritesDest)
        wakeCluster(copy.cluster, now + lat);
    for (const auto &sl : inst.copies)
        if (!sl.isMaster && sl.role.receivesResult)
            wakeCluster(sl.cluster, now + lat);
}

void
Scheduler::issueOperandSlave(InFlightInst &inst, CopyState &copy)
{
    const Cycle now = m_.now;
    copy.issued = true;
    copy.issueCycle = now;
    ++*m_.st.issueTotal;
    ++*m_.st.issueSlave;
    ++*m_.st.operandForwards;
    m_.lastProgress = now;
    m_.activityThisCycle = true;
    m_.record(now, inst.di.seq, copy.cluster,
              TimelineEvent::SlaveIssued);
    m_.record(now + 1, inst.di.seq, inst.copies[0].cluster,
              TimelineEvent::OperandWrittenToBuffer);

    m_.clusters[inst.copies[0].cluster].otb.alloc();
    copy.holdsOtb = true;

    if (copy.role.receivesResult) {
        // Scenario 5: stay in the queue, suspended, until the result
        // arrives from the master.
        copy.suspended = true;
        m_.record(now, inst.di.seq, copy.cluster,
                  TimelineEvent::SlaveSuspended);
    } else {
        copy.completeCycle = now + 3;
    }

    // The master (possibly in another cluster) may issue from now+1.
    // Nothing else is unblocked: the slave only *allocates* an OTB
    // entry, and the buffers it could later free are freed by the
    // master's issue.
    wakeCluster(inst.copies[0].cluster, now + 1);
}

void
Scheduler::issueResultSlave(InFlightInst &inst, CopyState &copy,
                            bool is_wake)
{
    const Cycle now = m_.now;
    ++*m_.st.issueTotal;
    m_.lastProgress = now;
    m_.activityThisCycle = true;
    if (is_wake) {
        copy.woke = true;
        copy.suspended = false;
        ++*m_.st.issueWakes;
        m_.record(now, inst.di.seq, copy.cluster,
                  TimelineEvent::SlaveWoke);
    } else {
        copy.issued = true;
        copy.issueCycle = now;
        ++*m_.st.issueSlave;
        m_.record(now, inst.di.seq, copy.cluster,
                  TimelineEvent::SlaveIssued);
    }

    // Read (and free) the result transfer buffer entry, then write the
    // local physical copy of the destination. The master's allocation
    // record is cleared so a later squash cannot double-free the entry.
    m_.clusters[copy.cluster].rtb.scheduleFree(now);
    auto &rtbs = inst.copies[0].rtbClusters;
    const auto it = std::find(rtbs.begin(), rtbs.end(), copy.cluster);
    MCA_ASSERT(it != rtbs.end(), "slave frees unallocated RTB entry");
    rtbs.erase(it);
    for (const auto &ru : inst.renames) {
        if (ru.cluster != copy.cluster)
            continue;
        m_.clusters[ru.cluster].regs(ru.cls).readyAt[ru.newPhys] =
            now + 1;
    }
    m_.record(now + 3, inst.di.seq, copy.cluster,
              TimelineEvent::RegWritten);
    copy.completeCycle = now + 3;

    // The written destination matures at now+1 for readers in this
    // cluster; the freed RTB entry is a broadcast (masters waiting on
    // it can be anywhere, and are gated in their own clusters).
    wakeCluster(copy.cluster, now + 1);
    wakeAll(now + 1);
}

Cycle
Scheduler::scanCluster(unsigned c, InstSeq oldest_unissued)
{
    Cluster &cl = m_.clusters[c];
    const Cycle now = m_.now;
    scanLeftEventGated_ = false;
    isa::IssueSlots slots(m_.cfg.issueRules);
    slots.newCycle();

    Cycle bound = kNoCycle;
    auto fold = [&](Cycle at) { bound = std::min(bound, at); };

    // Issued/removed slots are compacted out in place (two-pointer,
    // order-preserving); the issue actions never touch the queue
    // vector, so reading ahead of the write cursor is safe and no
    // per-scan survivor vector is allocated.
    std::size_t out = 0;
    unsigned older_unissued = 0;

    bool head_checked = false;
    for (std::size_t qi = 0; qi < cl.queue.size(); ++qi) {
        const QueueSlot slot = cl.queue[qi];
        InFlightInst &inst = m_.pool.get(slot.inst);
        CopyState &copy = inst.copies[slot.copyIdx];
        const CopyState &master = inst.copies[0];
        bool remove = false;
        bool buffer_blocked = false;

        if (copy.issued && !copy.suspended) {
            // Window mode: already issued, waiting for retirement.
            cl.queue[out++] = slot;
            continue;
        }
        if (inst.dispatchCycle >= now) {
            // Dispatched this cycle; eligible from the next one.
            fold(now + 1);
        } else if (copy.isMaster) {
            Cycle earliest = kNoCycle;
            const bool ready =
                masterReady(inst, copy, oldest_unissued, &buffer_blocked,
                            &earliest);
            if (ready && slots.tryConsume(isa::opClass(inst.di.mi.op))) {
                issueMaster(inst, copy);
                *m_.st.issueDisorder += older_unissued;
                remove = true;
            } else if (ready) {
                fold(now + 1); // lost the slot race; slots refresh next cycle
            } else {
                // earliest == kNoCycle means an event-gated block. The
                // buffer and memory-dependence cases flag the cluster
                // for broadcasts inside masterReady; the others (an
                // unissued operand writer or forwarding slave) receive
                // targeted wakeups from the issue action itself.
                fold(earliest);
            }
        } else if (copy.suspended) {
            // Scenario-5 slave waiting for the forwarded result.
            const isa::RegClass dcls = inst.di.mi.dest->cls;
            if (master.issued &&
                now >= master.issueCycle + inst.masterEffLat) {
                if (slots.tryConsumeSlave(dcls)) {
                    issueResultSlave(inst, copy, /*is_wake=*/true);
                    remove = true;
                } else {
                    fold(now + 1);
                }
            } else if (master.issued) {
                fold(master.issueCycle + inst.masterEffLat);
            }
            // else: gated on the master's issue, which posts a
            // targeted wakeup to this cluster at result maturity.
        } else if (copy.role.forwardsOperand) {
            // Operand-forwarding slave (scenarios 2 and 5).
            bool ready = true;
            Cycle regs_at = 0;
            for (const auto &rd : copy.reads) {
                const Cycle at =
                    m_.clusters[rd.cluster].regs(rd.cls).readyAt[rd.phys];
                if (at > now)
                    ready = false;
                regs_at = std::max(regs_at, at);
            }
            const unsigned src_i = copy.role.srcMask & 1 ? 0 : 1;
            const isa::RegClass scls = inst.di.mi.srcs[src_i]->cls;
            const bool otb_ok = bufferAvailable(
                m_.clusters[master.cluster].otb, inst, oldest_unissued);
            buffer_blocked = ready && !otb_ok;
            if (ready && otb_ok) {
                if (slots.tryConsumeSlave(scls)) {
                    issueOperandSlave(inst, copy);
                    // Scenario-5 slaves stay queued while suspended.
                    remove = !copy.suspended;
                } else {
                    fold(now + 1);
                }
            } else if (!ready) {
                // regs_at == kNoCycle means the writer is unissued; its
                // issue action posts a targeted wakeup to this cluster
                // when it schedules the register write.
                fold(regs_at);
            } else {
                // Buffer-gated: OTB frees mature behind issue events.
                scanLeftEventGated_ = true;
            }
        } else if (copy.role.receivesResult) {
            // Result-receiving slave (scenarios 3 and 4).
            const isa::RegClass dcls = inst.di.mi.dest->cls;
            if (master.issued &&
                now >= master.issueCycle + inst.masterEffLat) {
                if (slots.tryConsumeSlave(dcls)) {
                    issueResultSlave(inst, copy, /*is_wake=*/false);
                    remove = true;
                } else {
                    fold(now + 1);
                }
            } else if (master.issued) {
                fold(master.issueCycle + inst.masterEffLat);
            }
            // else: gated on the master's issue, which posts a
            // targeted wakeup to this cluster at result maturity.
        }

        if (remove) {
            copy.inQueue = false;
            // In window mode the entry stays occupied until retirement
            // but never needs another scan: account it in cl.held and
            // drop it from the scan list.
            if (m_.cfg.holdQueueUntilRetire)
                ++cl.held;
        } else {
            if (!copy.issued) {
                ++older_unissued;
                // Precise deadlock avoidance (paper §2.1): if this
                // is the globally oldest unissued instruction and a
                // full buffer blocks it, the holders are younger and
                // cannot drain — replay.
                if (!head_checked && m_.cfg.bufferBlockThreshold > 0) {
                    head_checked = true;
                    if (buffer_blocked &&
                        inst.di.seq == oldest_unissued) {
                        if (copy.bufferBlockedSince == kNoCycle)
                            copy.bufferBlockedSince = now;
                        if (now - copy.bufferBlockedSince >=
                                m_.cfg.bufferBlockThreshold &&
                            (m_.replayRequestSeq == kNoSeq ||
                             inst.di.seq < m_.replayRequestSeq))
                            m_.replayRequestSeq = inst.di.seq;
                        // The block timer must be re-examined when it
                        // expires, and every cycle after a failed
                        // replay request (the request repeats).
                        fold(std::max(copy.bufferBlockedSince +
                                          m_.cfg.bufferBlockThreshold,
                                      now + 1));
                    } else {
                        copy.bufferBlockedSince = kNoCycle;
                    }
                }
            }
            cl.queue[out++] = slot;
        }
    }
    cl.queue.resize(out);
    return bound;
}

void
Scheduler::tick()
{
    const InstSeq oldest = oldestUnissued();

    // Deliver a matured broadcast to every cluster that is event-gated
    // NOW (each flag is fresh as of that cluster's latest scan, which
    // may be later than the tick that posted the broadcast).
    if (broadcastAt_ <= m_.now) {
        for (unsigned c = 0; c < m_.clusters.size(); ++c)
            if (eventGated_[c])
                wake_[c] = std::min(wake_[c], broadcastAt_);
        broadcastAt_ = kNoCycle;
    }

    // Consume every matured wakeup BEFORE any cluster scans. Wakeups
    // posted during this tick (an issue in one cluster freeing buffer
    // entries another cluster's copies wait on) then merge into a
    // clean slot and survive the tick — clearing per cluster mid-loop
    // would erase a same-tick posting that had min-merged with an
    // already-matured value. Reference mode matures every cluster.
    const bool scan_all = !m_.cfg.idleSkip;
    for (unsigned c = 0; c < m_.clusters.size(); ++c) {
        matured_[c] = scan_all || wake_[c] <= m_.now;
        if (matured_[c])
            wake_[c] = kNoCycle;
    }
    for (unsigned c = 0; c < m_.clusters.size(); ++c) {
        if (!matured_[c])
            continue;
        const Cycle bound = scanCluster(c, oldest);
        eventGated_[c] = scanLeftEventGated_;
        // Wakeups posted during the scan stay; keep the earlier of
        // them and the scan's own time bound.
        wake_[c] = std::min(wake_[c], bound);
    }
}

InstSeq
Scheduler::oldestUnissued()
{
    // Advance over the fully-issued prefix (issued flags are only ever
    // set; retire shifts the cursor and reset() rewinds it instead).
    while (cursor_ < m_.rob.size() &&
           m_.pool.get(m_.rob.at(cursor_)).allIssued())
        ++cursor_;
    return cursor_ < m_.rob.size() ? m_.pool.get(m_.rob.at(cursor_)).di.seq
                                   : kNoSeq;
}

Cycle
Scheduler::nextWakeCycle() const
{
    // Conservatively include a pending broadcast even if no cluster is
    // currently gated on it; broadcasts only arise from issue actions,
    // so they never throttle a genuinely idle stretch.
    Cycle e = broadcastAt_;
    for (Cycle w : wake_)
        e = std::min(e, w);
    return e;
}

void
Scheduler::onDispatched(const InFlightInst &inst)
{
    // Freshly dispatched copies become eligible next cycle.
    for (const auto &copy : inst.copies)
        wakeCluster(copy.cluster, m_.now + 1);
}

void
Scheduler::reset()
{
    cursor_ = 0;
    std::fill(wake_.begin(), wake_.end(), Cycle{0});
    std::fill(eventGated_.begin(), eventGated_.end(), char(1));
    broadcastAt_ = kNoCycle;
}

} // namespace mca::core
