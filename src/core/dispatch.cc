#include "core/dispatch.hh"

#include <algorithm>

#include "isa/opcodes.hh"
#include "support/panic.hh"

namespace mca::core
{

void
DispatchUnit::tick()
{
    idle_ = IdleEffect::None;
    auto &fetchBuffer = fetch_.buffer();
    unsigned n = 0;
    while (n < m_.cfg.fetchWidth && !fetchBuffer.empty()) {
        exec::DynInst &di = fetchBuffer.front();
        // Instructions younger than an unresolved mispredicted branch
        // are architecturally wrong-path: hold them.
        if (m_.mispredictBlockSeq != kNoSeq &&
            di.seq > m_.mispredictBlockSeq)
            break;
        // Dynamic register reassignment (§6 extension): the machine
        // drains, transfers the re-homed architectural state, and only
        // then dispatches under the new map.
        if (di.remapIndex != exec::DynInst::kNoRemap) {
            if (!m_.rob.empty()) {
                ++*m_.st.remapDrainCycles;
                idle_ = IdleEffect::RemapDrain;
                break;
            }
            applyRemap(di.remapIndex);
            di.remapIndex = exec::DynInst::kNoRemap;
        }
        if (!tryDispatch(di))
            break;
        fetchBuffer.pop_front();
        ++n;
    }
}

bool
DispatchUnit::tryDispatch(const exec::DynInst &di)
{
    if (m_.rob.size() >= m_.cfg.retireWindow) {
        ++*m_.st.stallRob;
        idle_ = IdleEffect::StallRob;
        return false;
    }

    auto &clusters = m_.clusters;
    const isa::RegisterMap &map = m_.cfg.regMap;
    // Distribution decision; instructions with no local-register
    // constraint go to the currently least-loaded cluster (occupancy
    // counts entries held by issued copies awaiting retirement).
    unsigned least = 0;
    for (unsigned c = 1; c < clusters.size(); ++c)
        if (clusters[c].occupancy() < clusters[least].occupancy())
            least = c;
    const isa::Distribution dist =
        isa::decideDistribution(di.mi, map, least);

    // --- resource checks ------------------------------------------
    // The copies go to distinct clusters (slaves are merged per cluster
    // and never share the master's), so each copy needs a free queue
    // entry in its own cluster, and each allocating copy a free
    // physical register there.
    const auto queueFull = [&](unsigned c) {
        return clusters[c].occupancy() >= clusters[c].queueCapacity;
    };
    bool dq_full = queueFull(dist.masterCluster);
    for (const auto &sl : dist.slaves)
        dq_full = dq_full || queueFull(sl.cluster);
    if (dq_full) {
        ++*m_.st.stallDq;
        m_.dqStallThisCycle = true;
        idle_ = IdleEffect::StallDq;
        return false;
    }
    const bool has_dest = di.mi.hasDest() && !di.mi.dest->isZero();
    if (has_dest) {
        const auto regsOut = [&](unsigned c) {
            return !clusters[c].regs(di.mi.dest->cls).hasFree();
        };
        bool phys_out = dist.masterWritesDest && regsOut(dist.masterCluster);
        for (const auto &sl : dist.slaves)
            phys_out = phys_out || (sl.receivesResult && regsOut(sl.cluster));
        if (phys_out) {
            ++*m_.st.stallPhys;
            idle_ = IdleEffect::StallPhys;
            return false;
        }
    }

    // --- commit the dispatch ----------------------------------------
    const InFlightHandle h = m_.pool.alloc();
    InFlightInst &inst = m_.pool.get(h);
    inst.reset();
    inst.di = di;
    inst.masterWritesDest = dist.masterWritesDest;
    inst.dispatchCycle = m_.now;
    inst.condBranch = isa::isCondBranch(di.mi.op);

    // Perfect memory disambiguation (trace addresses are oracle): a
    // load records the youngest older store to its dword, if one is
    // still in flight.
    if (isa::isLoad(di.mi.op)) {
        for (std::size_t i = m_.storeQueue.size(); i-- > 0;) {
            const MachineState::StoreEntry &st = m_.storeQueue.at(i);
            if (st.dword == di.effAddr >> 3) {
                inst.memDepStore = st.handle;
                inst.memDepStoreSeq = st.seq;
                break;
            }
        }
    } else if (isa::isStore(di.mi.op)) {
        m_.storeQueue.pushBack({di.effAddr >> 3, h, di.seq});
    }

    // Build copies in place: master first, then the slaves in cluster
    // order.
    CopyState &master = inst.copies.emplace_back();
    master.cluster = static_cast<std::uint8_t>(dist.masterCluster);
    master.isMaster = true;
    for (const auto &sl : dist.slaves) {
        CopyState &s = inst.copies.emplace_back();
        s.cluster = static_cast<std::uint8_t>(sl.cluster);
        s.role = sl;
    }

    // Source reads: resolved against the current rename maps, before
    // the destination is renamed. The master reads a global register
    // or one homed in its cluster; the slave in any other register's
    // home cluster reads and forwards it.
    for (unsigned i = 0; i < 2; ++i) {
        if (!di.mi.srcs[i] || di.mi.srcs[i]->isZero())
            continue;
        const isa::RegId reg = *di.mi.srcs[i];
        const unsigned home = map.homeOrGlobal(reg);
        const unsigned c =
            home == isa::RegisterMap::kGlobal ? dist.masterCluster : home;
        auto copy = inst.copies.begin();
        while (copy != inst.copies.end() && copy->cluster != c)
            ++copy;
        Cluster &cl = clusters[c];
        MCA_ASSERT(copy != inst.copies.end() &&
                       (copy->isMaster || copy->role.srcMask & (1u << i)),
                   "no slave forwards operand ", isa::regName(reg));
        MCA_ASSERT(cl.mappedOf(reg.cls, reg.index),
                   "read of unmapped register ", isa::regName(reg));
        copy->reads.push_back({static_cast<std::uint8_t>(i),
                               static_cast<std::uint8_t>(c), reg.cls,
                               cl.mapOf(reg.cls, reg.index)});
    }

    // Destination renaming in every allocating cluster.
    if (has_dest) {
        const isa::RegId dest = *di.mi.dest;
        auto renameIn = [&](unsigned c) {
            Cluster &cl = clusters[c];
            MCA_ASSERT(cl.mappedOf(dest.cls, dest.index),
                       "rename of unmapped register ",
                       isa::regName(dest));
            PhysRegFile &rf = cl.regs(dest.cls);
            const std::uint16_t fresh = rf.alloc();
            rf.readyAt[fresh] = kNoCycle;
            std::uint16_t &mapped = cl.mapOf(dest.cls, dest.index);
            inst.renames.push_back({static_cast<std::uint8_t>(c), dest.cls,
                                    dest.index, fresh, mapped});
            mapped = fresh;
        };
        if (dist.masterWritesDest)
            renameIn(dist.masterCluster);
        for (const auto &sl : dist.slaves)
            if (sl.receivesResult)
                renameIn(sl.cluster);
    }

    // Insert copies into their dispatch queues.
    for (unsigned i = 0; i < inst.copies.size(); ++i) {
        auto &copy = inst.copies[i];
        copy.inQueue = true;
        clusters[copy.cluster].queue.push_back({h, i});
        m_.record(m_.now, di.seq, copy.cluster,
                  TimelineEvent::Dispatched);
    }

    // Branch prediction at queue-insertion time (paper footnote 2).
    if (inst.condBranch) {
        ++*m_.st.bpredLookups;
        inst.predTaken = m_.predictor->predict(di.pc);
        inst.mispredicted = inst.predTaken != di.taken;
        if (inst.mispredicted) {
            ++*m_.st.bpredMispredicts;
            m_.mispredictBlockSeq = di.seq;
        }
    }

    ++*m_.st.dispatched;
    *m_.st.distCopies += inst.copies.size();
    if (dist.isDual())
        ++*m_.st.distDual;
    else
        ++*m_.st.distSingle;

    m_.rob.pushBack(h);
    m_.activityThisCycle = true;
    sched_.onDispatched(inst);
    return true;
}

void
DispatchUnit::applyRemap(std::uint32_t index)
{
    MCA_ASSERT(index < m_.cfg.mapSchedule.size(),
               "remap index outside the map schedule");
    const isa::RegisterMap &next = m_.cfg.mapSchedule[index];
    MCA_ASSERT(next.numClusters() == m_.cfg.numClusters,
               "remap cannot change the cluster count");

    ++*m_.st.remapEvents;
    const unsigned moved = m_.cfg.regMap.differingHomes(next);
    *m_.st.remapRegsMoved += moved;
    m_.activityThisCycle = true;

    // The machine is drained: rebuild the architectural mappings under
    // the new assignment. Values whose home moved must be physically
    // transferred; remapTransferRate registers cross per cycle.
    const Cycle ready =
        m_.now + 1 + (moved + m_.cfg.remapTransferRate - 1) /
                         std::max(1u, m_.cfg.remapTransferRate);
    m_.cfg.regMap = next;
    for (unsigned c = 0; c < m_.clusters.size(); ++c) {
        Cluster &cl = m_.clusters[c];
        for (unsigned ci = 0; ci < 2; ++ci) {
            const auto cls = static_cast<isa::RegClass>(ci);
            for (unsigned a = 0; a < isa::kNumArchRegs; ++a) {
                const isa::RegId reg(cls, a);
                if (reg.isZero())
                    continue;
                const bool want = m_.cfg.regMap.accessibleFrom(reg, c);
                const bool have = cl.mappedOf(cls, a);
                if (have && !want) {
                    cl.regs(cls).free(cl.mapOf(cls, a));
                    cl.mappedOf(cls, a) = false;
                } else if (!have && want) {
                    if (!cl.regs(cls).hasFree())
                        MCA_FATAL("remap exhausts the physical "
                                  "registers of cluster ", c);
                    const auto fresh = cl.regs(cls).alloc();
                    cl.mapOf(cls, a) = fresh;
                    cl.mappedOf(cls, a) = true;
                    cl.regs(cls).readyAt[fresh] = ready;
                } else if (have) {
                    // Still mapped here; the value may nevertheless
                    // have moved homes (conservatively re-timed).
                    cl.regs(cls).readyAt[cl.mapOf(cls, a)] =
                        std::max(cl.regs(cls).readyAt[cl.mapOf(cls, a)],
                                 m_.now);
                }
            }
        }
    }
}

} // namespace mca::core
