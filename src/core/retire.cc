#include "core/retire.hh"

#include <algorithm>

#include "isa/opcodes.hh"

namespace mca::core
{

unsigned
RetireUnit::tick()
{
    unsigned n = 0;
    while (n < m_.cfg.retireWidth && !m_.rob.empty() &&
           m_.pool.get(m_.rob.front()).allComplete(m_.now)) {
        const InFlightHandle h = m_.rob.front();
        InFlightInst &inst = m_.pool.get(h);
        // Free the previous mappings of every renamed destination.
        for (const auto &ru : inst.renames)
            m_.clusters[ru.cluster].regs(ru.cls).free(ru.prevPhys);
        // Release the queue entries the copies held to retirement (a
        // retiring instruction's copies are all complete, hence all in
        // the held account, never in the scan list).
        if (m_.cfg.holdQueueUntilRetire)
            for (const auto &copy : inst.copies)
                --m_.clusters[copy.cluster].held;
        // Retirement is in order, so a retiring store is the oldest.
        if (isa::isStore(inst.di.mi.op))
            m_.storeQueue.popFront();
        m_.record(m_.now, inst.di.seq, inst.copies[0].cluster,
                  TimelineEvent::Retired);
        ++*m_.st.retired;
        ++n;
        ++m_.retiredThisCycle;
        m_.lastProgress = m_.now;
        m_.consecutiveReplays = 0;
        m_.activityThisCycle = true;
        m_.rob.popFront();
        m_.pool.free(h);
    }
    return n;
}

void
RetireUnit::resolveBranches()
{
    auto it = m_.pendingBranches.begin();
    while (it != m_.pendingBranches.end()) {
        if (it->wbCycle > m_.now) {
            ++it;
            continue;
        }
        m_.predictor->update(it->pc, it->taken);
        if (it->mispredicted)
            m_.predictor->squashRepair(it->taken);
        if (it->seq == m_.mispredictBlockSeq) {
            m_.mispredictBlockSeq = kNoSeq;
            fetch_.setStallUntil(m_.now + 1);
        }
        it = m_.pendingBranches.erase(it);
        m_.activityThisCycle = true;
    }
}

Cycle
RetireUnit::nextEventCycle() const
{
    Cycle e = kNoCycle;
    auto fold = [&](Cycle at) {
        if (at != kNoCycle && at > m_.now && at < e)
            e = at;
    };
    if (!m_.rob.empty())
        for (const auto &copy : m_.pool.get(m_.rob.front()).copies)
            fold(copy.completeCycle);
    for (const auto &b : m_.pendingBranches)
        fold(b.wbCycle);
    return e;
}

} // namespace mca::core
