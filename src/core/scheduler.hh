/**
 * @file
 * Issue scheduler of the multicluster core.
 *
 * One engine: the age-ordered per-cluster queue scan under the Table-1
 * slot rules, master-readiness evaluation, and the master/slave issue
 * actions, driven by per-cluster wakeups. A cluster's queue is scanned
 * only when it has a matured wakeup. Wakeups are posted by a narrow
 * event interface (dispatch, any issue, squash) and by time bounds
 * computed during a scan from the first failing constraint of each
 * blocked copy (register readyAt maturity, operand transit, divider
 * release, buffer-block timers). The oldest-unissued instruction is
 * tracked by a monotone cursor over the retire window.
 *
 * Reference mode (ProcessorConfig::idleSkip = false) treats every
 * cluster as matured on every cycle, i.e. a full scan of every queue
 * every cycle. A full scan is a superset of any wake-driven scan, so
 * the two modes are cycle-exact with each other: tests/lockstep_test.cc
 * steps them side by side on all workloads and paper scenarios and
 * asserts identical per-cycle decisions, timelines, and statistics.
 */

#ifndef MCA_CORE_SCHEDULER_HH
#define MCA_CORE_SCHEDULER_HH

#include <algorithm>
#include <vector>

#include "core/machine.hh"

namespace mca::core
{

class Scheduler final
{
  public:
    explicit Scheduler(MachineState &m)
        : m_(m), wake_(m.clusters.size(), 0),
          matured_(m.clusters.size(), 0),
          eventGated_(m.clusters.size(), 1)
    {
    }

    /** Run one issue cycle over the clusters with matured wakeups. */
    void tick();

    /** Earliest future cycle any cluster has a pending wakeup; used by
     *  the idle fast-forward. */
    Cycle nextWakeCycle() const;

    /**
     * The oldest instruction with unissued work (kNoSeq if none),
     * found by advancing the monotone cursor. The paranoid invariant
     * sweep checks it against an independent walk of the retire window.
     */
    InstSeq oldestUnissued();

    // --- event interface (posted by the other pipeline stages) -------
    /** An instruction entered the dispatch queues this cycle. */
    void onDispatched(const InFlightInst &inst);
    /** `count` instructions left the head of the retire window. */
    void
    onRetired(unsigned count)
    {
        cursor_ = cursor_ > count ? cursor_ - count : 0;
    }
    /**
     * Forget all wake state: every cluster scans at the next tick with
     * fresh gating flags, no broadcast is pending, and the cursor
     * rewalks the window. Posted by a squash (which frees buffer
     * entries, undoes renames, and can move the oldest-unissued
     * instruction anywhere) and after a snapshot restore (snapshots
     * carry no scheduler state). Exact for the same reason reference
     * mode is: a full scan is a superset of any wake-driven scan.
     */
    void reset();

  private:
    /**
     * Scan one cluster's queue in age order, issuing every eligible
     * copy. Returns the earliest future cycle any blocked copy in this
     * cluster could become issuable on its own (time-bound constraints
     * only; event-gated copies contribute nothing because the
     * triggering event posts a wakeup itself), or kNoCycle.
     */
    Cycle scanCluster(unsigned c, InstSeq oldest_unissued);

    /** Entries of `buf` available to this instruction this cycle. */
    bool
    bufferAvailable(const TransferBuffer &buf, const InFlightInst &inst,
                    InstSeq oldest_unissued) const
    {
        if (!buf.canAlloc())
            return false;
        if (!m_.cfg.reserveOldestEntry)
            return true;
        // The last free entry is reserved for the oldest instruction.
        if (buf.capacity() - buf.inUse() > 1)
            return true;
        return inst.di.seq == oldest_unissued;
    }

    /**
     * Whether the master copy can issue this cycle, evaluating the
     * constraints in a fixed order (the d-cache MSHR poll is a counted
     * cache event, so the call pattern is part of the architectural
     * contract). On failure, `*earliest` receives the first failing
     * constraint's maturity cycle, or kNoCycle if it resolves through
     * an event.
     */
    bool masterReady(const InFlightInst &inst, const CopyState &copy,
                     InstSeq oldest_unissued, bool *buffer_blocked,
                     Cycle *earliest);

    void issueMaster(InFlightInst &inst, CopyState &copy);
    void issueOperandSlave(InFlightInst &inst, CopyState &copy);
    void issueResultSlave(InFlightInst &inst, CopyState &copy,
                          bool is_wake);

    /**
     * Issue-path broadcast: it only concerns clusters left event-gated
     * by their last scan (a copy blocked on a full buffer or an
     * unissued store), so it is held in broadcastAt_ and matched
     * against the gating flags when it matures — time-bounded copies
     * have their maturity folded into wake_, and an issue never makes
     * a finite bound arrive sooner. Every issue action posts
     * wakeAll(now+1) — nothing an issue enables matures sooner — plus
     * targeted later wakeups for result maturities.
     */
    void
    wakeAll(Cycle at)
    {
        broadcastAt_ = std::min(broadcastAt_, at);
    }
    void
    wakeCluster(unsigned c, Cycle at)
    {
        wake_[c] = std::min(wake_[c], at);
    }

    MachineState &m_;

    /**
     * Set by scanCluster: the scan left at least one copy blocked on
     * an *event* rather than a time bound (a full transfer buffer, an
     * unissued operand writer, slave, or store). Only such clusters
     * need the issue-path broadcast — a copy blocked on a time bound
     * has that bound folded into the cluster's wakeup, and no issue can
     * make a finite maturity arrive sooner.
     */
    bool scanLeftEventGated_ = false;
    /**
     * Index of the first retire-window entry with an unissued copy.
     * Monotone within a cycle (issued flags only ever set); adjusted
     * when the window shrinks at retire, rewound by reset().
     */
    std::size_t cursor_ = 0;
    /** Per-cluster earliest pending wakeup; <= now means scan. */
    std::vector<Cycle> wake_;
    /** Scratch: cluster had a matured wakeup at this tick's start. */
    std::vector<char> matured_;
    /**
     * Per-cluster scanLeftEventGated_ as of the cluster's last scan;
     * starts conservative (true) until a first scan refines it. The
     * copy population of a cluster only changes at dispatch (which
     * posts a targeted wakeup, forcing a rescan) and squash (which
     * wakes every cluster), so the flag stays valid between scans.
     */
    std::vector<char> eventGated_;
    /**
     * Earliest pending broadcast (issue-path wakeAll). Broadcasts are
     * matched against eventGated_ when they MATURE (at the start of
     * tick), not when posted: a cluster can become event-gated in the
     * same tick an earlier cluster's issue posts the broadcast, and
     * its flag is only fresh once its own scan has run.
     */
    Cycle broadcastAt_ = kNoCycle;
};

} // namespace mca::core

#endif // MCA_CORE_SCHEDULER_HH
