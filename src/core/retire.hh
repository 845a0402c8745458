/**
 * @file
 * Retire stage of the multicluster core: in-order commit of up to
 * retireWidth fully-complete instructions per cycle (freeing previous
 * rename mappings and, in window mode, dispatch-queue entries), and
 * branch write-back (predictor update + fetch redirect release). Also
 * computes the earliest future completion/write-back event for the
 * idle fast-forward (docs/architecture.md).
 */

#ifndef MCA_CORE_RETIRE_HH
#define MCA_CORE_RETIRE_HH

#include "core/fetch.hh"
#include "core/machine.hh"

namespace mca::core
{

class RetireUnit
{
  public:
    RetireUnit(MachineState &m, FetchUnit &fetch) : m_(m), fetch_(fetch)
    {
    }

    /**
     * Retire completed instructions from the window head; returns how
     * many retired.
     */
    unsigned tick();

    /** Write back matured branches. */
    void resolveBranches();

    /**
     * Earliest future cycle a head-copy completion or a branch
     * write-back matures; kNoCycle if none is scheduled. Each head copy
     * is folded individually (not just the max) because the cycle-stack
     * attribution distinguishes master completion from slave
     * completion, so any single copy maturing can change the per-cycle
     * stall cause.
     */
    Cycle nextEventCycle() const;

  private:
    MachineState &m_;
    FetchUnit &fetch_;
};

} // namespace mca::core

#endif // MCA_CORE_RETIRE_HH
