/**
 * @file
 * Dispatch stage of the multicluster core: drains the fetch buffer
 * into the retire window and the per-cluster dispatch queues —
 * distribution decision, resource checks (queue entries, physical
 * registers), register renaming, memory-dependence capture, branch
 * prediction at queue insertion, and the §6 dynamic register remap
 * (drain, transfer, switch). Posts onDispatched events to the
 * Scheduler and records which stall counter a blocked cycle bumped so
 * the idle fast-forward can replicate it (docs/architecture.md).
 */

#ifndef MCA_CORE_DISPATCH_HH
#define MCA_CORE_DISPATCH_HH

#include "core/fetch.hh"
#include "core/machine.hh"
#include "core/scheduler.hh"

namespace mca::core
{

class DispatchUnit
{
  public:
    DispatchUnit(MachineState &m, FetchUnit &fetch, Scheduler &sched)
        : m_(m), fetch_(fetch), sched_(sched)
    {
    }

    /** Run one dispatch cycle. */
    void tick();

    /**
     * Counter a blocked dispatch cycle bumped in tick(); replicated
     * per skipped cycle by the idle fast-forward (a cycle with no
     * activity repeats the same blocked decision until the next
     * event).
     */
    enum class IdleEffect { None, RemapDrain, StallRob, StallDq,
                            StallPhys };

    IdleEffect idleEffect() const { return idle_; }

  private:
    bool tryDispatch(const exec::DynInst &di);
    void applyRemap(std::uint32_t index);

    MachineState &m_;
    FetchUnit &fetch_;
    Scheduler &sched_;
    IdleEffect idle_ = IdleEffect::None;
    /** Per-cluster resource-check scratch, reused across dispatches. */
    std::vector<unsigned> dqNeed_;
    std::vector<unsigned> physNeed_;
};

} // namespace mca::core

#endif // MCA_CORE_DISPATCH_HH
