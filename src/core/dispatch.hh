/**
 * @file
 * Dispatch stage of the multicluster core: drains the fetch buffer
 * into the retire window and the per-cluster dispatch queues —
 * distribution decision (register-map table lookups), resource checks
 * (a queue entry in each copy's cluster, a physical register in each
 * allocating copy's), register renaming, memory-dependence capture
 * from the in-order store queue, branch prediction at queue insertion,
 * and the §6 dynamic register remap (drain, transfer, switch). Each
 * in-flight record is built in place in its reused pool slot. Posts
 * onDispatched events to the Scheduler and records which stall counter
 * a blocked cycle bumped so the idle fast-forward can replicate it
 * (docs/architecture.md).
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
};

} // namespace mca::core

#endif // MCA_CORE_DISPATCH_HH
