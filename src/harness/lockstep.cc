#include "harness/lockstep.hh"

#include <sstream>

#include "core/processor.hh"
#include "core/timeline.hh"
#include "exec/trace.hh"
#include "obs/cycle_stack.hh"
#include "support/panic.hh"
#include "support/stats.hh"

namespace mca::harness
{

namespace
{

/** One leg's full observable output. */
struct Observed
{
    Cycle cycles = 0;
    std::uint64_t retired = 0;
    bool completed = false;
    std::string statsJson;
    core::TimelineRecorder timeline;
    obs::CycleStack stack;
};

std::string
describeRecord(const core::TimelineRecord &r)
{
    std::ostringstream oss;
    oss << "cycle " << r.cycle << " seq " << r.seq << " cluster "
        << r.cluster << " " << core::timelineEventName(r.event);
    return oss.str();
}

/**
 * Compare every observable of two finished runs. Returns the first
 * difference found, or an empty string.
 */
std::string
compareObserved(const Observed &ref, const Observed &alt,
                const std::string &alt_name)
{
    std::ostringstream oss;
    if (ref.cycles != alt.cycles) {
        oss << alt_name << ": cycles " << alt.cycles << " != reference "
            << ref.cycles;
        return oss.str();
    }
    if (ref.retired != alt.retired) {
        oss << alt_name << ": retired " << alt.retired
            << " != reference " << ref.retired;
        return oss.str();
    }
    if (ref.completed != alt.completed) {
        oss << alt_name << ": completed " << alt.completed
            << " != reference " << ref.completed;
        return oss.str();
    }
    const auto &rr = ref.timeline.records();
    const auto &ar = alt.timeline.records();
    if (rr.size() != ar.size()) {
        oss << alt_name << ": " << ar.size()
            << " timeline records != reference " << rr.size();
        return oss.str();
    }
    for (std::size_t i = 0; i < rr.size(); ++i)
        if (rr[i].cycle != ar[i].cycle || rr[i].seq != ar[i].seq ||
            rr[i].cluster != ar[i].cluster ||
            rr[i].event != ar[i].event) {
            oss << alt_name << ": timeline record " << i << " is ["
                << describeRecord(ar[i]) << "] != reference ["
                << describeRecord(rr[i]) << "]";
            return oss.str();
        }
    if (!alt.stack.conserved()) {
        oss << alt_name << ": cycle stack violates conservation ("
            << alt.stack.totalSlotCycles() << " slot-cycles over "
            << alt.stack.cycles << " cycles of " << alt.stack.slots
            << " slots)";
        return oss.str();
    }
    if (ref.stack.cycles != alt.stack.cycles ||
        ref.stack.slotCycles != alt.stack.slotCycles) {
        for (std::size_t c = 0; c < obs::kNumStallCauses; ++c)
            if (ref.stack.slotCycles[c] != alt.stack.slotCycles[c]) {
                oss << alt_name << ": cycle-stack cause "
                    << obs::stallCauseName(
                           static_cast<obs::StallCause>(c))
                    << " = " << alt.stack.slotCycles[c]
                    << " != reference " << ref.stack.slotCycles[c];
                return oss.str();
            }
        oss << alt_name << ": cycle-stack cycles " << alt.stack.cycles
            << " != reference " << ref.stack.cycles;
        return oss.str();
    }
    if (ref.statsJson != alt.statsJson) {
        oss << alt_name << ": statistics JSON differs from reference";
        return oss.str();
    }
    return {};
}

} // namespace

LockstepResult
runLockstep(const prog::MachProgram &binary, const isa::RegisterMap &map,
            core::ProcessorConfig base, std::uint64_t trace_seed,
            std::uint64_t max_insts, Cycle max_cycles)
{
    base.regMap = map;
    MCA_ASSERT(map.numClusters() == base.numClusters,
               "register map does not match machine cluster count");

    LockstepResult out;
    out.workload = binary.name;

    // Build one leg. The StatGroup name is shared so
    // the JSON dumps are byte-comparable.
    struct Leg
    {
        Leg(const prog::MachProgram &binary,
            const core::ProcessorConfig &cfg, std::uint64_t seed,
            std::uint64_t max_insts)
            : stats(binary.name), trace(binary, seed, max_insts),
              cpu(cfg, trace, stats)
        {
            cpu.attachTimeline(&obs.timeline);
            cpu.attachCycleStack(&obs.stack);
        }

        void
        finish(core::SimResult result)
        {
            obs.cycles = result.cycles;
            obs.retired = result.instructions;
            obs.completed = result.completed;
            std::ostringstream oss;
            stats.dumpJson(oss);
            obs.statsJson = oss.str();
        }

        StatGroup stats;
        exec::ProgramTrace trace;
        core::Processor cpu;
        Observed obs;
    };

    core::ProcessorConfig refCfg = base;
    refCfg.idleSkip = false;
    core::ProcessorConfig wakeCfg = base;
    wakeCfg.idleSkip = true;

    // ---- Proof 1: stepwise lockstep, reference vs wake-gated ---------
    {
        Leg ref(binary, refCfg, trace_seed, max_insts);
        Leg wake(binary, wakeCfg, trace_seed, max_insts);
        bool drained = false;
        for (Cycle cycle = 0; cycle < max_cycles; ++cycle) {
            const bool refLive = ref.cpu.step();
            const bool wakeLive = wake.cpu.step();
            if (refLive != wakeLive) {
                std::ostringstream oss;
                oss << "stepwise: modes disagree on pipeline-empty at "
                    << "cycle " << cycle << " (reference " << refLive
                    << ", wake-gated " << wakeLive << ")";
                out.divergence = oss.str();
                break;
            }
            if (ref.cpu.retiredInstructions() !=
                wake.cpu.retiredInstructions()) {
                std::ostringstream oss;
                oss << "stepwise: retired "
                    << wake.cpu.retiredInstructions()
                    << " (wake-gated) != " << ref.cpu.retiredInstructions()
                    << " (reference) after cycle " << cycle;
                out.divergence = oss.str();
                break;
            }
            if (!refLive) {
                drained = true;
                break;
            }
        }
        ref.finish({ref.cpu.now(), ref.cpu.retiredInstructions(), drained});
        wake.finish({wake.cpu.now(), wake.cpu.retiredInstructions(),
                     drained});
        out.cycles = ref.obs.cycles;
        out.retired = ref.obs.retired;
        if (out.divergence.empty())
            out.divergence = compareObserved(ref.obs, wake.obs,
                                             "stepwise wake-gated mode");

        // ---- Proof 2: wake-gated run() with idle fast-forward --------
        if (out.divergence.empty()) {
            Leg ff(binary, wakeCfg, trace_seed, max_insts);
            const auto result = ff.cpu.run(max_cycles);
            ff.finish(result);
            out.divergence =
                compareObserved(ref.obs, ff.obs, "fast-forward run");
            out.cyclesSkipped = ff.cpu.steppedCycles() <= result.cycles
                                    ? result.cycles -
                                          ff.cpu.steppedCycles()
                                    : 0;
        }
    }

    out.identical = out.divergence.empty();
    return out;
}

} // namespace mca::harness
