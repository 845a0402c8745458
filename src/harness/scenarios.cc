#include "harness/scenarios.hh"

#include <sstream>

#include "core/processor.hh"
#include "exec/trace.hh"
#include "isa/distribution.hh"
#include "support/panic.hh"

namespace mca::harness
{

namespace
{

using isa::intReg;
using isa::Op;

/**
 * Scenario fixture: producer writes `produced`; the add reads
 * {src_a, src_b} and writes `dest`. With the default even/odd map,
 * even registers live in cluster 0 and odd registers in cluster 1.
 */
struct ScenarioSpec
{
    unsigned number;
    std::string title;
    std::string description;
    isa::RegId produced;
    isa::RegId srcA;
    isa::RegId srcB;
    isa::RegId dest;
    bool destGlobal;
};

ScenarioResult
runOne(const ScenarioSpec &spec, bool idle_skip)
{
    core::ProcessorConfig cfg = core::ProcessorConfig::dualCluster8();
    cfg.idleSkip = idle_skip;
    if (spec.destGlobal)
        cfg.regMap.setGlobal(spec.dest);

    // Two-instruction trace: mull produced = srcA * srcA; add dest =
    // srcA + srcB. The multiply's 6-cycle latency separates the copies'
    // issue times the way the paper's figures draw them.
    std::vector<exec::DynInst> insts;
    {
        exec::DynInst p;
        p.mi = isa::makeRRR(Op::Mull, spec.produced, intReg(4),
                            intReg(4));
        insts.push_back(p);
        exec::DynInst a;
        a.mi = isa::makeRRR(Op::Add, spec.dest, spec.srcA, spec.srcB);
        insts.push_back(a);
    }
    exec::VectorTrace trace(exec::VectorTrace::normalize(insts));

    StatGroup stats("scenario" + std::to_string(spec.number));
    core::Processor cpu(cfg, trace, stats);
    core::TimelineRecorder recorder;
    cpu.attachTimeline(&recorder);
    obs::CycleStack cstack;
    cpu.attachCycleStack(&cstack);
    const auto result = cpu.run(10'000);
    MCA_ASSERT(result.completed, "scenario did not drain");

    ScenarioResult out;
    out.number = spec.number;
    out.title = spec.title;
    out.description = spec.description;
    out.producerEvents = recorder.forInst(0);
    out.addEvents = recorder.forInst(1);
    out.totalCycles = result.cycles;
    const auto dist = isa::decideDistribution(
        isa::makeRRR(Op::Add, spec.dest, spec.srcA, spec.srcB),
        cfg.regMap);
    out.dual = dist.isDual();
    out.stack = cstack;
    return out;
}

} // namespace

std::vector<ScenarioResult>
runScenarios()
{
    return runScenarios(core::ProcessorConfig{}.idleSkip);
}

std::vector<ScenarioResult>
runScenarios(bool idle_skip)
{
    // Even register -> cluster 0 ("C1" in the paper's figures), odd ->
    // cluster 1 ("C2").
    std::vector<ScenarioSpec> specs = {
        {1, "all three registers local to one cluster",
         "single distribution; no transfers (paper scenario one)",
         intReg(2), intReg(2), intReg(6), intReg(8), false},
        {2, "source in the other cluster",
         "operand forwarded through the operand transfer buffer "
         "(paper Figure 2)",
         intReg(3), intReg(3), intReg(2), intReg(6), false},
        {3, "destination in the other cluster",
         "result forwarded through the result transfer buffer "
         "(paper Figure 3)",
         intReg(2), intReg(2), intReg(6), intReg(9), false},
        {4, "global destination",
         "both clusters allocate the destination; result forwarded to "
         "the slave's copy (paper Figure 4)",
         intReg(2), intReg(2), intReg(6), intReg(8), true},
        {5, "split sources and global destination",
         "operand forwarded one way, result the other; the slave "
         "suspends then wakes (paper Figure 5)",
         intReg(3), intReg(2), intReg(3), intReg(8), true},
    };

    std::vector<ScenarioResult> results;
    for (const auto &spec : specs)
        results.push_back(runOne(spec, idle_skip));
    return results;
}

std::string
formatScenario(const ScenarioResult &scenario)
{
    std::ostringstream oss;
    oss << "Scenario " << scenario.number << ": " << scenario.title
        << "\n  (" << scenario.description << ")\n"
        << "  distribution: " << (scenario.dual ? "dual" : "single")
        << "\n";
    oss << "  producer (mull, 6-cycle):\n";
    for (const auto &ev : scenario.producerEvents)
        oss << "    cycle " << ev.cycle << "  cluster " << ev.cluster
            << "  " << core::timelineEventName(ev.event) << "\n";
    oss << "  add:\n";
    for (const auto &ev : scenario.addEvents)
        oss << "    cycle " << ev.cycle << "  cluster " << ev.cluster
            << "  " << core::timelineEventName(ev.event) << "\n";
    return oss.str();
}

} // namespace mca::harness
