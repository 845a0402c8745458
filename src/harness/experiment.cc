#include "harness/experiment.hh"

#include "exec/trace.hh"
#include "support/panic.hh"

namespace mca::harness
{

RunStats
simulate(const prog::MachProgram &binary, const isa::RegisterMap &map,
         core::ProcessorConfig base, std::uint64_t trace_seed,
         std::uint64_t max_insts, Cycle max_cycles)
{
    base.regMap = map;
    MCA_ASSERT(map.numClusters() == base.numClusters,
               "register map does not match machine cluster count");

    StatGroup stats(binary.name);
    exec::ProgramTrace trace(binary, trace_seed, max_insts);
    core::Processor cpu(base, trace, stats);
    obs::CycleStack cstack;
    cpu.attachCycleStack(&cstack);
    const core::SimResult result = cpu.run(max_cycles);
    MCA_ASSERT(cstack.conserved(),
               "cycle-stack conservation violated for ", binary.name);

    RunStats out;
    out.cycles = result.cycles;
    out.retired = result.instructions;
    out.ipc = stats.formulaAt("sim.ipc");
    out.distSingle = stats.counterAt("dist.single").value();
    out.distDual = stats.counterAt("dist.dual").value();
    out.operandForwards = stats.counterAt("dist.operand_forwards").value();
    out.resultForwards = stats.counterAt("dist.result_forwards").value();
    out.replays = stats.counterAt("replay.exceptions").value();
    out.issueDisorder = stats.counterAt("issue.disorder").value();
    out.bpredAccuracy = stats.formulaAt("bpred.accuracy");
    const auto dacc = stats.counterAt("dcache.accesses").value();
    const auto dmiss = stats.counterAt("dcache.misses").value();
    out.dcacheMissRate =
        dacc ? static_cast<double>(dmiss) / static_cast<double>(dacc)
             : 0.0;
    const auto iacc = stats.counterAt("icache.accesses").value();
    const auto imiss = stats.counterAt("icache.misses").value();
    out.icacheMissRate =
        iacc ? static_cast<double>(imiss) / static_cast<double>(iacc)
             : 0.0;
    if (stats.hasCounter("l2.accesses")) {
        const auto l2acc = stats.counterAt("l2.accesses").value();
        const auto l2miss = stats.counterAt("l2.misses").value();
        out.l2MissRate = l2acc ? static_cast<double>(l2miss) /
                                     static_cast<double>(l2acc)
                               : 0.0;
    }
    out.completed = result.completed;
    out.cycleStack = cstack;
    return out;
}

const std::vector<PaperTable2Entry> &
paperTable2()
{
    static const std::vector<PaperTable2Entry> kPaper = {
        {"compress", -14, +6},  {"doduc", -21, -15},
        {"gcc1", -15, -10},     {"ora", -5, -22},
        {"su2cor", -36, -25},   {"tomcatv", -41, -19},
    };
    return kPaper;
}

} // namespace mca::harness
