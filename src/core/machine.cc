#include "core/machine.hh"

#include <algorithm>
#include <string>

#include "support/panic.hh"

namespace mca::core
{

void
CoreStats::init(StatGroup &sg, unsigned num_clusters)
{
    cycles = &sg.counter("sim.cycles", "simulated clock cycles");
    retired = &sg.counter("sim.retired", "instructions retired");
    dispatched = &sg.counter("sim.dispatched", "instructions dispatched");
    fetched = &sg.counter("fetch.fetched", "instructions fetched");
    distSingle = &sg.counter("dist.single",
                             "instructions distributed to one cluster");
    distDual = &sg.counter("dist.dual",
                           "instructions distributed to 2+ clusters");
    distCopies = &sg.counter("dist.copies", "total copies dispatched");
    operandForwards = &sg.counter("dist.operand_forwards",
                                  "operand transfer-buffer writes");
    resultForwards = &sg.counter("dist.result_forwards",
                                 "result transfer-buffer writes");
    issueTotal = &sg.counter("issue.total", "copies issued");
    issueSlave = &sg.counter("issue.slave", "slave copies issued");
    issueWakes = &sg.counter("issue.wakes", "suspended slaves awakened");
    issueDisorder = &sg.counter(
        "issue.disorder",
        "older same-cluster copies skipped at issue (disorder metric)");
    stallDq = &sg.counter("dispatch.stall_dq",
                          "dispatch stalls: queue entry unavailable");
    stallPhys = &sg.counter("dispatch.stall_phys",
                            "dispatch stalls: physical register");
    stallRob = &sg.counter("dispatch.stall_rob",
                           "dispatch stalls: retire window full");
    stallIcacheCycles = &sg.counter("fetch.stall_icache_cycles",
                                    "cycles fetch waited on the icache");
    stallBranchCycles = &sg.counter(
        "fetch.stall_branch_cycles",
        "cycles fetch/dispatch waited on a mispredicted branch");
    replayExceptions = &sg.counter("replay.exceptions",
                                   "instruction-replay exceptions");
    replayBuffer = &sg.counter(
        "replay.buffer_blocked",
        "replays raised by a buffer-blocked queue head");
    replayWatchdog = &sg.counter("replay.watchdog",
                                 "replays raised by the stall watchdog");
    replaySquashed = &sg.counter("replay.squashed",
                                 "instructions squashed by replays");
    bpredLookups = &sg.counter("bpred.lookups",
                               "conditional-branch predictions");
    bpredMispredicts = &sg.counter("bpred.mispredicts",
                                   "conditional-branch mispredictions");

    // Formulas may be evaluated after the Processor (and this CoreStats)
    // is gone — the StatGroup is caller-owned — so capture the counters,
    // which live in the StatGroup, never `this`.
    sg.formula("sim.ipc",
               [cyc = cycles, ret = retired] {
                   return cyc->value() == 0
                              ? 0.0
                              : static_cast<double>(ret->value()) /
                                    static_cast<double>(cyc->value());
               },
               "retired instructions per cycle");
    sg.formula("bpred.accuracy",
               [lookups = bpredLookups, miss = bpredMispredicts] {
                   return lookups->value() == 0
                              ? 0.0
                              : 1.0 - static_cast<double>(miss->value()) /
                                          static_cast<double>(
                                              lookups->value());
               },
               "conditional-branch prediction accuracy");

    loadsForwarded = &sg.counter(
        "mem.loads_forwarded",
        "loads ordered after (and forwarded from) an older store");
    remapEvents = &sg.counter("remap.events",
                              "dynamic register-map switches");
    remapRegsMoved = &sg.counter("remap.regs_moved",
                                 "architectural registers transferred "
                                 "by remaps");
    remapDrainCycles = &sg.counter("remap.drain_cycles",
                                   "cycles dispatch stalled draining "
                                   "for a remap");
    robOccupancy = &sg.distribution("rob.occupancy", 16, 32,
                                    "retire-window entries in use");
    issueWait = &sg.distribution("issue.wait_cycles", 4, 32,
                                 "cycles from dispatch to issue");
    for (unsigned c = 0; c < num_clusters; ++c)
        queueOccupancy.push_back(&sg.distribution(
            "queue.occupancy.c" + std::to_string(c), 8, 32,
            "dispatch-queue entries in use"));
}

MachineState::MachineState(const ProcessorConfig &config, StatGroup &sg)
    : cfg(config), memsys(config.memory, sg), icache(memsys.icache()),
      dcache(memsys.dcache()), pool(config.retireWindow),
      rob(config.retireWindow), storeQueue(config.retireWindow)
{
    switch (cfg.predictor) {
      case ProcessorConfig::PredictorKind::McFarling:
        predictor = std::make_unique<bpred::McFarlingPredictor>(
            cfg.bimodalIndexBits, cfg.historyBits, cfg.gshareIndexBits,
            cfg.chooserIndexBits, cfg.speculativeHistory);
        break;
      case ProcessorConfig::PredictorKind::Gshare:
        predictor = std::make_unique<bpred::GsharePredictor>(
            cfg.historyBits, cfg.gshareIndexBits,
            cfg.speculativeHistory);
        break;
      case ProcessorConfig::PredictorKind::Bimodal:
        predictor = std::make_unique<bpred::BimodalPredictor>(
            cfg.bimodalIndexBits);
        break;
      case ProcessorConfig::PredictorKind::StaticTaken:
        predictor = std::make_unique<bpred::StaticPredictor>(true);
        break;
      case ProcessorConfig::PredictorKind::StaticNotTaken:
        predictor = std::make_unique<bpred::StaticPredictor>(false);
        break;
    }

    MCA_ASSERT(cfg.numClusters >= 1, "need at least one cluster");
    MCA_ASSERT(cfg.regMap.numClusters() == cfg.numClusters,
               "register map cluster count mismatch");

    clusters.resize(cfg.numClusters);
    for (unsigned c = 0; c < cfg.numClusters; ++c) {
        Cluster &cl = clusters[c];
        cl.queueCapacity = cfg.dispatchQueueEntries;
        cl.intRegs.init(cfg.physIntRegs);
        cl.fpRegs.init(cfg.physFpRegs);
        cl.otb.init(cfg.operandBufferEntries);
        cl.rtb.init(cfg.resultBufferEntries);
        cl.dividerBusyUntil.assign(
            std::max(1u, cfg.issueRules.fpDiv), 0);

        // Initial rename state: every architectural register accessible
        // from this cluster is mapped to a ready physical register.
        for (unsigned ci = 0; ci < 2; ++ci) {
            const auto cls = static_cast<isa::RegClass>(ci);
            for (unsigned a = 0; a < isa::kNumArchRegs; ++a) {
                const isa::RegId reg(cls, a);
                if (reg.isZero() || !cfg.regMap.accessibleFrom(reg, c))
                    continue;
                if (!cl.regs(cls).hasFree())
                    MCA_FATAL("too few physical registers to map the "
                              "architectural state");
                cl.mapOf(cls, a) = cl.regs(cls).alloc();
                cl.mappedOf(cls, a) = true;
            }
        }
    }

    st.init(sg, cfg.numClusters);
}

} // namespace mca::core
