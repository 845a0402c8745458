/**
 * @file
 * Unit tests for the multicluster timing model: pipeline latencies,
 * issue rules, dual-distribution timing (the five scenarios), transfer
 * buffers, branch handling, memory behaviour, resource stalls, and
 * instruction-replay exceptions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using core::TimelineEvent;
using isa::fpReg;
using isa::intReg;
using isa::Op;

/** Run a hand-built instruction vector on one machine. */
struct SimRun
{
    StatGroup stats{"test"};
    core::TimelineRecorder timeline;
    core::SimResult result;

    SimRun(const core::ProcessorConfig &cfg,
           std::vector<exec::DynInst> insts)
    {
        exec::VectorTrace trace(
            exec::VectorTrace::normalize(std::move(insts)));
        core::Processor cpu(cfg, trace, stats);
        cpu.attachTimeline(&timeline);
        result = cpu.run(100'000);
    }

    /** Cycle of the first matching event; kNoCycle if absent. */
    Cycle
    eventCycle(InstSeq seq, TimelineEvent ev, unsigned cluster = ~0u) const
    {
        for (const auto &r : timeline.records())
            if (r.seq == seq && r.event == ev &&
                (cluster == ~0u || r.cluster == cluster))
                return r.cycle;
        return kNoCycle;
    }

    std::uint64_t
    counter(const std::string &name) const
    {
        return stats.counterAt(name).value();
    }
};

exec::DynInst
makeInst(isa::MachInst mi)
{
    exec::DynInst di;
    di.mi = mi;
    return di;
}

exec::DynInst
makeLoadInst(Op op, isa::RegId dest, isa::RegId base, Addr addr)
{
    exec::DynInst di;
    di.mi = isa::makeLoad(op, dest, base, 0);
    di.effAddr = addr;
    return di;
}

// --- basic pipeline timing ----------------------------------------------

TEST(SingleCluster, BackToBackDependentAddsIssueConsecutively)
{
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(1), intReg(2),
                                      intReg(3))));
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(4), intReg(1),
                                      intReg(3))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    ASSERT_TRUE(run.result.completed);
    const Cycle t0 = run.eventCycle(0, TimelineEvent::MasterIssued);
    const Cycle t1 = run.eventCycle(1, TimelineEvent::MasterIssued);
    EXPECT_EQ(t1, t0 + 1);
}

TEST(SingleCluster, MultiplyLatencySixStallsConsumer)
{
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Mull, intReg(1), intReg(2),
                                      intReg(3))));
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(4), intReg(1),
                                      intReg(3))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const Cycle t0 = run.eventCycle(0, TimelineEvent::MasterIssued);
    const Cycle t1 = run.eventCycle(1, TimelineEvent::MasterIssued);
    EXPECT_EQ(t1, t0 + 6);
}

TEST(SingleCluster, IndependentInstructionsIssueTogether)
{
    std::vector<exec::DynInst> v;
    for (int i = 0; i < 4; ++i)
        v.push_back(makeInst(isa::makeRRR(
            Op::Add, intReg(1 + static_cast<unsigned>(i)), intReg(20),
            intReg(21))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const Cycle t0 = run.eventCycle(0, TimelineEvent::MasterIssued);
    for (InstSeq s = 1; s < 4; ++s)
        EXPECT_EQ(run.eventCycle(s, TimelineEvent::MasterIssued), t0);
}

TEST(SingleCluster, IssueWidthCapsAtEight)
{
    std::vector<exec::DynInst> v;
    for (int i = 0; i < 9; ++i) {
        auto di = makeInst(isa::makeRRR(
            Op::Add, intReg(1 + static_cast<unsigned>(i)), intReg(20),
            intReg(21)));
        // Keep every PC inside one icache block so the only limiter is
        // the 8-wide issue rule (not a second cold fill).
        di.pc = 0x1000 + 4 * static_cast<Addr>(i % 8);
        v.push_back(di);
    }
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const Cycle t0 = run.eventCycle(0, TimelineEvent::MasterIssued);
    // Exactly 8 in the first issue cycle; the ninth waits one cycle.
    unsigned at_t0 = 0;
    for (InstSeq s = 0; s < 9; ++s)
        at_t0 += run.eventCycle(s, TimelineEvent::MasterIssued) == t0;
    EXPECT_EQ(at_t0, 8u);
    EXPECT_EQ(run.eventCycle(8, TimelineEvent::MasterIssued), t0 + 1);
}

TEST(SingleCluster, LoadDelaySlotOnHit)
{
    std::vector<exec::DynInst> v;
    // Warm the block, then a hit load feeding an add.
    v.push_back(makeLoadInst(Op::Ldl, intReg(1), intReg(2), 0x1000));
    v.push_back(makeLoadInst(Op::Ldl, intReg(3), intReg(2), 0x1008));
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(4), intReg(3),
                                      intReg(2))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const Cycle t_miss = run.eventCycle(0, TimelineEvent::MasterIssued);
    const Cycle t_hit = run.eventCycle(1, TimelineEvent::MasterIssued);
    const Cycle t_add = run.eventCycle(2, TimelineEvent::MasterIssued);
    // The first load misses (fills at +16); the second merges with the
    // outstanding fill.
    EXPECT_EQ(t_hit, t_miss); // both issue immediately (non-blocking)
    EXPECT_GE(t_add, t_miss + 18);
}

TEST(SingleCluster, CacheHitLoadUseLatencyIsTwo)
{
    std::vector<exec::DynInst> v;
    // Load twice from the same block with a long gap so the second hits.
    v.push_back(makeLoadInst(Op::Ldl, intReg(1), intReg(2), 0x1000));
    v.push_back(makeInst(isa::makeRRR(Op::Mull, intReg(5), intReg(1),
                                      intReg(1)))); // consumes the miss
    v.push_back(makeLoadInst(Op::Ldl, intReg(3), intReg(5), 0x1008));
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(4), intReg(3),
                                      intReg(2))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const Cycle t_ld = run.eventCycle(2, TimelineEvent::MasterIssued);
    const Cycle t_add = run.eventCycle(3, TimelineEvent::MasterIssued);
    EXPECT_EQ(t_add, t_ld + 2); // 1-cycle access + load-delay slot
}

TEST(SingleCluster, NonPipelinedDividerSerializes)
{
    std::vector<exec::DynInst> v;
    // 5 independent 8-cycle divides on a machine with 4 dividers.
    for (int i = 0; i < 5; ++i)
        v.push_back(makeInst(isa::makeRRR(
            Op::DivF, fpReg(1 + static_cast<unsigned>(i)), fpReg(20),
            fpReg(21))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const Cycle t0 = run.eventCycle(0, TimelineEvent::MasterIssued);
    unsigned first_wave = 0;
    for (InstSeq s = 0; s < 5; ++s)
        first_wave += run.eventCycle(s, TimelineEvent::MasterIssued) == t0;
    EXPECT_EQ(first_wave, 4u); // fpDiv issue cap = #dividers = 4
    EXPECT_EQ(run.eventCycle(4, TimelineEvent::MasterIssued), t0 + 8);
}

TEST(SingleCluster, RetireWidthEightAndInOrder)
{
    std::vector<exec::DynInst> v;
    for (int i = 0; i < 16; ++i)
        v.push_back(makeInst(isa::makeRRR(
            Op::Add, intReg(1 + static_cast<unsigned>(i % 8)), intReg(20),
            intReg(21))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    std::map<Cycle, unsigned> retired_per_cycle;
    Cycle prev = 0;
    for (InstSeq s = 0; s < 16; ++s) {
        const Cycle t = run.eventCycle(s, TimelineEvent::Retired);
        ASSERT_NE(t, kNoCycle);
        EXPECT_GE(t, prev); // program order
        prev = t;
        ++retired_per_cycle[t];
    }
    for (const auto &[cycle, n] : retired_per_cycle)
        EXPECT_LE(n, 8u);
}

TEST(SingleCluster, StoresRetireWithoutRegisterResult)
{
    std::vector<exec::DynInst> v;
    exec::DynInst st;
    st.mi = isa::makeStore(Op::Stl, intReg(1), intReg(2), 0);
    st.effAddr = 0x2000;
    v.push_back(st);
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    EXPECT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 1u);
    EXPECT_EQ(run.counter("dcache.accesses"), 1u);
}

TEST(SingleCluster, WritesToZeroRegisterComplete)
{
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(31), intReg(2),
                                      intReg(3))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    EXPECT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 1u);
}

// --- branches --------------------------------------------------------------

TEST(Branches, MispredictStallsFetchUntilResolution)
{
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(1), intReg(2),
                                      intReg(3))));
    exec::DynInst br;
    br.mi = isa::makeBranch(Op::Bne, intReg(1));
    br.taken = true; // cold predictor says not-taken -> mispredict
    br.pc = 0x2000;
    br.nextPc = 0x3000;
    v.push_back(br);
    exec::DynInst tgt =
        makeInst(isa::makeRRR(Op::Add, intReg(4), intReg(2), intReg(3)));
    tgt.pc = 0x3000;
    v.push_back(tgt);
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("bpred.mispredicts"), 1u);
    const Cycle t_br = run.eventCycle(1, TimelineEvent::MasterIssued);
    const Cycle t_tgt = run.eventCycle(2, TimelineEvent::MasterIssued);
    // The target cannot issue until after the branch writes back
    // (resolution at t_br + 3) plus redispatch.
    EXPECT_GE(t_tgt, t_br + 4);
    EXPECT_GT(run.counter("fetch.stall_branch_cycles"), 0u);
}

TEST(Branches, CorrectlyPredictedNotTakenFlowsFreely)
{
    std::vector<exec::DynInst> v;
    exec::DynInst br;
    br.mi = isa::makeBranch(Op::Bne, intReg(2));
    br.taken = false; // cold predictor predicts not-taken: correct
    v.push_back(br);
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(4), intReg(2),
                                      intReg(3))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    EXPECT_EQ(run.counter("bpred.mispredicts"), 0u);
    const Cycle t_br = run.eventCycle(0, TimelineEvent::MasterIssued);
    const Cycle t_next = run.eventCycle(1, TimelineEvent::MasterIssued);
    EXPECT_EQ(t_next, t_br); // same cycle: independent and fetched together
}

// --- dual-cluster scenarios ---------------------------------------------

TEST(DualCluster, Scenario1SingleDistribution)
{
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(2), intReg(4),
                                      intReg(6))));
    SimRun run(core::ProcessorConfig::dualCluster8(), v);
    EXPECT_EQ(run.counter("dist.single"), 1u);
    EXPECT_EQ(run.counter("dist.dual"), 0u);
    EXPECT_EQ(run.counter("dist.operand_forwards"), 0u);
}

TEST(DualCluster, Scenario2MasterIssuesAfterSlave)
{
    // add r6 <- r2 + r3: r3 lives in cluster 1, the rest in cluster 0.
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(6), intReg(2),
                                      intReg(3))));
    SimRun run(core::ProcessorConfig::dualCluster8(), v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("dist.dual"), 1u);
    EXPECT_EQ(run.counter("dist.operand_forwards"), 1u);
    const Cycle t_slave =
        run.eventCycle(0, TimelineEvent::SlaveIssued, 1);
    const Cycle t_master =
        run.eventCycle(0, TimelineEvent::MasterIssued, 0);
    ASSERT_NE(t_slave, kNoCycle);
    ASSERT_NE(t_master, kNoCycle);
    // Master can issue as soon as the cycle after the slave (paper).
    EXPECT_EQ(t_master, t_slave + 1);
    EXPECT_NE(run.eventCycle(0, TimelineEvent::OperandWrittenToBuffer, 0),
              kNoCycle);
}

TEST(DualCluster, Scenario3SlaveReceivesResultAfterLatency)
{
    // add r3 <- r2 + r4: sources cluster 0, dest cluster 1.
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(3), intReg(2),
                                      intReg(4))));
    SimRun run(core::ProcessorConfig::dualCluster8(), v);
    EXPECT_EQ(run.counter("dist.result_forwards"), 1u);
    const Cycle t_master =
        run.eventCycle(0, TimelineEvent::MasterIssued, 0);
    const Cycle t_slave = run.eventCycle(0, TimelineEvent::SlaveIssued, 1);
    // One-cycle op: slave issues one cycle after the master (paper).
    EXPECT_EQ(t_slave, t_master + 1);
    EXPECT_NE(run.eventCycle(0, TimelineEvent::RegWritten, 1), kNoCycle);
}

TEST(DualCluster, Scenario3LongLatencyDelaysSlave)
{
    // mull r3 <- r2 * r4 (6 cycles): slave waits for the result.
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Mull, intReg(3), intReg(2),
                                      intReg(4))));
    SimRun run(core::ProcessorConfig::dualCluster8(), v);
    const Cycle t_master =
        run.eventCycle(0, TimelineEvent::MasterIssued, 0);
    const Cycle t_slave = run.eventCycle(0, TimelineEvent::SlaveIssued, 1);
    EXPECT_EQ(t_slave, t_master + 6);
}

TEST(DualCluster, Scenario4GlobalDestWritesBothClusters)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap.setGlobal(intReg(8));
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(8), intReg(2),
                                      intReg(4))));
    SimRun run(cfg, v);
    EXPECT_EQ(run.counter("dist.dual"), 1u);
    EXPECT_NE(run.eventCycle(0, TimelineEvent::RegWritten, 0), kNoCycle);
    EXPECT_NE(run.eventCycle(0, TimelineEvent::RegWritten, 1), kNoCycle);
}

TEST(DualCluster, Scenario5SlaveSuspendsThenWakes)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap.setGlobal(intReg(8));
    // add g8 <- r2 + r3: r2 in cluster 0 (master), r3 forwarded from
    // cluster 1, result replicated to cluster 1.
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(8), intReg(2),
                                      intReg(3))));
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    const Cycle t_slave = run.eventCycle(0, TimelineEvent::SlaveIssued, 1);
    const Cycle t_susp =
        run.eventCycle(0, TimelineEvent::SlaveSuspended, 1);
    const Cycle t_master =
        run.eventCycle(0, TimelineEvent::MasterIssued, 0);
    const Cycle t_wake = run.eventCycle(0, TimelineEvent::SlaveWoke, 1);
    ASSERT_NE(t_wake, kNoCycle);
    EXPECT_EQ(t_susp, t_slave);
    EXPECT_EQ(t_master, t_slave + 1);
    EXPECT_EQ(t_wake, t_master + 1); // 1-cycle add
    EXPECT_EQ(run.counter("issue.wakes"), 1u);
    // Both clusters end up with a written copy of g8.
    EXPECT_NE(run.eventCycle(0, TimelineEvent::RegWritten, 0), kNoCycle);
    EXPECT_NE(run.eventCycle(0, TimelineEvent::RegWritten, 1), kNoCycle);
}

TEST(DualCluster, OperandBufferCapacityThrottles)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.operandBufferEntries = 1;
    // Two independent operand-forward instructions into cluster 0.
    // With one OTB entry the second slave must wait until the first
    // master frees it.
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(6), intReg(2),
                                      intReg(3))));
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(8), intReg(4),
                                      intReg(5))));
    SimRun run(cfg, v);
    const Cycle s1 = run.eventCycle(0, TimelineEvent::SlaveIssued, 1);
    const Cycle m1 = run.eventCycle(0, TimelineEvent::MasterIssued, 0);
    const Cycle s2 = run.eventCycle(1, TimelineEvent::SlaveIssued, 1);
    EXPECT_EQ(m1, s1 + 1);
    // Entry freed at m1, reusable at m1 + 1.
    EXPECT_GE(s2, m1 + 1);

    // Control: with the default 8 entries both slaves issue together.
    SimRun wide(core::ProcessorConfig::dualCluster8(),
                {makeInst(isa::makeRRR(Op::Add, intReg(6), intReg(2),
                                       intReg(3))),
                 makeInst(isa::makeRRR(Op::Add, intReg(8), intReg(4),
                                       intReg(5)))});
    EXPECT_EQ(wide.eventCycle(1, TimelineEvent::SlaveIssued, 1),
              wide.eventCycle(0, TimelineEvent::SlaveIssued, 1));
}

TEST(DualCluster, ResultBufferCapacityDelaysMaster)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.resultBufferEntries = 1;
    // Two independent result-forward multiplies into cluster 1. The
    // second master cannot issue until the first slave reads its entry.
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Mull, intReg(3), intReg(2),
                                      intReg(4))));
    v.push_back(makeInst(isa::makeRRR(Op::Mull, intReg(5), intReg(6),
                                      intReg(8))));
    SimRun run(cfg, v);
    const Cycle m1 = run.eventCycle(0, TimelineEvent::MasterIssued, 0);
    const Cycle s1 = run.eventCycle(0, TimelineEvent::SlaveIssued, 1);
    const Cycle m2 = run.eventCycle(1, TimelineEvent::MasterIssued, 0);
    EXPECT_EQ(s1, m1 + 6);
    EXPECT_GE(m2, s1 + 1); // waits for the RTB entry
}

TEST(DualCluster, SlaveCopiesConsumeIssueSlots)
{
    // Four dual-distributed adds: each consumes a slot in both
    // clusters, so cluster 1 (4-wide) saturates with slave reads.
    std::vector<exec::DynInst> v;
    for (unsigned i = 0; i < 5; ++i)
        v.push_back(makeInst(isa::makeRRR(
            Op::Add, intReg(2 + 2 * i > 28 ? 2 : 2 + 2 * i), intReg(2),
            intReg(3))));
    // All five forward r3 from cluster 1: at most 4 slaves issue there
    // per cycle.
    SimRun run(core::ProcessorConfig::dualCluster8(), v);
    std::map<Cycle, unsigned> slaves_per_cycle;
    for (const auto &r : run.timeline.records())
        if (r.event == TimelineEvent::SlaveIssued && r.cluster == 1)
            ++slaves_per_cycle[r.cycle];
    for (const auto &[cycle, n] : slaves_per_cycle)
        EXPECT_LE(n, 4u);
    EXPECT_EQ(run.counter("issue.slave"), 5u);
}

// --- resource stalls ---------------------------------------------------

TEST(Stalls, RetireWindowFullStallsDispatch)
{
    auto cfg = core::ProcessorConfig::singleCluster8();
    cfg.retireWindow = 4;
    std::vector<exec::DynInst> v;
    for (int i = 0; i < 12; ++i)
        v.push_back(makeInst(isa::makeRRR(
            Op::Mull, intReg(1 + static_cast<unsigned>(i % 8)), intReg(20),
            intReg(21))));
    SimRun run(cfg, v);
    EXPECT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 12u);
    EXPECT_GT(run.counter("dispatch.stall_rob"), 0u);
}

TEST(Stalls, PhysicalRegisterExhaustionStallsDispatch)
{
    auto cfg = core::ProcessorConfig::singleCluster8();
    cfg.physIntRegs = 34; // 31 initial mappings + 3 spare
    std::vector<exec::DynInst> v;
    for (int i = 0; i < 10; ++i)
        v.push_back(makeInst(isa::makeRRR(
            Op::Mull, intReg(1 + static_cast<unsigned>(i % 8)), intReg(20),
            intReg(21))));
    SimRun run(cfg, v);
    EXPECT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 10u);
    EXPECT_GT(run.counter("dispatch.stall_phys"), 0u);
}

TEST(Stalls, DispatchQueueFullStallsDispatch)
{
    auto cfg = core::ProcessorConfig::singleCluster8();
    cfg.dispatchQueueEntries = 2;
    std::vector<exec::DynInst> v;
    // A dependence chain keeps entries waiting in the queue.
    v.push_back(makeInst(isa::makeRRR(Op::Mull, intReg(1), intReg(2),
                                      intReg(3))));
    for (int i = 0; i < 6; ++i)
        v.push_back(makeInst(isa::makeRRR(
            Op::Mull, intReg(4 + static_cast<unsigned>(i % 4)), intReg(1),
            intReg(1))));
    SimRun run(cfg, v);
    EXPECT_TRUE(run.result.completed);
    EXPECT_GT(run.counter("dispatch.stall_dq"), 0u);
}

TEST(Stalls, InstructionCacheMissStallsFetch)
{
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(1), intReg(2),
                                      intReg(3))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    // The very first fetch misses the cold icache.
    EXPECT_GE(run.counter("icache.misses"), 1u);
    EXPECT_GT(run.counter("fetch.stall_icache_cycles"), 0u);
    const Cycle t0 = run.eventCycle(0, TimelineEvent::MasterIssued);
    EXPECT_GE(t0, 16u); // waits out the fill
}

// --- instruction-replay exceptions ------------------------------------------

TEST(Replay, GenuineDeadlockTriggersPreciseReplay)
{
    // A true transfer-buffer deadlock (paper §2.1): the oldest
    // instruction O needs an operand transfer buffer entry, but both
    // entries are held by slaves of younger instructions whose masters
    // wait for O's result.
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.operandBufferEntries = 2;
    cfg.bufferBlockThreshold = 4;
    cfg.paranoid = true;

    std::vector<exec::DynInst> v;
    // I0: 16-cycle divide producing f3 in cluster 1.
    v.push_back(makeInst(isa::makeRRR(Op::DivD, fpReg(3), fpReg(1),
                                      fpReg(1))));
    // O = I1: needs f3 forwarded from cluster 1 into cluster 0.
    v.push_back(makeInst(isa::makeRRR(Op::AddF, fpReg(4), fpReg(3),
                                      fpReg(2))));
    // I2/I3: their ready slaves grab both OTB entries of cluster 0;
    // their masters wait for O's f4 — the deadlock cycle.
    v.push_back(makeInst(isa::makeRRR(Op::AddF, fpReg(6), fpReg(1),
                                      fpReg(4))));
    v.push_back(makeInst(isa::makeRRR(Op::AddF, fpReg(8), fpReg(5),
                                      fpReg(4))));
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 4u);
    EXPECT_GE(run.counter("replay.exceptions"), 1u);
    EXPECT_GE(run.counter("replay.buffer_blocked"), 1u);
    EXPECT_EQ(run.counter("replay.watchdog"), 0u);
    EXPECT_GE(run.counter("replay.squashed"), 2u);
}

TEST(Replay, SelfResolvingBufferPressureDoesNotReplay)
{
    // Busy-but-draining buffers must NOT provoke replays: younger
    // independent duals hold entries while an older master merely waits
    // on data that is coming anyway.
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.operandBufferEntries = 1;
    cfg.bufferBlockThreshold = 4;
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::DivD, fpReg(2), fpReg(0),
                                      fpReg(0))));
    v.push_back(makeInst(isa::makeRRR(Op::AddF, fpReg(4), fpReg(2),
                                      fpReg(1)))); // waits on the divide
    v.push_back(makeInst(isa::makeRRR(Op::AddF, fpReg(6), fpReg(0),
                                      fpReg(3)))); // independent dual
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 3u);
    EXPECT_EQ(run.counter("replay.exceptions"), 0u);
}

TEST(Replay, SquashedInstructionsRetireExactlyOnce)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.operandBufferEntries = 1;
    cfg.bufferBlockThreshold = 4;
    std::vector<exec::DynInst> v;
    for (int k = 0; k < 10; ++k) {
        v.push_back(makeInst(isa::makeRRR(Op::DivD, fpReg(2), fpReg(0),
                                          fpReg(0))));
        v.push_back(makeInst(isa::makeRRR(Op::AddF, fpReg(4), fpReg(2),
                                          fpReg(1))));
        v.push_back(makeInst(isa::makeRRR(Op::AddF, fpReg(6), fpReg(2),
                                          fpReg(3))));
    }
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 30u);
}

// --- bookkeeping -----------------------------------------------------------

TEST(Stats, DistributionCountsAreExhaustive)
{
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(2), intReg(4),
                                      intReg(6)))); // single
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(6), intReg(2),
                                      intReg(3)))); // dual
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(3), intReg(5),
                                      intReg(7)))); // single (cluster 1)
    SimRun run(core::ProcessorConfig::dualCluster8(), v);
    EXPECT_EQ(run.counter("dist.single") + run.counter("dist.dual"), 3u);
    EXPECT_EQ(run.counter("dist.copies"), 4u);
}

TEST(Stats, IpcFormulaConsistent)
{
    std::vector<exec::DynInst> v;
    for (int i = 0; i < 20; ++i)
        v.push_back(makeInst(isa::makeRRR(
            Op::Add, intReg(1 + static_cast<unsigned>(i % 8)), intReg(20),
            intReg(21))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const double ipc = run.stats.formulaAt("sim.ipc");
    EXPECT_NEAR(ipc,
                20.0 / static_cast<double>(run.result.cycles), 1e-9);
}

TEST(Determinism, IdenticalRunsIdenticalCycles)
{
    auto make = [] {
        std::vector<exec::DynInst> v;
        for (int i = 0; i < 50; ++i)
            v.push_back(makeInst(isa::makeRRR(
                Op::Add, intReg(1 + static_cast<unsigned>(i % 13)),
                intReg(2 + static_cast<unsigned>(i % 7)),
                intReg(3 + static_cast<unsigned>(i % 5)))));
        return v;
    };
    SimRun a(core::ProcessorConfig::dualCluster8(), make());
    SimRun b(core::ProcessorConfig::dualCluster8(), make());
    EXPECT_EQ(a.result.cycles, b.result.cycles);
}



// --- memory dependences (store-to-load ordering/forwarding) --------------

TEST(MemoryDependence, LoadWaitsForOlderStoreToSameAddress)
{
    // mull (6 cycles) -> store r1 -> load from the same address: the
    // load must issue after the store, not in parallel.
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Mull, intReg(1), intReg(2),
                                      intReg(3))));
    exec::DynInst st;
    st.mi = isa::makeStore(Op::Stl, intReg(1), intReg(4), 0);
    st.effAddr = 0x9000;
    v.push_back(st);
    v.push_back(makeLoadInst(Op::Ldl, intReg(5), intReg(4), 0x9000));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    ASSERT_TRUE(run.result.completed);
    const Cycle t_store = run.eventCycle(1, TimelineEvent::MasterIssued);
    const Cycle t_load = run.eventCycle(2, TimelineEvent::MasterIssued);
    EXPECT_GT(t_load, t_store); // ordered
    EXPECT_EQ(run.counter("mem.loads_forwarded"), 1u);
}

TEST(MemoryDependence, IndependentAddressesDoNotOrder)
{
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Mull, intReg(1), intReg(2),
                                      intReg(3))));
    exec::DynInst st;
    st.mi = isa::makeStore(Op::Stl, intReg(1), intReg(4), 0);
    st.effAddr = 0x9000;
    v.push_back(st);
    v.push_back(makeLoadInst(Op::Ldl, intReg(5), intReg(4), 0xa000));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const Cycle t_store = run.eventCycle(1, TimelineEvent::MasterIssued);
    const Cycle t_load = run.eventCycle(2, TimelineEvent::MasterIssued);
    EXPECT_LT(t_load, t_store); // the load need not wait for the mull
    EXPECT_EQ(run.counter("mem.loads_forwarded"), 0u);
}

TEST(MemoryDependence, ForwardedLoadBypassesTheMissLatency)
{
    // Store misses (starts a 16-cycle fill); the dependent load's data
    // forwards at hit latency instead of waiting for the fill.
    std::vector<exec::DynInst> v;
    exec::DynInst st;
    st.mi = isa::makeStore(Op::Stl, intReg(2), intReg(4), 0);
    st.effAddr = 0xb000;
    v.push_back(st);
    v.push_back(makeLoadInst(Op::Ldl, intReg(5), intReg(4), 0xb000));
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(6), intReg(5),
                                      intReg(2))));
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    const Cycle t_load = run.eventCycle(1, TimelineEvent::MasterIssued);
    const Cycle t_add = run.eventCycle(2, TimelineEvent::MasterIssued);
    EXPECT_EQ(t_add, t_load + 2); // hit-latency forwarding
}

TEST(MemoryDependence, SpilledLoopCarriedChainStaysSerial)
{
    // The regression behind this model: a value "spilled" to memory
    // (store then reload of the same slot each iteration) must keep
    // its loop-carried chain serial through memory.
    std::vector<exec::DynInst> v;
    const Addr slot = 0xc000;
    const unsigned iters = 10;
    for (unsigned k = 0; k < iters; ++k) {
        // f2 = f2 / f1 (16 cycles); spill f2; reload f2.
        exec::DynInst div;
        div.mi = isa::makeRRR(Op::DivD, fpReg(2), fpReg(2), fpReg(0));
        div.pc = 0x1000;
        v.push_back(div);
        exec::DynInst st;
        st.mi = isa::makeStore(Op::Stt, fpReg(2), intReg(4), 0);
        st.effAddr = slot;
        st.pc = 0x1004;
        v.push_back(st);
        exec::DynInst ld;
        ld.mi = isa::makeLoad(Op::Ldt, fpReg(2), intReg(4), 0);
        ld.effAddr = slot;
        ld.pc = 0x1008;
        v.push_back(ld);
    }
    SimRun run(core::ProcessorConfig::singleCluster8(), v);
    ASSERT_TRUE(run.result.completed);
    // Chain bound: ~16 cycles per divide plus the spill round trips.
    EXPECT_GE(run.result.cycles, 16u * iters);
}



// --- replay ordering regression ------------------------------------------

TEST(Replay, ReplaysNeverBreakDependenceChains)
{
    // Regression for a replay-order bug: squashed instructions must be
    // re-dispatched oldest-first, or consumers resolve their reads
    // against pre-squash rename state and issue before their producers.
    // A serial cross-cluster divide chain under heavy replay pressure
    // can never beat its latency bound.
    std::vector<exec::DynInst> v;
    const unsigned links = 24;
    for (unsigned i = 0; i < links; ++i) {
        exec::DynInst di;
        di.mi = isa::makeRRR(Op::DivD, fpReg(2), fpReg(2), fpReg(1));
        di.pc = 0x1000 + 4 * (i % 8);
        v.push_back(di);
        // Independent dual-distributed filler that grabs OTB entries.
        exec::DynInst f;
        f.mi = isa::makeRRR(Op::AddF, fpReg(4 + 2 * (i % 4)), fpReg(3),
                            fpReg(6));
        f.pc = 0x1000 + 4 * ((i + 4) % 8);
        v.push_back(f);
    }
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.operandBufferEntries = 1;
    cfg.bufferBlockThreshold = 4;
    cfg.paranoid = true; // rename/ROB-order invariants every cycle
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 2u * links);
    EXPECT_GE(run.result.cycles, 16u * links);
}

TEST(Replay, ParanoidInvariantsHoldUnderReplayStress)
{
    std::vector<exec::DynInst> v;
    for (int k = 0; k < 12; ++k) {
        exec::DynInst d;
        d.mi = isa::makeRRR(Op::DivD, fpReg(2), fpReg(0), fpReg(0));
        d.pc = 0x1000 + 4 * (k % 8);
        v.push_back(d);
        exec::DynInst a;
        a.mi = isa::makeRRR(Op::AddF, fpReg(4), fpReg(2), fpReg(1));
        a.pc = 0x1000 + 4 * ((k + 2) % 8);
        v.push_back(a);
        exec::DynInst b;
        b.mi = isa::makeRRR(Op::AddF, fpReg(6), fpReg(2), fpReg(3));
        b.pc = 0x1000 + 4 * ((k + 4) % 8);
        v.push_back(b);
    }
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.operandBufferEntries = 1;
    cfg.bufferBlockThreshold = 4;
    cfg.paranoid = true;
    SimRun run(cfg, v);
    EXPECT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("sim.retired"), 36u);

    // The idle-heavy workloads at lockstep length (ora's divide chains,
    // the pointer chase's serial misses), in both scheduler modes: the
    // sweep also checks the scheduler's oldest-unissued cursor against
    // a walk of the retire window every stepped cycle.
    const std::pair<prog::Program, const char *> inputs[] = {
        {workloads::benchmarkByName("ora").make({}), "native"},
        {workloads::makePointerChase(workloads::WorkloadParams{0.1}),
         "local"},
    };
    for (const auto &[program, scheduler] : inputs) {
        auto copt = compiler::compileOptionsFor(scheduler, 2);
        copt.profileSeed = 42;
        const auto out = compiler::compile(program, copt);
        for (bool idle_skip : {true, false}) {
            SCOPED_TRACE(program.name + (idle_skip ? "" : " (reference)"));
            auto wcfg = core::ProcessorConfig::dualCluster8();
            wcfg.regMap = out.hardwareMap(2);
            wcfg.idleSkip = idle_skip;
            wcfg.paranoid = true;
            StatGroup stats("test");
            exec::ProgramTrace trace(out.binary, 42, 40'000);
            core::Processor cpu(wcfg, trace, stats);
            EXPECT_TRUE(cpu.run().completed);
        }
    }
}



// --- multi-cluster generalization (paper §6) ------------------------------

class ClusterCount : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ClusterCount, AllLocalRegistersRouteToTheirHome)
{
    const unsigned n = GetParam();
    auto cfg = core::ProcessorConfig::multiCluster8(n);
    std::vector<exec::DynInst> v;
    // One single-distributed add per cluster (operands share a home).
    for (unsigned c = 0; c < n; ++c)
        v.push_back(makeInst(
            isa::makeRRR(Op::Add, intReg(c), intReg(c + n), intReg(c))));
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("dist.single"), n);
    EXPECT_EQ(run.counter("dist.dual"), 0u);
    for (unsigned c = 0; c < n; ++c)
        EXPECT_EQ(run.eventCycle(c, TimelineEvent::MasterIssued, c) !=
                      kNoCycle,
                  true)
            << "cluster " << c;
}

TEST_P(ClusterCount, CrossClusterOperandsForward)
{
    const unsigned n = GetParam();
    if (n < 2)
        GTEST_SKIP();
    auto cfg = core::ProcessorConfig::multiCluster8(n);
    std::vector<exec::DynInst> v;
    // dest and src1 in cluster 0; src2 in cluster 1.
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(0), intReg(n),
                                      intReg(1))));
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("dist.dual"), 1u);
    EXPECT_EQ(run.counter("dist.operand_forwards"), 1u);
    const Cycle slave = run.eventCycle(0, TimelineEvent::SlaveIssued, 1);
    const Cycle master = run.eventCycle(0, TimelineEvent::MasterIssued, 0);
    EXPECT_EQ(master, slave + 1);
}

TEST_P(ClusterCount, GlobalDestinationReplicatesEverywhere)
{
    const unsigned n = GetParam();
    auto cfg = core::ProcessorConfig::multiCluster8(n);
    cfg.regMap.setGlobal(intReg(8 % (n * 2) == 0 ? 8 : 8)); // r8
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(8), intReg(0),
                                      intReg(0))));
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    // Every cluster writes its own copy of r8.
    for (unsigned c = 0; c < n; ++c)
        EXPECT_NE(run.eventCycle(0, TimelineEvent::RegWritten, c),
                  kNoCycle)
            << "cluster " << c;
    EXPECT_EQ(run.counter("dist.copies"), n);
}

TEST_P(ClusterCount, ThreeWayInstructionSpansThreeClusters)
{
    const unsigned n = GetParam();
    if (n < 4)
        GTEST_SKIP();
    auto cfg = core::ProcessorConfig::multiCluster8(n);
    // srcs in clusters 1 and 2, dest in cluster 3: master + 2 slaves.
    std::vector<exec::DynInst> v;
    v.push_back(makeInst(isa::makeRRR(Op::Add, intReg(3), intReg(1),
                                      intReg(2))));
    SimRun run(cfg, v);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(run.counter("dist.copies"), 3u);
    EXPECT_EQ(run.counter("dist.operand_forwards"), 1u);
    EXPECT_EQ(run.counter("dist.result_forwards"), 1u);
    EXPECT_EQ(run.counter("sim.retired"), 1u);
}

INSTANTIATE_TEST_SUITE_P(OneToFour, ClusterCount,
                         ::testing::Values(1u, 2u, 4u));



// --- queue discipline (window vs reservation stations) --------------------

TEST(QueueDiscipline, WindowModeHoldsEntriesUntilRetire)
{
    // A long divide followed by independent adds: in window mode the
    // issued-but-unretired instructions keep their entries, so a tiny
    // queue throttles dispatch; in reservation-station mode it drains
    // at issue.
    auto make = [] {
        std::vector<exec::DynInst> v;
        v.push_back(makeInst(isa::makeRRR(Op::DivD, fpReg(2), fpReg(0),
                                          fpReg(0))));
        for (int i = 0; i < 12; ++i) {
            auto di = makeInst(isa::makeRRR(
                Op::Add, intReg(2 + 2 * (i % 8) > 28 ? 2 : 2 + 2 * (i % 8)),
                intReg(20), intReg(22)));
            di.pc = 0x1000 + 4 * (i % 8);
            v.push_back(di);
        }
        return v;
    };
    auto cfgw = core::ProcessorConfig::singleCluster8();
    cfgw.dispatchQueueEntries = 4;
    cfgw.holdQueueUntilRetire = true;
    SimRun window(cfgw, make());

    auto cfgr = cfgw;
    cfgr.holdQueueUntilRetire = false;
    SimRun rs(cfgr, make());

    ASSERT_TRUE(window.result.completed);
    ASSERT_TRUE(rs.result.completed);
    // The divide blocks retirement; window mode cannot run ahead.
    EXPECT_GT(window.result.cycles, rs.result.cycles);
    EXPECT_GT(window.counter("dispatch.stall_dq"),
              rs.counter("dispatch.stall_dq"));
}

TEST(QueueDiscipline, BothModesRetireEverything)
{
    for (bool hold : {false, true}) {
        std::vector<exec::DynInst> v;
        for (int i = 0; i < 40; ++i)
            v.push_back(makeInst(isa::makeRRR(
                Op::Mull, intReg(2 + 2 * (i % 8)), intReg(20),
                intReg(22))));
        auto cfg = core::ProcessorConfig::dualCluster8();
        cfg.dispatchQueueEntries = 6;
        cfg.holdQueueUntilRetire = hold;
        cfg.paranoid = true;
        SimRun run(cfg, v);
        EXPECT_TRUE(run.result.completed) << "hold=" << hold;
        EXPECT_EQ(run.counter("sim.retired"), 40u) << "hold=" << hold;
    }
}

TEST(Timeline, ForInstSeparatesInterleavedInstructions)
{
    // Records arrive interleaved across sequence numbers and clusters,
    // the way a real dual-distributed run produces them; forInst must
    // return exactly one instruction's records, in time order.
    core::TimelineRecorder rec;
    rec.record(1, 0, 0, TimelineEvent::Dispatched);
    rec.record(1, 1, 1, TimelineEvent::Dispatched);
    rec.record(2, 1, 1, TimelineEvent::MasterIssued);
    rec.record(3, 0, 0, TimelineEvent::MasterIssued);
    rec.record(3, 0, 1, TimelineEvent::SlaveIssued);
    rec.record(5, 1, 1, TimelineEvent::Retired);
    rec.record(6, 0, 0, TimelineEvent::Retired);

    const auto inst0 = rec.forInst(0);
    ASSERT_EQ(inst0.size(), 4u);
    for (const auto &r : inst0)
        EXPECT_EQ(r.seq, 0u);
    for (std::size_t i = 1; i < inst0.size(); ++i)
        EXPECT_GE(inst0[i].cycle, inst0[i - 1].cycle);
    EXPECT_EQ(inst0.front().event, TimelineEvent::Dispatched);
    EXPECT_EQ(inst0.back().event, TimelineEvent::Retired);
    // Both copies' cycle-3 events survive, master and slave clusters.
    EXPECT_EQ(inst0[1].cycle, 3u);
    EXPECT_EQ(inst0[2].cycle, 3u);
    EXPECT_NE(inst0[1].cluster, inst0[2].cluster);

    const auto inst1 = rec.forInst(1);
    ASSERT_EQ(inst1.size(), 3u);
    for (const auto &r : inst1)
        EXPECT_EQ(r.seq, 1u);

    EXPECT_TRUE(rec.forInst(99).empty());
    rec.clear();
    EXPECT_TRUE(rec.forInst(0).empty());
}

TEST(Timeline, ForInstMatchesLinearScanOnARealRun)
{
    // Long dependent chain on the dual machine; the indexed forInst
    // must agree with a brute-force scan of the raw record stream.
    std::vector<exec::DynInst> v;
    for (int i = 0; i < 30; ++i)
        v.push_back(makeInst(
            isa::makeRRR(Op::Add, intReg(2 + 2 * ((i + 1) % 12)),
                         intReg(2 + 2 * (i % 12)), intReg(20))));
    SimRun run(core::ProcessorConfig::dualCluster8(), v);
    ASSERT_TRUE(run.result.completed);
    for (InstSeq seq = 0; seq < 30; ++seq) {
        const auto indexed = run.timeline.forInst(seq);
        std::vector<core::TimelineRecord> scanned;
        for (const auto &r : run.timeline.records())
            if (r.seq == seq)
                scanned.push_back(r);
        ASSERT_EQ(indexed.size(), scanned.size()) << "seq " << seq;
        EXPECT_FALSE(indexed.empty()) << "seq " << seq;
        for (std::size_t i = 1; i < indexed.size(); ++i)
            EXPECT_GE(indexed[i].cycle, indexed[i - 1].cycle);
        // Same multiset of (cycle, cluster, event) triples.
        auto key = [](const core::TimelineRecord &r) {
            return std::tuple(r.cycle, r.cluster, r.event);
        };
        std::vector<std::tuple<Cycle, unsigned, TimelineEvent>> a, b;
        for (const auto &r : indexed)
            a.push_back(key(r));
        for (const auto &r : scanned)
            b.push_back(key(r));
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << "seq " << seq;
    }
}

// --- applyRemap edge cases ----------------------------------------------

/** One instruction carrying a remap to `schedule[0]`, reading r3+r5. */
std::vector<exec::DynInst>
remapCarrier()
{
    exec::DynInst di;
    di.mi = isa::makeRRR(Op::Add, intReg(2), intReg(3), intReg(5));
    di.remapIndex = 0;
    return {di};
}

/** Map with r3 and r5 re-homed into cluster 0 (2 moved registers). */
isa::RegisterMap
remapTargetMap()
{
    isa::RegisterMap map(2);
    map.setHome(intReg(3), 0);
    map.setHome(intReg(5), 0);
    return map;
}

TEST(RemapEdge, PhysicalRegisterExhaustionIsFatal)
{
    // Every integer register made global: each cluster must map all 31
    // non-zero arch regs, which cannot fit in 20 physical registers.
    isa::RegisterMap all_global(2);
    for (unsigned a = 1; a < isa::kNumArchRegs; ++a)
        all_global.setGlobal(intReg(a));
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.physIntRegs = 20; // holds the even/odd locals, not 31 globals
    cfg.mapSchedule = {all_global};
    EXPECT_EXIT(SimRun(cfg, remapCarrier()),
                testing::ExitedWithCode(1),
                "remap exhausts the physical registers");
}

TEST(RemapEdge, StillMappedRegistersSkipTheTransferLatency)
{
    // After the remap, r2 never changed homes (cluster 0 under both
    // maps): it is conservatively re-timed to `now`, NOT to the end of
    // the transfer window, so its reader must issue strictly earlier
    // than a reader of the moved r3/r5.
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.mapSchedule = {remapTargetMap()};
    cfg.remapTransferRate = 1; // 2 moved regs => 2-cycle transfer
    std::vector<exec::DynInst> still;
    still.push_back(makeInst(
        isa::makeRRR(Op::Add, intReg(4), intReg(2), intReg(2))));
    still.front().remapIndex = 0;
    SimRun still_run(cfg, still);
    SimRun moved_run(cfg, remapCarrier());
    const auto still_issue =
        still_run.eventCycle(0, TimelineEvent::MasterIssued);
    const auto moved_issue =
        moved_run.eventCycle(0, TimelineEvent::MasterIssued);
    ASSERT_NE(still_issue, kNoCycle);
    ASSERT_NE(moved_issue, kNoCycle);
    EXPECT_LT(still_issue, moved_issue);
}

TEST(RemapEdge, TransferRateRoundsUp)
{
    // 2 moved registers: rates 2 and 3 both take ceil(2/rate) = 1
    // cycle (a floor would give 1 vs 0), and rate 1 takes exactly one
    // cycle more.
    auto issueAtRate = [](unsigned rate) {
        auto cfg = core::ProcessorConfig::dualCluster8();
        cfg.mapSchedule = {remapTargetMap()};
        cfg.remapTransferRate = rate;
        SimRun run(cfg, remapCarrier());
        return run.eventCycle(0, TimelineEvent::MasterIssued);
    };
    const auto at1 = issueAtRate(1);
    const auto at2 = issueAtRate(2);
    const auto at3 = issueAtRate(3);
    ASSERT_NE(at1, kNoCycle);
    EXPECT_EQ(at2, at3);
    EXPECT_EQ(at1, at2 + 1);
}

} // namespace
