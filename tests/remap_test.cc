/**
 * @file
 * Tests for the dynamic register-reassignment extension (paper §2.1
 * mentions the hardware mechanism; §6 proposes compiler-directed use).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ckpt/snapshot.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "support/stats.hh"

namespace
{

using namespace mca;
using core::TimelineEvent;
using isa::intReg;
using isa::Op;

exec::DynInst
add(unsigned dest, unsigned a, unsigned b)
{
    exec::DynInst di;
    di.mi = isa::makeRRR(Op::Add, intReg(dest), intReg(a), intReg(b));
    return di;
}

/** Map with r3 and r5 re-homed into cluster 0. */
isa::RegisterMap
rehomedMap()
{
    isa::RegisterMap map(2);
    map.setHome(intReg(3), 0);
    map.setHome(intReg(5), 0);
    return map;
}

// --- RegisterMap.setHome --------------------------------------------------

TEST(RegisterMapHomes, OverridesReplaceModRule)
{
    const auto map = rehomedMap();
    EXPECT_EQ(map.homeCluster(intReg(3)), 0u);
    EXPECT_EQ(map.homeCluster(intReg(5)), 0u);
    EXPECT_EQ(map.homeCluster(intReg(7)), 1u); // untouched
    EXPECT_TRUE(map.accessibleFrom(intReg(3), 0));
    EXPECT_FALSE(map.accessibleFrom(intReg(3), 1));
}

TEST(RegisterMapHomes, ClearHomeRestoresModRule)
{
    auto map = rehomedMap();
    map.clearHome(intReg(3));
    EXPECT_EQ(map.homeCluster(intReg(3)), 1u);
}

TEST(RegisterMapHomes, DifferingHomesCountsChanges)
{
    isa::RegisterMap base(2);
    EXPECT_EQ(base.differingHomes(base), 0u);
    EXPECT_EQ(base.differingHomes(rehomedMap()), 2u);
    auto withGlobal = base;
    withGlobal.setGlobal(intReg(8));
    EXPECT_EQ(base.differingHomes(withGlobal), 1u);
}

TEST(RegisterMapHomes, LocalRegCountTracksOverrides)
{
    const auto map = rehomedMap();
    // Cluster 0 gains r3 and r5 on top of its 15 defaults.
    EXPECT_EQ(map.localRegCount(isa::RegClass::Int, 0), 17u);
    EXPECT_EQ(map.localRegCount(isa::RegClass::Int, 1), 12u);
}

TEST(RegisterMapHomes, DistributionFollowsOverrides)
{
    const auto map = rehomedMap();
    // add r2 <- r3 + r5: all cluster 0 under the re-homed map.
    const auto mi = isa::makeRRR(Op::Add, intReg(2), intReg(3), intReg(5));
    EXPECT_FALSE(isa::decideDistribution(mi, map).isDual());
    EXPECT_TRUE(
        isa::decideDistribution(mi, isa::RegisterMap(2)).isDual());
}

// --- the machine mechanism ---------------------------------------------

struct RemapRun
{
    StatGroup stats{"remap"};
    core::TimelineRecorder timeline;
    core::SimResult result;

    explicit RemapRun(std::vector<exec::DynInst> insts,
                      unsigned transfer_rate = 4)
    {
        core::ProcessorConfig cfg = core::ProcessorConfig::dualCluster8();
        cfg.mapSchedule = {rehomedMap()};
        cfg.remapTransferRate = transfer_rate;
        exec::VectorTrace trace(
            exec::VectorTrace::normalize(std::move(insts)));
        core::Processor cpu(cfg, trace, stats);
        cpu.attachTimeline(&timeline);
        result = cpu.run(100'000);
    }
};

TEST(Remap, SwitchEliminatesDualDistribution)
{
    // Phase: adds over {r3, r5, r2} — dual under even/odd, single once
    // r3/r5 are re-homed into cluster 0.
    std::vector<exec::DynInst> phase;
    for (int i = 0; i < 6; ++i)
        phase.push_back(add(2, 3, 5));

    // Without the remap.
    {
        std::vector<exec::DynInst> v = phase;
        RemapRun run(v);
        EXPECT_EQ(run.stats.counterAt("dist.dual").value(), 6u);
    }
    // With the remap point ahead of the phase.
    {
        std::vector<exec::DynInst> v = phase;
        v.front().remapIndex = 0;
        RemapRun run(v);
        EXPECT_EQ(run.stats.counterAt("remap.events").value(), 1u);
        EXPECT_EQ(run.stats.counterAt("dist.dual").value(), 0u);
        EXPECT_EQ(run.stats.counterAt("sim.retired").value(), 6u);
    }
}

TEST(Remap, DrainsBeforeSwitching)
{
    // A long-latency op in flight forces the remap to wait.
    std::vector<exec::DynInst> v;
    exec::DynInst div;
    div.mi = isa::makeRRR(Op::DivD, isa::fpReg(2), isa::fpReg(0),
                          isa::fpReg(0));
    v.push_back(div);
    auto remap = add(2, 3, 5);
    remap.remapIndex = 0;
    v.push_back(remap);
    RemapRun run(v);
    EXPECT_TRUE(run.result.completed);
    EXPECT_GT(run.stats.counterAt("remap.drain_cycles").value(), 10u);
    // The post-remap add dispatches only after the divide retires.
    const auto div_retire = [&] {
        for (const auto &r : run.timeline.records())
            if (r.seq == 0 && r.event == TimelineEvent::Retired)
                return r.cycle;
        return kNoCycle;
    }();
    const auto add_issue = [&] {
        for (const auto &r : run.timeline.records())
            if (r.seq == 1 && r.event == TimelineEvent::MasterIssued)
                return r.cycle;
        return kNoCycle;
    }();
    ASSERT_NE(div_retire, kNoCycle);
    ASSERT_NE(add_issue, kNoCycle);
    EXPECT_GT(add_issue, div_retire);
}

TEST(Remap, TransferLatencyDelaysFirstUse)
{
    auto slow = [] {
        std::vector<exec::DynInst> v;
        auto remap = add(2, 3, 5);
        remap.remapIndex = 0;
        v.push_back(remap);
        return v;
    };
    RemapRun fast(slow(), /*transfer_rate=*/32);
    RemapRun throttled(slow(), /*transfer_rate=*/1);
    EXPECT_GT(throttled.stats.counterAt("remap.regs_moved").value(), 0u);
    EXPECT_GT(throttled.result.cycles, fast.result.cycles);
}

TEST(Remap, ResumeAfterSwitchIsBitIdentical)
{
    // A snapshot taken after the switch holds the live, re-homed map.
    // The restore decodes it through the map's mutators, and dispatch
    // after the resume must route by it: r3 and r5 now read in cluster
    // 0, which no longer maps them in cluster 1.
    std::vector<exec::DynInst> v;
    for (int i = 0; i < 40; ++i)
        v.push_back(add(3, 3, 5));
    v.front().remapIndex = 0;
    v = exec::VectorTrace::normalize(std::move(v));
    core::ProcessorConfig cfg = core::ProcessorConfig::dualCluster8();
    cfg.mapSchedule = {rehomedMap()};

    const auto statsAfter = [&](Cycle snapshot_at) {
        StatGroup stats("remap");
        exec::VectorTrace trace(v);
        core::Processor cpu(cfg, trace, stats);
        if (snapshot_at != 0) {
            StatGroup first_stats("remap");
            exec::VectorTrace first_trace(v);
            core::Processor first(cfg, first_trace, first_stats);
            first.run(snapshot_at);
            EXPECT_EQ(first_stats.counterAt("remap.events").value(), 1u);
            EXPECT_LT(first_stats.counterAt("sim.retired").value(), 40u);
            ckpt::SnapshotBuilder b(first.configHash());
            first.saveState(b);
            const ckpt::Snapshot snap = b.finish();
            ckpt::SnapshotParser p(snap, cpu.configHash());
            cpu.loadState(p);
        }
        EXPECT_TRUE(cpu.run(100'000).completed);
        EXPECT_EQ(stats.counterAt("dist.dual").value(), 0u);
        std::ostringstream os;
        stats.dumpJson(os);
        return os.str();
    };
    EXPECT_EQ(statsAfter(20), statsAfter(0));
}

TEST(Remap, StateIsConsistentAcrossManySwitches)
{
    // Alternate remap points and work; everything must retire.
    std::vector<exec::DynInst> v;
    for (int k = 0; k < 8; ++k) {
        auto r = add(2, 3, 5);
        if (k % 2 == 0)
            r.remapIndex = 0;
        v.push_back(r);
        v.push_back(add(4, 2, 6));
    }
    RemapRun run(v);
    EXPECT_TRUE(run.result.completed);
    EXPECT_EQ(run.stats.counterAt("sim.retired").value(), 16u);
    EXPECT_EQ(run.stats.counterAt("remap.events").value(), 4u);
}

} // namespace
