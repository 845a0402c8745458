/**
 * @file
 * Tests for the composed memory hierarchy (mem::MemorySystem): L2
 * hit/miss latency chains, shared-L2 behaviour, backside port
 * contention and its determinism, write-back traffic through the
 * chain, paper-mode equivalence with the flat model, and
 * ProcessorConfig::validate() error reporting.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/config.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "mem/memory.hh"
#include "runner/jobspec.hh"
#include "support/stats.hh"

namespace
{

using namespace mca;

mem::MemoryParams
withL2()
{
    mem::MemoryParams p;
    p.icache = mem::CacheParams{1024, 2, 32, 16, true};
    p.dcache = mem::CacheParams{1024, 2, 32, 16, true};
    p.l2SizeBytes = 16 * 1024; // 8-way, 32 B -> 64 sets
    p.l2HitLatency = 6;
    p.memLatency = 20;
    return p;
}

TEST(MemorySystem, PaperModeHasNoL2AndFlatLatency)
{
    StatGroup stats("m");
    mem::MemorySystem sys(mem::MemoryParams{}, stats);
    EXPECT_FALSE(sys.hasL2());
    EXPECT_EQ(sys.l2(), nullptr);
    // A cold L1 miss goes straight to the 16-cycle backside: exactly
    // the flat `now + missLatency` timing of the pre-hierarchy model.
    const auto r = sys.dcache().access(0x1000, false, 0);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.readyAt, 16u);
    EXPECT_EQ(r.servedBy, mem::ServiceLevel::Memory);
    EXPECT_EQ(sys.memory().reads(), 1u);
}

TEST(MemorySystem, PaperModeMatchesStandaloneCacheTiming)
{
    // The hierarchy with default params must time every access exactly
    // like a standalone flat-latency Cache — the bit-identity argument
    // in docs/memory.md, checked here access by access.
    StatGroup sa("a"), sb("b");
    mem::MemorySystem sys(mem::MemoryParams{}, sa);
    mem::Cache flat("d", mem::CacheParams{}, sb);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr a = (static_cast<Addr>(i) * 1664525 + 1013904223) %
                       (256 * 1024);
        const bool write = (i % 7) == 0;
        const auto hier = sys.dcache().access(a & ~Addr{7}, write, now);
        const auto ref = flat.access(a & ~Addr{7}, write, now);
        ASSERT_EQ(hier.hit, ref.hit) << "access " << i;
        ASSERT_EQ(hier.merged, ref.merged) << "access " << i;
        ASSERT_EQ(hier.readyAt, ref.readyAt) << "access " << i;
        now += (i % 3) * 5;
    }
    EXPECT_EQ(sys.dcache().misses(), flat.misses());
    EXPECT_EQ(sys.dcache().writebacks(), flat.writebacks());
}

TEST(MemorySystem, L2MissChainAddsLatencies)
{
    StatGroup stats("m");
    mem::MemorySystem sys(withL2(), stats);
    ASSERT_TRUE(sys.hasL2());
    // Cold: L1 miss -> L2 miss -> memory. 20-cycle backside plus the
    // 6-cycle L2 lookup.
    const auto cold = sys.dcache().access(0x1000, false, 0);
    EXPECT_FALSE(cold.hit);
    EXPECT_EQ(cold.servedBy, mem::ServiceLevel::Memory);
    EXPECT_EQ(cold.readyAt, 26u);
    EXPECT_EQ(sys.l2()->misses(), 1u);
    EXPECT_EQ(sys.memory().reads(), 1u);
}

TEST(MemorySystem, L2HitServesL1Miss)
{
    StatGroup stats("m");
    mem::MemorySystem sys(withL2(), stats);
    sys.dcache().access(0x1000, false, 0); // fill both levels
    sys.dcache().flush();                  // L1 forgets, L2 keeps
    const auto r = sys.dcache().access(0x1000, false, 100);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.servedBy, mem::ServiceLevel::L2);
    EXPECT_EQ(r.readyAt, 106u); // l2HitLatency only
    EXPECT_EQ(sys.memory().reads(), 1u); // no second backside read
}

TEST(MemorySystem, L1sShareTheL2)
{
    StatGroup stats("m");
    mem::MemorySystem sys(withL2(), stats);
    sys.dcache().access(0x1000, false, 0);
    // An icache miss to the block the dcache pulled in hits the shared
    // L2 — one backside read total.
    const auto r = sys.icache().access(0x1000, false, 100);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.servedBy, mem::ServiceLevel::L2);
    EXPECT_EQ(sys.memory().reads(), 1u);
}

TEST(MemorySystem, DirtyL1EvictionWritesIntoL2)
{
    StatGroup stats("m");
    mem::MemorySystem sys(withL2(), stats);
    const Addr a = 0, b = 512, c = 1024; // one L1 set; distinct L2 sets
    sys.dcache().access(a, true, 0); // dirty in L1
    sys.dcache().access(b, false, 50);
    sys.dcache().access(c, false, 100); // evicts dirty a
    EXPECT_EQ(sys.dcache().writebacks(), 1u);
    // The write-back lands in the (write-allocate) L2, not memory:
    // three demand reads plus one write-back = four L2 accesses, and
    // the backside absorbs no write.
    EXPECT_EQ(sys.l2()->accesses(), 4u);
    EXPECT_EQ(sys.memory().writes(), 0u);
    EXPECT_TRUE(sys.l2()->probe(a));
}

TEST(MemorySystem, MemoryPortContentionPushesFillsBack)
{
    mem::MemoryParams p;
    p.dcache = mem::CacheParams{1024, 2, 32, 16, true};
    p.memPorts = 1;
    StatGroup stats("m");
    mem::MemorySystem sys(p, stats);
    // Three same-cycle misses serialize on the single backside port:
    // one completion per cycle, deterministically in request order.
    EXPECT_EQ(sys.dcache().access(0x1000, false, 0).readyAt, 16u);
    EXPECT_EQ(sys.dcache().access(0x2000, false, 0).readyAt, 17u);
    EXPECT_EQ(sys.dcache().access(0x3000, false, 0).readyAt, 18u);
}

TEST(MemorySystem, UncontendedPortsMatchUnlimited)
{
    // Finite ports only matter under contention: widely spaced misses
    // time identically with and without the limit.
    auto run = [](unsigned ports) {
        mem::MemoryParams p;
        p.dcache = mem::CacheParams{1024, 2, 32, 16, true};
        p.memPorts = ports;
        StatGroup stats("m");
        mem::MemorySystem sys(p, stats);
        std::vector<Cycle> readys;
        Cycle now = 0;
        for (int i = 0; i < 100; ++i) {
            readys.push_back(
                sys.dcache()
                    .access(static_cast<Addr>(i) * 0x1000, false, now)
                    .readyAt);
            now += 40;
        }
        return readys;
    };
    EXPECT_EQ(run(0), run(1));
}

TEST(MemorySystem, PortContentionIsDeterministicAcrossRuns)
{
    auto run = [] {
        mem::MemoryParams p;
        p.dcache = mem::CacheParams{1024, 2, 32, 16, true};
        p.dcache.fillPorts = 2;
        p.memLatency = 12;
        p.memPorts = 1;
        StatGroup stats("m");
        mem::MemorySystem sys(p, stats);
        std::vector<Cycle> readys;
        for (int i = 0; i < 200; ++i) {
            const Addr a = (static_cast<Addr>(i) * 2654435761u) %
                           (256 * 1024);
            readys.push_back(sys.dcache()
                                 .access(a & ~Addr{7}, (i % 3) == 0,
                                         static_cast<Cycle>(i) * 2)
                                 .readyAt);
        }
        return readys;
    };
    EXPECT_EQ(run(), run());
}

// --- ProcessorConfig::validate() -----------------------------------------

TEST(ConfigValidate, FactoryConfigsAreValid)
{
    EXPECT_NO_THROW(core::ProcessorConfig::singleCluster8().validate());
    EXPECT_NO_THROW(core::ProcessorConfig::dualCluster8().validate());
    EXPECT_NO_THROW(core::ProcessorConfig::multiCluster8(4).validate());
}

TEST(ConfigValidate, RejectsBadCoreGeometry)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.numClusters = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = core::ProcessorConfig::dualCluster8();
    cfg.fetchWidth = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = core::ProcessorConfig::dualCluster8();
    cfg.numClusters = 3; // regMap still covers 2
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(ConfigValidate, RejectsBadCacheGeometry)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.memory.dcache.sizeBytes = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = core::ProcessorConfig::dualCluster8();
    cfg.memory.icache.assoc = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = core::ProcessorConfig::dualCluster8();
    cfg.memory.icache.blockBytes = 48; // not a power of two
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = core::ProcessorConfig::dualCluster8();
    cfg.memory.memLatency = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(ConfigValidate, RejectsBadL2Geometry)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.memory.l2SizeBytes = 3 * 1024; // 12 sets: not a power of two
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = core::ProcessorConfig::dualCluster8();
    cfg.memory.l2SizeBytes = 256 * 1024;
    cfg.memory.l2BlockBytes = 16; // smaller than the L1 blocks
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    cfg = core::ProcessorConfig::dualCluster8();
    cfg.memory.l2SizeBytes = 256 * 1024;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, ValidationErrorsNameTheParameter)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.memory.dcache.sizeBytes = 0;
    try {
        cfg.validate();
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("dcache"), std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidate, OperandBufferHoldsWhatOneInstructionCanNeed)
{
    // dual8: one slave per instruction, so one entry serves it.
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.operandBufferEntries = 1;
    EXPECT_NO_THROW(cfg.validate());
    cfg.operandBufferEntries = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    // Three or more clusters: two slaves can forward into one master.
    for (const unsigned n : {4u, 8u}) {
        cfg = core::ProcessorConfig::multiCluster8(n);
        cfg.operandBufferEntries = 2;
        EXPECT_NO_THROW(cfg.validate());
        cfg.operandBufferEntries = 1;
        try {
            cfg.validate();
            FAIL() << "a one-entry OTB passed on " << n << " clusters";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "ProcessorConfig::validate: operandBufferEntries "
                      "must be >= 2 on a " +
                          std::to_string(n) +
                          "-cluster machine, where one instruction can "
                          "hold that many entries of one cluster's "
                          "operand transfer buffer (got 1)");
        }
    }
    // One cluster forwards nothing.
    cfg = core::ProcessorConfig::singleCluster8();
    cfg.operandBufferEntries = 0;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, MultiCluster8RejectsNonDivisor)
{
    EXPECT_THROW(core::ProcessorConfig::multiCluster8(0),
                 std::runtime_error);
    EXPECT_THROW(core::ProcessorConfig::multiCluster8(3),
                 std::runtime_error);
    EXPECT_THROW(core::ProcessorConfig::multiCluster8(5),
                 std::runtime_error);
    EXPECT_NO_THROW(core::ProcessorConfig::multiCluster8(2));
}

TEST(ConfigValidate, RunnerSpecMemoryAxesReachTheConfig)
{
    runner::JobSpec spec;
    spec.l2Kb = 256;
    spec.l2Lat = 9;
    spec.memLat = 30;
    spec.fillPorts = 2;
    core::ProcessorConfig cfg = runner::machineConfigFor(spec);
    EXPECT_EQ(cfg.memory.l2SizeBytes, 256u * 1024);
    EXPECT_EQ(cfg.memory.l2HitLatency, 9u);
    EXPECT_EQ(cfg.memory.memLatency, 30u);
    EXPECT_EQ(cfg.memory.dcache.fillPorts, 2u);
    EXPECT_EQ(cfg.memory.memPorts, 2u);

    runner::JobSpec bad;
    bad.l2Kb = 3; // 12 sets: rejected by validate() inside
    EXPECT_THROW(runner::machineConfigFor(bad), std::runtime_error);

    // mcasim's machine overrides reach their ProcessorConfig members,
    // and the zero/empty/false sentinels leave the machine's own values.
    spec = runner::JobSpec{};
    const core::ProcessorConfig base = runner::machineConfigFor(spec);
    spec.dqEntries = 16;
    spec.otbEntries = 2;
    spec.rtbEntries = 3;
    spec.mshrEntries = 4;
    spec.icacheKb = 8;
    spec.dcacheKb = 16;
    spec.queueMode = "rs";
    spec.specHistory = true;
    spec.reserveOldest = true;
    cfg = runner::machineConfigFor(spec);
    EXPECT_EQ(cfg.dispatchQueueEntries, 16u);
    EXPECT_EQ(cfg.operandBufferEntries, 2u);
    EXPECT_EQ(cfg.resultBufferEntries, 3u);
    EXPECT_EQ(cfg.memory.dcache.mshrEntries, 4u);
    EXPECT_EQ(cfg.memory.icache.sizeBytes, 8u * 1024);
    EXPECT_EQ(cfg.memory.dcache.sizeBytes, 16u * 1024);
    EXPECT_FALSE(cfg.holdQueueUntilRetire);
    EXPECT_TRUE(cfg.speculativeHistory);
    EXPECT_TRUE(cfg.reserveOldestEntry);

    EXPECT_EQ(base.dispatchQueueEntries, 64u);
    EXPECT_EQ(base.operandBufferEntries, 8u);
    EXPECT_EQ(base.memory.icache.sizeBytes, 64u * 1024);
    EXPECT_TRUE(base.holdQueueUntilRetire);
    EXPECT_FALSE(base.speculativeHistory);
    spec = runner::JobSpec{};
    spec.queueMode = "window";
    EXPECT_TRUE(runner::machineConfigFor(spec).holdQueueUntilRetire);
    spec.queueMode = "fifo";
    EXPECT_THROW(runner::machineConfigFor(spec), std::runtime_error);
    spec = runner::JobSpec{};
    spec.icacheKb = 3; // 48 sets
    EXPECT_THROW(runner::machineConfigFor(spec), std::runtime_error);
}

// `mcasim --clusters N` names the machine with N clusters, which must be
// exactly the 8-way machine split N ways, multiCluster8(N).
TEST(ConfigValidate, ClusterSplitsAreTheNamedMachines)
{
    const std::pair<unsigned, const char *> splits[] = {
        {1, "single8"}, {2, "dual8"}, {4, "quad8"}, {8, "octa8"}};
    for (const auto &[n, machine] : splits) {
        runner::JobSpec spec;
        spec.machine = machine;
        exec::VectorTrace none({});
        StatGroup a("a");
        StatGroup b("b");
        const core::Processor split(core::ProcessorConfig::multiCluster8(n),
                                    none, a);
        const core::Processor named(runner::machineConfigFor(spec), none, b);
        EXPECT_EQ(split.configHash(), named.configHash()) << machine;
    }
}

} // namespace
