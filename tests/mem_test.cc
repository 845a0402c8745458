/**
 * @file
 * Unit tests for the cache model: hits/misses, LRU replacement,
 * inverted-MSHR merge behaviour, write-back accounting.
 */

#include <gtest/gtest.h>

#include "core/processor.hh"
#include "exec/trace.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "support/stats.hh"

namespace
{

using namespace mca;

mem::CacheParams
smallCache()
{
    // 1 KB, 2-way, 32 B blocks -> 16 sets; 16-cycle miss latency.
    return mem::CacheParams{1024, 2, 32, 16};
}

struct CacheFixture : ::testing::Test
{
    StatGroup stats{"cache"};
    mem::Cache cache{"d", smallCache(), stats};
};

TEST_F(CacheFixture, FirstAccessMissesThenHits)
{
    const auto m = cache.access(0x1000, false, 0);
    EXPECT_FALSE(m.hit);
    EXPECT_EQ(m.readyAt, 16u);
    const auto h = cache.access(0x1008, false, 20);
    EXPECT_TRUE(h.hit);
    EXPECT_EQ(h.readyAt, 20u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(CacheFixture, MergedMissSharesFill)
{
    const auto m = cache.access(0x1000, false, 0);
    EXPECT_FALSE(m.hit);
    // Second access to the same block before the fill lands merges.
    const auto g = cache.access(0x1010, false, 5);
    EXPECT_FALSE(g.hit);
    EXPECT_TRUE(g.merged);
    EXPECT_EQ(g.readyAt, m.readyAt);
    EXPECT_EQ(cache.mergedMisses(), 1u);
    // After the fill completes it is a plain hit.
    EXPECT_TRUE(cache.access(0x1018, false, 17).hit);
}

TEST_F(CacheFixture, UnlimitedOutstandingMisses)
{
    // The inverted MSHR places no limit on in-flight misses.
    for (int i = 0; i < 64; ++i) {
        const auto r =
            cache.access(0x4000 + static_cast<Addr>(i) * 0x1000, false, 0);
        EXPECT_FALSE(r.hit);
        EXPECT_FALSE(r.merged);
    }
    EXPECT_EQ(cache.misses(), 64u);
}

TEST_F(CacheFixture, LruEvictsLeastRecentlyUsed)
{
    // Three blocks mapping to the same set of a 2-way cache.
    const Addr a = 0x0000, b = 0x0000 + 512, c = 0x0000 + 1024;
    cache.access(a, false, 0);
    cache.access(b, false, 20);
    cache.access(a, false, 40); // touch a: b becomes LRU
    cache.access(c, false, 60); // evicts b
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST_F(CacheFixture, DirtyEvictionCountsWriteback)
{
    const Addr a = 0x0000, b = 0x0000 + 512, c = 0x0000 + 1024;
    cache.access(a, true, 0); // dirty
    cache.access(b, false, 20);
    cache.access(c, false, 40); // evicts dirty a
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST_F(CacheFixture, CleanEvictionNoWriteback)
{
    const Addr a = 0x0000, b = 0x0000 + 512, c = 0x0000 + 1024;
    cache.access(a, false, 0);
    cache.access(b, false, 20);
    cache.access(c, false, 40);
    EXPECT_EQ(cache.writebacks(), 0u);
}

TEST_F(CacheFixture, WriteHitSetsDirty)
{
    const Addr a = 0x0000, b = 0x0000 + 512, c = 0x0000 + 1024;
    cache.access(a, false, 0);
    cache.access(a, true, 20); // write hit dirties the line
    cache.access(b, false, 40);
    cache.access(c, false, 60); // evicts a
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST_F(CacheFixture, FlushInvalidatesEverything)
{
    cache.access(0x2000, false, 0);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x2000));
    EXPECT_FALSE(cache.access(0x2000, false, 100).hit);
}

TEST_F(CacheFixture, MissRateArithmetic)
{
    cache.access(0x100, false, 0);
    cache.access(0x100, false, 50);
    cache.access(0x100, false, 60);
    cache.access(0x100, false, 70);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.25);
}

TEST(CacheConfig, PaperConfiguration)
{
    StatGroup stats("c");
    // 64 KB, 2-way, 32 B blocks, 16-cycle memory (paper §4.1).
    mem::Cache cache("l1", mem::CacheParams{}, stats);
    EXPECT_EQ(cache.params().sizeBytes, 64u * 1024);
    EXPECT_EQ(cache.params().assoc, 2u);
    EXPECT_EQ(cache.params().missLatency, 16u);
}

/** Property: per-address-pattern, hits + misses == accesses. */
class CacheSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheSweep, CountsAreConsistent)
{
    const auto [size_kb, assoc] = GetParam();
    StatGroup stats("c");
    mem::Cache cache("l1",
                     mem::CacheParams{size_kb * 1024, assoc, 32, 16},
                     stats);
    Cycle now = 0;
    Addr last = 0;
    for (int i = 0; i < 3000; ++i) {
        Addr a = (static_cast<Addr>(i) * 1664525 + 1013904223) %
                 (128 * 1024);
        // Every fourth access repeats the previous address, so every
        // configuration sees both hits and misses.
        if (i % 4 == 3)
            a = last;
        last = a;
        cache.access(a & ~Addr{7}, (i % 5) == 0, now);
        now += 40;
    }
    EXPECT_EQ(cache.hits() + cache.misses(), cache.accesses());
    EXPECT_EQ(cache.accesses(), 3000u);
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheSweep,
    ::testing::Combine(::testing::Values(1u, 8u, 64u),
                       ::testing::Values(1u, 2u, 4u)));

// --- explicit MSHR (ablation of the paper's inverted MSHR) ---------------

TEST(ExplicitMshr, RejectsWhenFull)
{
    StatGroup stats("c");
    auto params = smallCache();
    params.mshrEntries = 2;
    mem::Cache cache("d", params, stats);
    // Two outstanding misses fill the file.
    EXPECT_FALSE(cache.wouldReject(0x1000, 0));
    cache.access(0x1000, false, 0);
    EXPECT_FALSE(cache.wouldReject(0x2000, 0));
    cache.access(0x2000, false, 0);
    EXPECT_EQ(cache.outstandingFills(0), 2u);
    // A third distinct block must be rejected...
    EXPECT_TRUE(cache.wouldReject(0x3000, 1));
    EXPECT_GE(cache.mshrRejections(), 1u);
    // ...but a merge with an in-flight fill needs no new entry.
    EXPECT_FALSE(cache.wouldReject(0x1008, 1));
    // After the fills land, capacity frees up.
    EXPECT_FALSE(cache.wouldReject(0x3000, 17));
}

TEST(ExplicitMshr, InvertedNeverRejects)
{
    StatGroup stats("c");
    mem::Cache cache("d", smallCache(), stats);
    for (int i = 0; i < 64; ++i) {
        EXPECT_FALSE(cache.wouldReject(0x1000 + 0x1000 * i, 0));
        cache.access(0x1000 + 0x1000 * static_cast<Addr>(i), false, 0);
    }
    EXPECT_EQ(cache.mshrRejections(), 0u);
}

TEST(ExplicitMshr, HitsNeedNoEntry)
{
    StatGroup stats("c");
    auto params = smallCache();
    params.mshrEntries = 1;
    mem::Cache cache("d", params, stats);
    cache.access(0x1000, false, 0);   // outstanding
    // Resident block (after fill) is a hit: never rejected.
    EXPECT_FALSE(cache.wouldReject(0x1000, 20));
    EXPECT_TRUE(cache.access(0x1008, false, 20).hit);
}

TEST(ExplicitMshr, RetryAfterDrainTakesAnEntry)
{
    StatGroup stats("c");
    auto params = smallCache();
    params.mshrEntries = 1;
    mem::Cache cache("d", params, stats);
    cache.access(0x1000, false, 0);
    // The single entry stays occupied until the fill lands at 16; a
    // caller polling a different block is rejected until then.
    EXPECT_TRUE(cache.wouldReject(0x2000, 1));
    EXPECT_TRUE(cache.wouldReject(0x2000, 15));
    EXPECT_FALSE(cache.wouldReject(0x2000, 16));
    const auto retry = cache.access(0x2000, false, 16);
    EXPECT_FALSE(retry.hit);
    EXPECT_EQ(retry.readyAt, 32u);
    // The retried miss re-occupies the drained entry.
    EXPECT_EQ(cache.outstandingFills(16), 1u);
    EXPECT_TRUE(cache.wouldReject(0x3000, 17));
}

// --- hierarchy edge cases (a Cache with a real next level) ---------------

TEST(CacheChain, DirtyEvictionSendsWritebackTraffic)
{
    StatGroup stats("c");
    mem::FixedLatencyMemory memory("mem", 16, 0, stats);
    mem::Cache cache("d", smallCache(), stats, &memory);
    const Addr a = 0x0000, b = 512, c = 1024; // one 2-way set
    cache.access(a, true, 0); // dirty
    cache.access(b, false, 20);
    cache.access(c, false, 40); // evicts dirty a
    EXPECT_EQ(cache.writebacks(), 1u);
    // The victim's data actually travels: one write reaches the
    // backside, alongside the three demand fills.
    EXPECT_EQ(memory.writes(), 1u);
    EXPECT_EQ(memory.reads(), 3u);
}

TEST(CacheChain, CleanEvictionSendsNoWritebackTraffic)
{
    StatGroup stats("c");
    mem::FixedLatencyMemory memory("mem", 16, 0, stats);
    mem::Cache cache("d", smallCache(), stats, &memory);
    cache.access(0, false, 0);
    cache.access(512, false, 20);
    cache.access(1024, false, 40); // evicts clean line
    EXPECT_EQ(memory.writes(), 0u);
}

TEST(CacheChain, MergeReadyAtEqualsPortDelayedFill)
{
    StatGroup stats("c");
    mem::FixedLatencyMemory memory("mem", 16, 0, stats);
    auto params = smallCache();
    params.fillPorts = 1;
    mem::Cache cache("d", params, stats, &memory);
    const auto first = cache.access(0x1000, false, 0);
    EXPECT_EQ(first.readyAt, 16u);
    // Same-cycle second miss contends for the single fill port and is
    // pushed back one cycle.
    const auto second = cache.access(0x2000, false, 0);
    EXPECT_EQ(second.readyAt, 17u);
    // A merge with the delayed fill observes the *delayed* ready cycle,
    // not the nominal latency.
    const auto merged = cache.access(0x2008, false, 5);
    EXPECT_TRUE(merged.merged);
    EXPECT_EQ(merged.readyAt, second.readyAt);
}

TEST(ExplicitMshr, CoreStallsLoadsOnFullMshr)
{
    // Two independent far-apart loads with a 1-entry MSHR: the second
    // load's issue waits for the first fill.
    std::vector<exec::DynInst> v;
    exec::DynInst a;
    a.mi = isa::makeLoad(isa::Op::Ldl, isa::intReg(2), isa::intReg(4), 0);
    a.effAddr = 0x10000;
    v.push_back(a);
    exec::DynInst b = a;
    b.mi.dest = isa::intReg(6);
    b.effAddr = 0x20000;
    v.push_back(b);

    auto run = [&](unsigned mshr) {
        auto cfg = core::ProcessorConfig::singleCluster8();
        cfg.memory.dcache.mshrEntries = mshr;
        StatGroup stats("t");
        exec::VectorTrace trace(exec::VectorTrace::normalize(v));
        core::Processor cpu(cfg, trace, stats);
        return cpu.run(100000).cycles;
    };
    const auto unlimited = run(0);
    const auto limited = run(1);
    EXPECT_GE(limited, unlimited + 10); // serialized 16-cycle fills
}

} // namespace
