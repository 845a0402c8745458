/**
 * @file
 * Properties of the SoA machine-state substrate and the devirtualized
 * memory fast path.
 *
 *  - SlabPool generational handles: under arbitrary alloc/free churn,
 *    a handle that outlives its allocation must go stale — it must
 *    never resolve to a *different* live object, even after its slot
 *    is reused many times (the property the core's dispatch-queue and
 *    memory-dependence handles rely on, ISSUE 8).
 *
 *  - Cache::accessFast vs the virtual MemoryLevel chain: running the
 *    six Table-2 workloads and the pointer chase with the L1 fast
 *    path disabled must reproduce the default run bit-identically
 *    (cycles, retired, full timeline, statistics JSON) — the fast
 *    path is an inlined replica of the hit path, never a semantic
 *    fork.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>
#include <vector>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "core/timeline.hh"
#include "exec/trace.hh"
#include "support/arena.hh"
#include "support/random.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

// --- SlabPool generational-aliasing property --------------------------

struct Payload
{
    std::uint64_t token = 0;
};

TEST(SlabPool, StaleHandlesNeverAliasLiveObjects)
{
    constexpr std::size_t kCapacity = 64;
    SlabPool<Payload> pool(kCapacity);
    Rng rng(0xA11A5ULL);

    // Live handles with the token written at allocation; retired
    // handles that must stay stale forever after.
    std::vector<std::pair<SlabPool<Payload>::Handle, std::uint64_t>> live;
    std::vector<SlabPool<Payload>::Handle> stale;
    std::uint64_t next_token = 1;

    for (int step = 0; step < 200'000; ++step) {
        const bool can_alloc = !pool.full();
        const bool do_alloc =
            can_alloc && (live.empty() || rng.nextBool(0.55));
        if (do_alloc) {
            const auto h = pool.alloc();
            pool.get(h).token = next_token;
            live.emplace_back(h, next_token);
            ++next_token;
        } else if (!live.empty()) {
            const std::size_t i = rng.nextBelow(live.size());
            pool.free(live[i].first);
            stale.push_back(live[i].first);
            live[i] = live.back();
            live.pop_back();
        }

        // Every live handle resolves to exactly its own object.
        for (const auto &[h, token] : live) {
            ASSERT_TRUE(pool.isLive(h));
            const Payload *p = pool.tryGet(h);
            ASSERT_NE(p, nullptr);
            ASSERT_EQ(p->token, token);
        }
        // No stale handle may resolve, no matter how often its slot
        // has been reused since (the generation check must hold).
        for (const auto &h : stale) {
            ASSERT_FALSE(pool.isLive(h));
            ASSERT_EQ(pool.tryGet(h), nullptr);
        }
        // Bound the stale set so the churn keeps recycling slots.
        if (stale.size() > 512)
            stale.erase(stale.begin(), stale.begin() + 256);
    }
    EXPECT_EQ(pool.size(), live.size());
}

TEST(SlabPool, GenerationDistinguishesReusedSlot)
{
    SlabPool<Payload> pool(4);
    const auto a = pool.alloc();
    pool.get(a).token = 1;
    pool.free(a);
    // LIFO free list: the next allocation reuses slot a.idx.
    const auto b = pool.alloc();
    pool.get(b).token = 2;
    EXPECT_EQ(a.idx, b.idx);
    EXPECT_NE(a.gen, b.gen);
    EXPECT_FALSE(pool.isLive(a));
    EXPECT_EQ(pool.tryGet(a), nullptr);
    ASSERT_TRUE(pool.isLive(b));
    EXPECT_EQ(pool.tryGet(b)->token, 2u);
}

TEST(SlabPool, ClearRestartsAllGenerations)
{
    SlabPool<Payload> pool(8);
    std::vector<SlabPool<Payload>::Handle> old;
    for (int i = 0; i < 8; ++i)
        old.push_back(pool.alloc());
    pool.clear();
    EXPECT_EQ(pool.size(), 0u);
    for (const auto &h : old)
        EXPECT_FALSE(pool.isLive(h));
    const auto fresh = pool.alloc();
    EXPECT_TRUE(pool.isLive(fresh));
}

// --- devirtualized fast path vs the virtual chain ---------------------

struct FastPathObserved
{
    Cycle cycles = 0;
    std::uint64_t retired = 0;
    std::string statsJson;
    core::TimelineRecorder timeline;
};

/**
 * Run one workload on the default dual-cluster machine twice —
 * L1 fast path on (default) and forced through the virtual access
 * chain — stepping both in lockstep, and require identical retire
 * progress per cycle plus identical timelines and statistics.
 */
void
expectFastPathExact(const std::string &name,
                    const prog::Program &program)
{
    constexpr std::uint64_t kSeed = 42;
    constexpr std::uint64_t kMaxInsts = 30'000;

    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    const auto out = compiler::compile(program, copt);
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = out.hardwareMap(2);

    struct Leg
    {
        Leg(const prog::MachProgram &binary,
            const core::ProcessorConfig &cfg, bool fast_path)
            : stats(binary.name), trace(binary, kSeed, kMaxInsts),
              cpu(cfg, trace, stats)
        {
            cpu.attachTimeline(&obs.timeline);
            cpu.memorySystem().icache().setFastPath(fast_path);
            cpu.memorySystem().dcache().setFastPath(fast_path);
        }
        StatGroup stats;
        exec::ProgramTrace trace;
        core::Processor cpu;
        FastPathObserved obs;
    };

    Leg fast(out.binary, cfg, true);
    Leg slow(out.binary, cfg, false);
    for (Cycle cycle = 0; cycle < 10'000'000; ++cycle) {
        const bool fast_live = fast.cpu.step();
        const bool slow_live = slow.cpu.step();
        ASSERT_EQ(fast_live, slow_live)
            << name << ": pipeline-empty diverged at cycle " << cycle;
        ASSERT_EQ(fast.cpu.retiredInstructions(),
                  slow.cpu.retiredInstructions())
            << name << ": retired count diverged at cycle " << cycle;
        if (!fast_live)
            break;
    }
    EXPECT_GT(fast.cpu.retiredInstructions(), 0u);
    EXPECT_EQ(fast.cpu.now(), slow.cpu.now());

    const auto &fr = fast.obs.timeline.records();
    const auto &sr = slow.obs.timeline.records();
    ASSERT_EQ(fr.size(), sr.size()) << name << ": timeline sizes differ";
    for (std::size_t i = 0; i < fr.size(); ++i)
        ASSERT_TRUE(fr[i].cycle == sr[i].cycle &&
                    fr[i].seq == sr[i].seq &&
                    fr[i].cluster == sr[i].cluster &&
                    fr[i].event == sr[i].event)
            << name << ": timeline record " << i << " differs";

    std::ostringstream fj, sj;
    fast.stats.dumpJson(fj);
    slow.stats.dumpJson(sj);
    EXPECT_EQ(fj.str(), sj.str())
        << name << ": statistics diverge between the devirtualized "
                   "fast path and the virtual chain";
}

class FastPathWorkload : public testing::TestWithParam<const char *>
{
};

TEST_P(FastPathWorkload, FastPathIsBitIdenticalToVirtualChain)
{
    expectFastPathExact(GetParam(),
                        workloads::benchmarkByName(GetParam()).make(
                            workloads::WorkloadParams{0.2}));
}

INSTANTIATE_TEST_SUITE_P(Table2, FastPathWorkload,
                         testing::Values("compress", "doduc", "gcc1",
                                         "ora", "su2cor", "tomcatv"));

TEST(FastPath, PointerChaseIsBitIdenticalToVirtualChain)
{
    // The chase misses constantly, so nearly every access takes the
    // miss fall-through from accessFast into the virtual chain while
    // fills are in flight — the merge/break interleaving case.
    expectFastPathExact("chase", workloads::makePointerChase(
                                     workloads::WorkloadParams{0.2}));
}

} // namespace
