/**
 * @file
 * Properties of the SoA machine-state substrate.
 *
 * SlabPool generational handles: under arbitrary alloc/free churn, a
 * handle that outlives its allocation must go stale — it must never
 * resolve to a *different* live object, even after its slot is reused
 * many times (the property the core's dispatch-queue and
 * memory-dependence handles rely on).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "support/arena.hh"
#include "support/random.hh"

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

} // namespace
