/**
 * @file
 * Unit tests for the allocation-free hot-path containers: SlotPool
 * (recycled slots, stable addresses) and FlatMap (open addressing,
 * backward-shift erase).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/slot_pool.hh"

namespace flexsnoop
{
namespace
{

struct Payload
{
    int value = 0;
    std::vector<int> scratch;
};

TEST(SlotPool, RecyclesSlotsWithoutNewChunks)
{
    SlotPool<Payload> pool(4);
    Payload *a = pool.acquire();
    a->scratch.assign(100, 7);
    pool.release(a);

    // The freed slot comes back (LIFO) with its state intact; the
    // caller re-initializes but keeps grown capacity.
    Payload *b = pool.acquire();
    EXPECT_EQ(a, b);
    EXPECT_EQ(b->scratch.size(), 100u);
    EXPECT_GE(b->scratch.capacity(), 100u);
    pool.release(b);

    EXPECT_EQ(pool.chunkAllocs(), 1u);
    EXPECT_EQ(pool.acquires(), 2u);
    EXPECT_EQ(pool.releases(), 2u);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(SlotPool, GrowsByChunksAndKeepsAddressesStable)
{
    SlotPool<Payload> pool(2);
    std::vector<Payload *> out;
    for (int i = 0; i < 7; ++i) {
        Payload *p = pool.acquire();
        p->value = i;
        out.push_back(p);
    }
    EXPECT_EQ(pool.chunkAllocs(), 4u); // ceil(7/2)
    EXPECT_EQ(pool.live(), 7u);
    EXPECT_EQ(pool.slotsAllocated(), 8u);

    // All handed-out pointers are distinct and still hold their data
    // after the growth that happened in between.
    std::set<Payload *> distinct(out.begin(), out.end());
    EXPECT_EQ(distinct.size(), out.size());
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(out[i]->value, i);
    for (Payload *p : out)
        pool.release(p);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(FlatMap, PutFindErase)
{
    FlatMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);

    map.put(42, 1);
    map.put(7, 2);
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 1);
    EXPECT_EQ(*map.find(7), 2);
    EXPECT_EQ(map.size(), 2u);

    map.put(42, 3); // overwrite, no duplicate
    EXPECT_EQ(*map.find(42), 3);
    EXPECT_EQ(map.size(), 2u);

    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_EQ(*map.find(7), 2);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, GetOrCreateDefaultConstructs)
{
    FlatMap<int *> map;
    int *&slot = map.getOrCreate(5);
    EXPECT_EQ(slot, nullptr); // value-initialized
    int x = 9;
    slot = &x;
    EXPECT_EQ(*map.find(5), &x);

    // Erase resets the stored value, so a recycled mapping starts null.
    map.erase(5);
    EXPECT_EQ(map.getOrCreate(5), nullptr);
}

TEST(FlatMap, SurvivesGrowthAndTombstoneChurn)
{
    FlatMap<std::uint64_t> map;
    const std::uint64_t n = 2000;
    for (std::uint64_t k = 0; k < n; ++k)
        map.put(k * 64, k); // line-address-like keys: low-entropy bits
    EXPECT_EQ(map.size(), n);
    for (std::uint64_t k = 0; k < n; k += 2)
        EXPECT_TRUE(map.erase(k * 64));
    EXPECT_EQ(map.size(), n / 2);

    // Every surviving key still resolves; every erased key is gone.
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t *v = map.find(k * 64);
        if (k % 2) {
            ASSERT_NE(v, nullptr) << k;
            EXPECT_EQ(*v, k);
        } else {
            EXPECT_EQ(v, nullptr) << k;
        }
    }

    // Erased slots are reused by later inserts.
    for (std::uint64_t k = 0; k < n; k += 2)
        map.put(k * 64, k + 1000000);
    EXPECT_EQ(map.size(), n);
    EXPECT_EQ(*map.find(0), 1000000u);
}

TEST(FlatMap, CapacityBoundedUnderMonotonicChurn)
{
    // Transaction-id churn: ids only grow while the live set stays at
    // 16. Capacity must follow the live high-water mark, not the number
    // of inserts; a tombstoning map reached 524,288 slots here.
    FlatMap<std::uint64_t> map;
    constexpr std::uint64_t kLive = 16;
    constexpr std::uint64_t kPairs = 1'200'000;
    for (std::uint64_t id = 0; id < kLive; ++id)
        map.put(id, id);
    for (std::uint64_t id = kLive; id < kLive + kPairs; ++id) {
        map.put(id, id);
        ASSERT_TRUE(map.erase(id - kLive)) << id;
    }
    EXPECT_EQ(map.size(), kLive);
    EXPECT_LE(map.capacity(), 64u);
    for (std::uint64_t id = kPairs; id < kPairs + kLive; ++id) {
        const std::uint64_t *v = map.find(id);
        ASSERT_NE(v, nullptr) << id;
        EXPECT_EQ(*v, id);
    }
}

TEST(FlatMap, RandomChurnMatchesReferenceMap)
{
    // Backward-shift erase moves entries across the table's wrap-around
    // and through long clustered runs; a small key space over a small
    // table exercises both. Every operation is checked against
    // std::unordered_map.
    FlatMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    const auto next = [&s]() {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    };
    for (int op = 0; op < 200'000; ++op) {
        const std::uint64_t key = (next() % 96) * 64;
        if (next() % 3 == 0) {
            EXPECT_EQ(map.erase(key), ref.erase(key) == 1) << op;
        } else {
            const std::uint64_t value = next();
            map.put(key, value);
            ref[key] = value;
        }
        ASSERT_EQ(map.size(), ref.size()) << op;
        if (op % 997 == 0) {
            for (std::uint64_t k = 0; k < 96 * 64; k += 64) {
                const auto it = ref.find(k);
                const std::uint64_t *v = map.find(k);
                ASSERT_EQ(v != nullptr, it != ref.end()) << op << " " << k;
                if (v) {
                    EXPECT_EQ(*v, it->second) << op << " " << k;
                }
            }
        }
    }
    EXPECT_LE(map.capacity(), 256u);
}

TEST(FlatMap, ForEachVisitsExactlyTheLiveMappings)
{
    FlatMap<int> map;
    for (int k = 1; k <= 10; ++k)
        map.put(static_cast<std::uint64_t>(k), k);
    map.erase(3);
    map.erase(8);

    std::set<std::uint64_t> seen;
    int sum = 0;
    map.forEach([&](std::uint64_t key, int value) {
        seen.insert(key);
        sum += value;
    });
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(sum, 55 - 3 - 8);
    EXPECT_FALSE(seen.count(3));
    EXPECT_FALSE(seen.count(8));
}

TEST(FlatMap, ClearRetainsNothing)
{
    FlatMap<int> map;
    for (int k = 0; k < 50; ++k)
        map.put(static_cast<std::uint64_t>(k), k);
    map.clear();
    EXPECT_TRUE(map.empty());
    for (int k = 0; k < 50; ++k)
        EXPECT_EQ(map.find(static_cast<std::uint64_t>(k)), nullptr);
    map.put(1, 1);
    EXPECT_EQ(map.size(), 1u);
}

} // namespace
} // namespace flexsnoop
