/**
 * @file
 * Unit tests for the generic set-associative array.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clock_lru_array.hh"
#include "mem/line_state.hh"
#include "mem/set_assoc_array.hh"

namespace flexsnoop
{
namespace
{

Addr
line(std::uint64_t idx)
{
    return idx * kLineSizeBytes;
}

struct Empty
{
};

// The L2 and predictor ways pack into 16 B: an 8-way set spans two
// 64 B cache lines.
static_assert(sizeof(SetAssocArray<LineState>::Way) == 16);
static_assert(sizeof(SetAssocArray<Empty>::Way) == 16);

TEST(SetAssocArray, GeometryDerivedFromParameters)
{
    SetAssocArray<int> arr(64, 4);
    EXPECT_EQ(arr.numEntries(), 64u);
    EXPECT_EQ(arr.associativity(), 4u);
    EXPECT_EQ(arr.numSets(), 16u);
    EXPECT_EQ(arr.occupancy(), 0u);
}

TEST(SetAssocArray, InsertThenLookup)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3), 42);
    const auto *way = arr.lookup(line(3));
    ASSERT_NE(way, nullptr);
    EXPECT_EQ(way->data, 42);
    EXPECT_EQ(way->tag, line(3));
    EXPECT_EQ(arr.occupancy(), 1u);
}

TEST(SetAssocArray, LookupMissReturnsNull)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3), 1);
    EXPECT_EQ(arr.lookup(line(4)), nullptr);
}

TEST(SetAssocArray, OffsetBitsIgnored)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3) + 17, 9);
    ASSERT_NE(arr.lookup(line(3) + 42), nullptr);
    EXPECT_EQ(arr.lookup(line(3))->data, 9);
}

TEST(SetAssocArray, ReinsertOverwritesPayloadWithoutEviction)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3), 1);
    const auto res = arr.insert(line(3), 2);
    EXPECT_FALSE(res.evicted);
    EXPECT_EQ(arr.lookup(line(3))->data, 2);
    EXPECT_EQ(arr.occupancy(), 1u);
}

TEST(SetAssocArray, EvictsLruWhenSetFull)
{
    // 1 set, 2 ways: lines all map to the same set.
    SetAssocArray<int> arr(2, 2);
    arr.insert(line(0), 10);
    arr.insert(line(1), 11);
    // Touch line 0 so line 1 becomes LRU.
    arr.lookup(line(0));
    const auto res = arr.insert(line(2), 12);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, line(1));
    EXPECT_EQ(res.evictedPayload, 11);
    EXPECT_NE(arr.lookup(line(0)), nullptr);
    EXPECT_EQ(arr.lookup(line(1)), nullptr);
    EXPECT_NE(arr.lookup(line(2)), nullptr);
}

TEST(SetAssocArray, LookupWithoutTouchDoesNotAffectLru)
{
    SetAssocArray<int> arr(2, 2);
    arr.insert(line(0), 10);
    arr.insert(line(1), 11);
    arr.lookup(line(0), /*touch=*/false); // line 0 stays LRU
    const auto res = arr.insert(line(2), 12);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, line(0));
}

TEST(SetAssocArray, EraseFreesTheWay)
{
    SetAssocArray<int> arr(4, 2);
    arr.insert(line(0), 1);
    EXPECT_TRUE(arr.erase(line(0)));
    EXPECT_EQ(arr.lookup(line(0)), nullptr);
    EXPECT_FALSE(arr.erase(line(0)));
    EXPECT_EQ(arr.occupancy(), 0u);
}

TEST(SetAssocArray, DifferentSetsDoNotInterfere)
{
    SetAssocArray<int> arr(8, 2); // 4 sets
    // Lines 0 and 4 share set 0; lines 1, 2, 3 use other sets.
    arr.insert(line(0), 0);
    arr.insert(line(1), 1);
    arr.insert(line(2), 2);
    arr.insert(line(3), 3);
    arr.insert(line(4), 4);
    EXPECT_EQ(arr.occupancy(), 5u);
    for (std::uint64_t i = 0; i <= 4; ++i)
        ASSERT_NE(arr.lookup(line(i)), nullptr) << i;
}

TEST(SetAssocArray, ClearInvalidatesEverything)
{
    SetAssocArray<int> arr(8, 2);
    for (std::uint64_t i = 0; i < 6; ++i)
        arr.insert(line(i), static_cast<int>(i));
    arr.clear();
    EXPECT_EQ(arr.occupancy(), 0u);
    for (std::uint64_t i = 0; i < 6; ++i)
        EXPECT_EQ(arr.lookup(line(i)), nullptr);
}

TEST(SetAssocArray, ForEachValidVisitsAllEntries)
{
    SetAssocArray<int> arr(8, 2);
    arr.insert(line(1), 10);
    arr.insert(line(2), 20);
    int sum = 0;
    std::size_t count = 0;
    arr.forEachValid([&](Addr, const int &v) {
        sum += v;
        ++count;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(sum, 30);
}

TEST(SetAssocArray, FullAssociativeStress)
{
    SetAssocArray<int> arr(128, 8);
    // Insert 4x the capacity; occupancy must cap at capacity and every
    // resident line must be findable with the right payload.
    for (std::uint64_t i = 0; i < 512; ++i)
        arr.insert(line(i), static_cast<int>(i));
    EXPECT_EQ(arr.occupancy(), 128u);
    arr.forEachValid([&](Addr a, const int &v) {
        EXPECT_EQ(static_cast<int>(lineIndex(a)), v);
    });
}

TEST(SetAssocArray, InsertResultDefaultIsNoEviction)
{
    SetAssocArray<int> arr(8, 2);
    const auto res = arr.insert(line(0), 5);
    EXPECT_FALSE(res.evicted);
    EXPECT_EQ(res.evictedAddr, kInvalidAddr);
}

TEST(SetAssocArray, RanksStayDenseAcrossEraseAndRefill)
{
    // 1 set, 4 ways. Erasing the MRU and LRU ways leaves holes; the
    // refills take the free ways, and the next victim is still the
    // least recently used survivor.
    SetAssocArray<int> arr(4, 4);
    for (int i = 0; i < 4; ++i)
        arr.insert(line(i), i); // recency 0 < 1 < 2 < 3
    EXPECT_TRUE(arr.erase(line(3)));
    EXPECT_TRUE(arr.erase(line(0)));
    arr.insert(line(4), 4);
    arr.insert(line(5), 5);
    arr.lookup(line(1)); // recency now 2 < 4 < 5 < 1
    const auto res = arr.insert(line(6), 6);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, line(2));
    EXPECT_EQ(arr.insert(line(7), 7).evictedAddr, line(4));
}

/** Deterministic xorshift64* so the differential script is
 *  reproducible. */
struct Rng
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dull;
    }
    std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

class LruDifferential : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LruDifferential, RankMatchesClockReferenceOnRandomScript)
{
    const std::size_t ways = GetParam();
    const std::size_t sets = 4;
    SetAssocArray<int> arr(sets * ways, ways);
    ClockLruArray<int> ref(sets * ways, ways);
    // Twice as many distinct lines as entries: sets fill, evict, and
    // churn through holes left by erases, invalidations and flushes.
    const std::uint64_t lines = 2 * sets * ways;
    Rng rng;

    const auto contents = [](const auto &a) {
        std::vector<std::pair<Addr, int>> out;
        a.forEachValid(
            [&out](Addr tag, const int &v) { out.emplace_back(tag, v); });
        return out;
    };

    for (int op = 0; op < 40'000; ++op) {
        if (rng.pick(4096) == 0) { // rare: flush everything
            arr.clear();
            ref.clear();
            continue;
        }
        const Addr l = line(rng.pick(lines));
        switch (rng.pick(8)) {
        case 0:
        case 1:
        case 2: {
            const int v = op;
            const auto got = arr.insert(l, v);
            const auto want = ref.insert(l, v);
            ASSERT_EQ(got.evicted, want.evicted) << op;
            ASSERT_EQ(got.evictedAddr, want.evictedAddr) << op;
            ASSERT_EQ(got.evictedPayload, want.evictedPayload) << op;
            break;
        }
        case 3:
        case 4: { // a hit that refreshes recency
            const auto *got = arr.lookup(l, true);
            const auto *want = ref.lookup(l, true);
            ASSERT_EQ(got != nullptr, want != nullptr) << op;
            if (got) {
                ASSERT_EQ(got->data, want->data) << op;
            }
            break;
        }
        case 5: { // a probe that must not
            const auto *got = arr.lookup(l, false);
            const auto *want = ref.lookup(l, false);
            ASSERT_EQ(got != nullptr, want != nullptr) << op;
            break;
        }
        case 6:
            ASSERT_EQ(arr.erase(l), ref.erase(l)) << op;
            break;
        default: { // invalidation through the way, as L2Cache does it
            const std::size_t set = arr.setIndex(l);
            auto *way = arr.lookupInSet(set, l, false);
            const bool had = way != nullptr;
            if (had)
                arr.eraseWay(set, *way);
            ASSERT_EQ(had, ref.erase(l)) << op;
            break;
        }
        }
        if (op % 64 == 0) {
            ASSERT_EQ(contents(arr), contents(ref)) << op;
        }
    }
    EXPECT_EQ(contents(arr), contents(ref));
}

INSTANTIATE_TEST_SUITE_P(
    Ways, LruDifferential, ::testing::Values(1u, 2u, 8u, 16u, 256u),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return "Ways" + std::to_string(info.param);
    });

} // namespace
} // namespace flexsnoop
