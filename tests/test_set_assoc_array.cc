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

constexpr std::size_t kNoWay = SetAssocArray<int>::kNoWay;

// Per-way metadata beside the tag array: a rank byte plus the payload,
// which an empty payload does not widen.
static_assert(sizeof(SetAssocArray<LineState>::Meta) <= 2);
static_assert(sizeof(SetAssocArray<Empty>::Meta) == 1);

TEST(SetAssocArray, EightWaySetTagsFillOneCacheLine)
{
    // Tags are 8 B apart and start on a 64-byte boundary, so the eight
    // tags a probe of an 8-way set compares share one cache line.
    for (const std::size_t ways : {1u, 2u, 8u, 16u}) {
        SetAssocArray<LineState> arr(64 * ways, ways);
        const auto *first =
            reinterpret_cast<const unsigned char *>(&arr.tag(0));
        const auto *second =
            reinterpret_cast<const unsigned char *>(&arr.tag(1));
        EXPECT_EQ(second - first, 8) << ways;
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % 64, 0u)
            << ways;
    }
}

TEST(SetAssocArray, InvalidWaysHoldTheSentinelTag)
{
    SetAssocArray<int> arr(4, 2);
    for (std::size_t w = 0; w < arr.numEntries(); ++w)
        EXPECT_EQ(arr.tag(w), kInvalidAddr) << w;
    arr.insert(line(0), 1);
    const std::size_t way = arr.find(line(0));
    ASSERT_NE(way, kNoWay);
    EXPECT_EQ(arr.tag(way), line(0));
    arr.eraseWay(way);
    EXPECT_EQ(arr.tag(way), kInvalidAddr);
    // The highest line address is still a line, not the sentinel.
    EXPECT_NE(lineAddr(kInvalidAddr), kInvalidAddr);
    arr.insert(kInvalidAddr, 7);
    EXPECT_TRUE(arr.contains(lineAddr(kInvalidAddr)));
    EXPECT_EQ(arr.occupancy(), 1u);
}

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
    const std::size_t way = arr.find(line(3));
    ASSERT_NE(way, kNoWay);
    EXPECT_EQ(arr.data(way), 42);
    EXPECT_EQ(arr.tag(way), line(3));
    EXPECT_EQ(arr.occupancy(), 1u);
}

TEST(SetAssocArray, LookupMissReturnsNull)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3), 1);
    EXPECT_EQ(arr.find(line(4)), kNoWay);
}

TEST(SetAssocArray, OffsetBitsIgnored)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3) + 17, 9);
    ASSERT_NE(arr.find(line(3) + 42), kNoWay);
    EXPECT_EQ(arr.data(arr.find(line(3))), 9);
}

TEST(SetAssocArray, ReinsertOverwritesPayloadWithoutEviction)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(line(3), 1);
    const auto res = arr.insert(line(3), 2);
    EXPECT_FALSE(res.evicted);
    EXPECT_EQ(arr.data(arr.find(line(3))), 2);
    EXPECT_EQ(arr.occupancy(), 1u);
}

TEST(SetAssocArray, EvictsLruWhenSetFull)
{
    // 1 set, 2 ways: lines all map to the same set.
    SetAssocArray<int> arr(2, 2);
    arr.insert(line(0), 10);
    arr.insert(line(1), 11);
    // Touch line 0 so line 1 becomes LRU.
    arr.find(line(0));
    const auto res = arr.insert(line(2), 12);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, line(1));
    EXPECT_EQ(res.evictedPayload, 11);
    EXPECT_TRUE(arr.contains(line(0)));
    EXPECT_FALSE(arr.contains(line(1)));
    EXPECT_TRUE(arr.contains(line(2)));
}

TEST(SetAssocArray, LookupWithoutTouchDoesNotAffectLru)
{
    SetAssocArray<int> arr(2, 2);
    arr.insert(line(0), 10);
    arr.insert(line(1), 11);
    arr.find(line(0), /*touch=*/false); // line 0 stays LRU
    const auto res = arr.insert(line(2), 12);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, line(0));
}

TEST(SetAssocArray, EraseFreesTheWay)
{
    SetAssocArray<int> arr(4, 2);
    arr.insert(line(0), 1);
    EXPECT_TRUE(arr.erase(line(0)));
    EXPECT_FALSE(arr.contains(line(0)));
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
        ASSERT_TRUE(arr.contains(line(i))) << i;
}

TEST(SetAssocArray, ClearInvalidatesEverything)
{
    SetAssocArray<int> arr(8, 2);
    for (std::uint64_t i = 0; i < 6; ++i)
        arr.insert(line(i), static_cast<int>(i));
    arr.clear();
    EXPECT_EQ(arr.occupancy(), 0u);
    for (std::uint64_t i = 0; i < 6; ++i)
        EXPECT_FALSE(arr.contains(line(i)));
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
    arr.find(line(1)); // recency now 2 < 4 < 5 < 1
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
            const std::size_t got = arr.find(l, true);
            const auto *want = ref.lookup(l, true);
            ASSERT_EQ(got != kNoWay, want != nullptr) << op;
            if (want) {
                ASSERT_EQ(arr.data(got), want->data) << op;
            }
            break;
        }
        case 5: { // a probe that must not
            const std::size_t got = arr.find(l, false);
            const auto *want = ref.lookup(l, false);
            ASSERT_EQ(got != kNoWay, want != nullptr) << op;
            break;
        }
        case 6:
            ASSERT_EQ(arr.erase(l), ref.erase(l)) << op;
            break;
        default: { // invalidation through the way, as L2Cache does it
            const std::size_t way =
                arr.findInSet(arr.setIndex(l), lineAddr(l), false);
            const bool had = way != kNoWay;
            if (had)
                arr.eraseWay(way);
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
