/**
 * @file
 * Unit tests for the counting Bloom filter, including its central
 * correctness property: no false negatives under balanced
 * insert/remove traffic.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "predictor/bloom_filter.hh"
#include "sim/random.hh"

namespace flexsnoop
{
namespace
{

Addr
lineAt(std::uint64_t idx)
{
    return idx * kLineSizeBytes;
}

TEST(BloomFilter, EmptyContainsNothing)
{
    CountingBloomFilter filter({10, 4, 7});
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_FALSE(filter.mayContain(lineAt(i)));
    EXPECT_EQ(filter.population(), 0u);
}

TEST(BloomFilter, InsertedLineIsAlwaysFound)
{
    CountingBloomFilter filter({10, 4, 7});
    filter.insert(lineAt(42));
    EXPECT_TRUE(filter.mayContain(lineAt(42)));
    EXPECT_EQ(filter.population(), 1u);
}

TEST(BloomFilter, RemoveRestoresEmptiness)
{
    CountingBloomFilter filter({10, 4, 7});
    filter.insert(lineAt(42));
    filter.remove(lineAt(42));
    EXPECT_FALSE(filter.mayContain(lineAt(42)));
    EXPECT_EQ(filter.population(), 0u);
}

TEST(BloomFilter, CountersHandleDuplicateInserts)
{
    CountingBloomFilter filter({10, 4, 7});
    filter.insert(lineAt(1));
    filter.insert(lineAt(1));
    filter.remove(lineAt(1));
    // One instance is still in; a plain bit-vector filter would have
    // lost it.
    EXPECT_TRUE(filter.mayContain(lineAt(1)));
    filter.remove(lineAt(1));
    EXPECT_FALSE(filter.mayContain(lineAt(1)));
}

TEST(BloomFilter, AliasingCausesFalsePositives)
{
    // Tiny filter to force aliasing.
    CountingBloomFilter filter({2, 2});
    // Insert lines covering all 4x4 combinations.
    for (std::uint64_t i = 0; i < 16; ++i)
        filter.insert(lineAt(i));
    // A line beyond the inserted set aliases into occupied counters.
    EXPECT_TRUE(filter.mayContain(lineAt(16)));
}

TEST(BloomFilter, NoFalseNegativesProperty)
{
    // Property: any currently-inserted line must be reported present,
    // under randomized insert/remove churn.
    CountingBloomFilter filter({9, 9, 6});
    Rng rng(1234);
    std::set<Addr> inserted;
    for (int step = 0; step < 20000; ++step) {
        if (inserted.empty() || rng.chance(0.55)) {
            const Addr line = lineAt(rng.nextBelow(100000));
            if (!inserted.count(line)) {
                filter.insert(line);
                inserted.insert(line);
            }
        } else {
            auto it = inserted.begin();
            std::advance(it, rng.nextBelow(inserted.size()));
            filter.remove(*it);
            inserted.erase(it);
        }
    }
    for (Addr line : inserted)
        ASSERT_TRUE(filter.mayContain(line));
    EXPECT_EQ(filter.population(), inserted.size());
}

TEST(BloomFilter, PaperYConfigurationStorage)
{
    // y filter: fields 10, 4, 7 bits -> (1024 + 16 + 128) entries of
    // 17 bits = ~2.5 KB (paper Table 4).
    CountingBloomFilter filter({10, 4, 7});
    EXPECT_EQ(filter.storageBits(), (1024u + 16u + 128u) * 17u);
    EXPECT_NEAR(filter.storageBits() / 8.0 / 1024.0, 2.5, 0.2);
}

TEST(BloomFilter, PaperNConfigurationStorage)
{
    // n filter: fields 9, 9, 6 bits -> (512 + 512 + 64) * 17 bits
    // = ~2.3 KB (paper Table 4).
    CountingBloomFilter filter({9, 9, 6});
    EXPECT_EQ(filter.storageBits(), (512u + 512u + 64u) * 17u);
    EXPECT_NEAR(filter.storageBits() / 8.0 / 1024.0, 2.3, 0.2);
}

TEST(BloomFilter, ClearEmptiesEverything)
{
    CountingBloomFilter filter({10, 4, 7});
    for (std::uint64_t i = 0; i < 50; ++i)
        filter.insert(lineAt(i));
    filter.clear();
    EXPECT_EQ(filter.population(), 0u);
    for (std::uint64_t i = 0; i < 50; ++i)
        EXPECT_FALSE(filter.mayContain(lineAt(i)));
}

TEST(BloomFilter, FieldsUseDisjointAddressBits)
{
    // Two lines differing only above all field bits alias fully.
    CountingBloomFilter filter({4, 4});
    const Addr a = lineAt(5);
    const Addr b = lineAt(5 + (1ull << 8)); // beyond 4+4 field bits
    filter.insert(a);
    EXPECT_TRUE(filter.mayContain(b)) << "full alias expected";
    filter.remove(a);
    EXPECT_FALSE(filter.mayContain(b));
}

TEST(BloomFilter, SingleFieldDegeneratesToDirectTable)
{
    CountingBloomFilter filter({6});
    filter.insert(lineAt(3));
    EXPECT_TRUE(filter.mayContain(lineAt(3)));
    EXPECT_FALSE(filter.mayContain(lineAt(4)));
    // Aliases at field wrap-around (64 entries).
    EXPECT_TRUE(filter.mayContain(lineAt(3 + 64)));
}

TEST(BloomFilter, CounterSaturationIsStickyAndSafe)
{
    // Drive one entry past the 16-bit ceiling: the counter pins at
    // kCounterMax, later removes never decrement it (its true count is
    // unknowable), so the entry keeps answering "maybe present" —
    // conservative, preserving no-false-negatives.
    CountingBloomFilter filter({2});
    const Addr line = lineAt(1);
    const unsigned total = 0x10010; // > 65535 inserts of one line
    for (unsigned i = 0; i < total; ++i)
        filter.insert(line);
    EXPECT_EQ(filter.counterValue(0, 1), CountingBloomFilter::kCounterMax);
    EXPECT_TRUE(filter.mayContain(line));
    for (unsigned i = 0; i < total; ++i)
        filter.remove(line);
    EXPECT_EQ(filter.counterValue(0, 1), CountingBloomFilter::kCounterMax);
    EXPECT_TRUE(filter.mayContain(line));
    EXPECT_TRUE(filter.crossCheckConsistent());
}

TEST(BloomFilterDeathTest, UnderflowAssertsInDebug)
{
    CountingBloomFilter filter({4});
    EXPECT_DEBUG_DEATH(filter.remove(lineAt(9)), "underflow");
#ifdef NDEBUG
    // Release builds clamp at zero instead of wrapping the counter to
    // 0xFFFF (which would poison the entry as a permanent positive).
    EXPECT_FALSE(filter.mayContain(lineAt(9)));
    EXPECT_EQ(filter.counterValue(0, 9), 0u);
    EXPECT_TRUE(filter.crossCheckConsistent());
#endif
}

TEST(BloomFilter, RandomizedStormKeepsBitmapAndCountersInAgreement)
{
    // The split layout's invariant: the packed query bitmap's bit is 1
    // exactly when the cold counter is non-zero, across arbitrary
    // aliasing insert/remove storms. Run on the "n" geometry with a
    // small address space to force heavy aliasing.
    CountingBloomFilter filter({9, 9, 6});
    Rng rng(20260808);
    std::vector<Addr> multiset;
    for (int step = 0; step < 50000; ++step) {
        if (multiset.empty() || rng.chance(0.52)) {
            const Addr line = lineAt(rng.nextBelow(4096));
            filter.insert(line);
            multiset.push_back(line);
        } else {
            const std::size_t pick = rng.nextBelow(multiset.size());
            filter.remove(multiset[pick]);
            multiset[pick] = multiset.back();
            multiset.pop_back();
        }
        if (step % 1024 == 0) {
            ASSERT_TRUE(filter.crossCheckConsistent()) << "step " << step;
        }
    }
    ASSERT_TRUE(filter.crossCheckConsistent());
    EXPECT_EQ(filter.population(), multiset.size());
    for (Addr line : multiset)
        ASSERT_TRUE(filter.mayContain(line));
    // Drain and confirm a coherent empty state.
    for (Addr line : multiset)
        filter.remove(line);
    EXPECT_EQ(filter.population(), 0u);
    EXPECT_TRUE(filter.crossCheckConsistent());
}

} // namespace
} // namespace flexsnoop
