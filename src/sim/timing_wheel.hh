/**
 * @file
 * Hierarchical timing wheel: the O(1) scheduler behind EventQueue.
 *
 * A near wheel of power-of-two single-cycle buckets covers the common
 * short event horizon (ring hops, gateway lookups, L2 and memory
 * accesses); three cascading overflow levels of 256 buckets each cover
 * far-future events (watchdog timeouts, retry backoffs, cell
 * deadlines), and an unsorted far list absorbs anything beyond the
 * last level. Every bucket keeps its entries ordered by the scheduler's
 * sequence counter, so execution order — (cycle, seq) strict — is
 * bit-identical to a binary min-heap over the same entries.
 *
 * Entries live in one arena with a free list; a bucket is an intrusive
 * singly linked FIFO (32-bit head/tail indices, a next index per
 * entry). Storage is therefore bounded by the peak number of live
 * events, not by the sum of every bucket's high-water mark, and a
 * cascade relinks indices instead of moving entries.
 *
 * Occupancy bitmaps per level make the "next non-empty bucket" scan a
 * handful of word operations, so draining across empty cycle stretches
 * costs O(horizon / 64) words instead of O(horizon) buckets.
 */

#ifndef FLEXSNOOP_SIM_TIMING_WHEEL_HH
#define FLEXSNOOP_SIM_TIMING_WHEEL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/types.hh"

namespace flexsnoop
{

/** One scheduled event inside the wheel. */
struct WheelEntry
{
    Cycle when;
    std::uint64_t seq; ///< scheduling order: the same-cycle tie-break
    EventFn fn;
};

class TimingWheel
{
  public:
    /** Overflow geometry: 3 levels x 256 buckets above the near wheel. */
    static constexpr unsigned kOverflowBits = 8;
    static constexpr std::size_t kOverflowSlots = 1u << kOverflowBits;
    static constexpr std::size_t kOverflowLevels = 3;

    static constexpr std::size_t kMinNearBuckets = 64;
    static constexpr std::size_t kMaxNearBuckets = 1u << 16;

    explicit TimingWheel(std::size_t near_buckets = 256);

    /**
     * Resize the near wheel (power of two, clamped to
     * [kMinNearBuckets, kMaxNearBuckets]). Only legal while empty.
     */
    void configure(std::size_t near_buckets);

    std::size_t nearBuckets() const { return _nearSize; }

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /**
     * Insert an entry. @p now is the scheduler's current cycle; it
     * re-anchors the wheel when the insert lands in an empty wheel
     * (which is what keeps long idle jumps free). Requires
     * entry.when >= now.
     */
    void insert(Cycle now, WheelEntry entry);

    /** Remove and return the earliest entry ((when, seq) order).
     *  Requires !empty(). */
    WheelEntry pop();

    /** Earliest pending cycle. Requires !empty(). Cached; O(1) in the
     *  common case, a bitmap scan after a bucket drains. */
    Cycle minPending() const;

    /** Drop all entries; the arena's capacity is retained for reuse. */
    void clear();

    /** Entry slots the arena holds: the peak number of events pending
     *  at once since construction or the last clear(). */
    std::size_t arenaSlots() const { return _arena.size(); }

    // Self-measurement (docs/METRICS.md "queue.*") --------------------

    /** Overflow buckets cascaded down a level. */
    std::uint64_t cascades() const { return _cascades; }
    /** Entries re-filed by those cascades. */
    std::uint64_t cascadedEntries() const { return _cascadedEntries; }
    /** High-water mark of the pending entries in any single bucket. */
    std::uint64_t maxBucketDepth() const { return _maxBucketDepth; }
    /** Inserts that missed the near wheel (validates sizing). */
    std::uint64_t overflowScheduled() const { return _overflowScheduled; }
    /** Inserts beyond even the last overflow level. */
    std::uint64_t farScheduled() const { return _farScheduled; }

    /**
     * Horizon histogram: bucket i counts inserts whose delay
     * (when - now) had bit-width i (i.e. delay in [2^(i-1), 2^i)).
     * Only sampled while enableHorizonHistogram(true); the extra work
     * is kept off the default hot path.
     */
    static constexpr std::size_t kHorizonBuckets = 64;
    using HorizonHistogram = std::array<std::uint64_t, kHorizonBuckets>;
    void enableHorizonHistogram(bool on) { _sampleHorizon = on; }
    const HorizonHistogram &horizonHistogram() const { return _horizon; }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint8_t kFarLevel = kOverflowLevels + 1;

    /** An arena slot: a pending entry, its list link and its bucket. */
    struct Node
    {
        WheelEntry entry;
        std::uint32_t next = kNil; ///< next in bucket, or in free list
        std::uint16_t slot = 0;    ///< bucket index within the level
        std::uint8_t level = 0;    ///< 0 near, 1..3 overflow, kFarLevel
    };

    /** Seq-sorted FIFO list of arena slots. */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t depth = 0; ///< entries linked
    };

    /** Granularity shift of overflow level @p l (1-based). */
    unsigned
    granShift(std::size_t l) const
    {
        return _nearBits + kOverflowBits * static_cast<unsigned>(l - 1);
    }

    Cycle nearWindowEnd() const { return _w0 + _nearSize; }

    Bucket &bucketAt(std::uint8_t level, std::uint16_t slot);

    /** Take a free arena slot (or grow the arena) and move @p entry
     *  into it. */
    std::uint32_t allocate(WheelEntry &&entry);

    /** File arena slot @p idx into the level its cycle belongs to,
     *  keeping the target bucket seq-sorted. Does not touch _size.
     *  @return the level chosen (0 near, 1..3 overflow, kFarLevel). */
    std::uint8_t place(std::uint32_t idx);

    /** Append arena slot @p idx to one bucket. Entries reach a bucket
     *  in seq order, so the append keeps it seq-sorted. */
    void append(std::uint8_t level, std::uint16_t slot, std::uint32_t idx);

    /** Earliest cycle among the entries of @p bucket. */
    Cycle bucketMin(const Bucket &bucket) const;

    /** Advance _curSlot (cascading overflow levels and the far list as
     *  needed) until the current near bucket holds an entry.
     *  @return false when the wheel is empty. */
    bool advanceToPending();

    /** Cascade the next occupied overflow bucket down one level and
     *  re-anchor the lower windows at its start. @return false when
     *  every overflow level is exhausted. */
    bool refillFromOverflow();

    /** Re-anchor the wheel at @p now. Every bucket and the far list
     *  must be empty (the entries, if any, are detached). */
    void resetTo(Cycle now);

    /** Re-file far-list entries that fit the (re-anchored) levels. */
    void redistributeFar();

    /** Cascade step: re-file every entry of the detached @p list by
     *  relinking it into the level its cycle now belongs to. */
    void refile(const Bucket &list);

    Cycle recomputeMin() const;

    // Occupancy bitmaps ----------------------------------------------
    static void setBit(std::vector<std::uint64_t> &bm, std::size_t i);
    static void clrBit(std::vector<std::uint64_t> &bm, std::size_t i);
    /** First set bit at index >= @p from, or SIZE_MAX. */
    static std::size_t scanFrom(const std::vector<std::uint64_t> &bm,
                                std::size_t from, std::size_t bits);

    unsigned _nearBits = 8;
    std::size_t _nearSize = 256;
    std::size_t _nearMask = 255;

    std::vector<Node> _arena;
    std::uint32_t _free = kNil; ///< free-list head (LIFO)

    std::vector<Bucket> _near;
    std::array<std::array<Bucket, kOverflowSlots>, kOverflowLevels> _over;
    Bucket _far; ///< seq-sorted; cycles beyond the last level

    std::vector<std::uint64_t> _nearMap;
    std::array<std::vector<std::uint64_t>, kOverflowLevels> _overMap;

    Cycle _w0 = 0;            ///< near window start (aligned)
    std::size_t _curSlot = 0; ///< near slot currently draining
    /** Next overflow slot to examine per level (256 = exhausted). */
    std::array<std::size_t, kOverflowLevels> _scan{};

    std::size_t _size = 0;

    mutable bool _minValid = false;
    mutable Cycle _minCached = 0;

    std::uint64_t _cascades = 0;
    std::uint64_t _cascadedEntries = 0;
    std::uint64_t _maxBucketDepth = 0;
    std::uint64_t _overflowScheduled = 0;
    std::uint64_t _farScheduled = 0;
    bool _sampleHorizon = false;
    HorizonHistogram _horizon{};
};

} // namespace flexsnoop

#endif // FLEXSNOOP_SIM_TIMING_WHEEL_HH
