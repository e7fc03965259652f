/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Reused by the L2 caches (payload = LineState) and by the address-only
 * predictor structures (payload = empty). Addresses are line addresses;
 * the array derives the set index from the line index bits.
 *
 * Recency is an 8-bit rank per way, kept dense among the set's valid
 * ways: with k valid ways the ranks are exactly 0..k-1, 0 the least
 * recently used. That orders the valid ways just as a global use stamp
 * would, so the victim -- the first invalid way, else rank 0 -- is the
 * same, while a way with a LineState or empty payload packs into 16 B
 * (an 8-way set spans two cache lines). Invalid ways hold rank 0 and
 * are never ranked above a valid way, so a value-initialized array is a
 * valid empty one. Every change of a way's validity therefore goes
 * through insert() or erase*(), which keep the ranks dense.
 */

#ifndef FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH
#define FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace flexsnoop
{

/**
 * Result of an insertion: where the line landed and what was evicted.
 */
template <typename Payload>
struct InsertResult
{
    bool evicted = false;   ///< a valid victim was displaced
    Addr evictedAddr = kInvalidAddr;
    Payload evictedPayload{};
};

template <typename Payload>
class SetAssocArray
{
  public:
    struct Way
    {
        Addr tag = kInvalidAddr; ///< full line address (not just tag bits)
        bool valid = false;
        /** Recency among the set's valid ways: 0 = LRU, k-1 = MRU.
         *  Always 0 while invalid. */
        std::uint8_t rank = 0;
        Payload data{};
    };

    /** Largest associativity an 8-bit rank can order. */
    static constexpr std::size_t kMaxWays = 256;

    /**
     * @param num_entries total entries (must be a multiple of @p ways)
     * @param ways        associativity, at most kMaxWays
     */
    SetAssocArray(std::size_t num_entries, std::size_t ways)
        : _ways(ways), _sets(num_entries / ways),
          _array(num_entries)
    {
        assert(ways > 0 && ways <= kMaxWays);
        assert(num_entries % ways == 0);
        assert(_sets > 0);
    }

    std::size_t numEntries() const { return _array.size(); }
    std::size_t numSets() const { return _sets; }
    std::size_t associativity() const { return _ways; }

    /** Number of currently valid entries (O(n); for stats/tests). */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const auto &w : _array)
            n += w.valid;
        return n;
    }

    /** Set index for a line address. */
    std::size_t
    setIndex(Addr line) const
    {
        return static_cast<std::size_t>(lineIndex(line)) % _sets;
    }

    /**
     * Look up @p line; returns the way or nullptr. Updates LRU when
     * @p touch is true.
     */
    Way *
    lookup(Addr line, bool touch = true)
    {
        line = lineAddr(line);
        return lookupInSet(setIndex(line), line, touch);
    }

    const Way *
    lookup(Addr line) const
    {
        return const_cast<SetAssocArray *>(this)->lookup(line, false);
    }

    /**
     * lookup() with the set index already known — the snoop hot path
     * carries it in the message's probe signature (geometry is uniform
     * across all L2s of the machine, so one index serves every node).
     */
    Way *
    lookupInSet(std::size_t set, Addr line, bool touch = true)
    {
        assert(set == setIndex(line));
        Way *const ways = &_array[set * _ways];
        for (std::size_t i = 0; i < _ways; ++i) {
            Way &w = ways[i];
            if (w.valid && w.tag == line) {
                if (touch)
                    promote(ways, w);
                return &w;
            }
        }
        return nullptr;
    }

    const Way *
    lookupInSet(std::size_t set, Addr line) const
    {
        return const_cast<SetAssocArray *>(this)->lookupInSet(set, line,
                                                              false);
    }

    /**
     * Insert @p line with @p data, evicting the LRU way if the set is
     * full. If the line is already present its payload is overwritten.
     */
    InsertResult<Payload>
    insert(Addr line, Payload data = Payload{})
    {
        line = lineAddr(line);
        InsertResult<Payload> result;
        Way *const ways = &_array[setIndex(line) * _ways];
        // One pass finds a hit, else the first invalid way, else the
        // LRU way (rank 0, unique in a full set). A set with an invalid
        // way holds k < _ways valid ways ranked 0..k-1, so a newcomer
        // there takes rank k and no other rank moves.
        std::size_t hit = _ways;
        std::size_t vacant = _ways;
        std::size_t lru = 0;
        unsigned valid = 0;
        for (std::size_t i = _ways; i-- > 0;) {
            const Way &w = ways[i];
            hit = (w.valid && w.tag == line) ? i : hit;
            vacant = w.valid ? vacant : i;
            lru = w.rank == 0 ? i : lru;
            valid += w.valid;
        }
        if (hit != _ways) {
            promote(ways, ways[hit]);
            ways[hit].data = std::move(data);
            return result;
        }
        if (vacant != _ways) {
            Way &way = ways[vacant];
            way.tag = line;
            way.valid = true;
            way.rank = static_cast<std::uint8_t>(valid);
            way.data = std::move(data);
            return result;
        }
        Way &victim = ways[lru];
        result.evicted = true;
        result.evictedAddr = victim.tag;
        result.evictedPayload = std::move(victim.data);
        victim.tag = line;
        victim.data = std::move(data);
        promote(ways, victim);
        return result;
    }

    /** Remove @p line if present; @return true if it was there. */
    bool
    erase(Addr line)
    {
        line = lineAddr(line);
        const std::size_t set = setIndex(line);
        if (Way *w = lookupInSet(set, line, false)) {
            eraseWay(set, *w);
            return true;
        }
        return false;
    }

    /**
     * Invalidate @p way, a valid way of set @p set (as returned by
     * lookupInSet), closing the gap it leaves in the set's ranks.
     */
    void
    eraseWay(std::size_t set, Way &way)
    {
        Way *const ways = &_array[set * _ways];
        assert(way.valid && &way >= ways && &way < ways + _ways);
        const unsigned rank = way.rank;
        for (Way *w = ways, *end = ways + _ways; w != end; ++w)
            w->rank = static_cast<std::uint8_t>(w->rank - (w->rank > rank));
        way.valid = false;
        way.rank = 0;
        way.tag = kInvalidAddr;
        way.data = Payload{};
    }

    /** Invalidate every entry. */
    void
    clear()
    {
        for (auto &w : _array) {
            w.valid = false;
            w.rank = 0;
            w.tag = kInvalidAddr;
            w.data = Payload{};
        }
    }

    /** Visit every valid way (tag, payload ref). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &w : _array) {
            if (w.valid)
                fn(w.tag, w.data);
        }
    }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &w : _array) {
            if (w.valid)
                fn(w.tag, w.data);
        }
    }

  private:
    /** Make the valid @p way the set's MRU: every way ranked above it
     *  (valid, since invalid ways hold 0) moves down one, and it takes
     *  the top rank. Branch-free, and the bound is read once: the byte
     *  stores could otherwise alias _ways. */
    void
    promote(Way *ways, Way &way)
    {
        const unsigned rank = way.rank;
        unsigned above = 0;
        for (Way *w = ways, *end = ways + _ways; w != end; ++w) {
            const unsigned higher = w->rank > rank;
            w->rank = static_cast<std::uint8_t>(w->rank - higher);
            above += higher;
        }
        way.rank = static_cast<std::uint8_t>(rank + above);
    }

    std::size_t _ways;
    std::size_t _sets;
    std::vector<Way> _array;
};

} // namespace flexsnoop

#endif // FLEXSNOOP_MEM_SET_ASSOC_ARRAY_HH
